"""MiniC AST → MIR lowering.

Reproduces the clang ``-O0`` shape the paper instruments: every source
variable gets a memory home (global segment or stack frame), every use is an
explicit ``load``/``store`` carrying source line + variable name + static
memory-operation id, and control regions (function bodies, loops, branches)
get entry/exit/iteration markers.

The lowering also performs the *static* half of the paper's Phase 1: for each
control region it records which variables are declared inside (local) and
which are referenced but declared outside (global to the region) — the
``globalVars`` sets consumed by the top-down CU construction (Algorithm 3).

All of that MIR is built through :class:`repro.mir.emit.MirEmitter`, which
the Python frontend (:mod:`repro.frontend.lowering`) shares; this module
only walks the MiniC AST.
"""

from __future__ import annotations

from typing import Union

from repro.minic import astnodes as ast
from repro.minic.parser import parse
from repro.minic.sema import SymbolTable, analyze
from repro.mir.emit import MirEmitter, Operand
from repro.mir.instructions import Instr, Opcode
from repro.mir.module import Module


class Lowerer(MirEmitter):
    """Lowers one analysed Program to a Module."""

    def __init__(self, program: ast.Program, symtab: SymbolTable, name: str) -> None:
        super().__init__(Module(name, symtab))
        self.program = program
        self.symtab = symtab

    def lower(self) -> Module:
        self._layout_globals()
        for func_ast in self.program.functions:
            finfo = self.symtab.functions[func_ast.name]
            with self._function(
                func_ast.name,
                finfo.params,
                finfo.local_vars,
                func_ast.return_type,
                func_ast.line,
                func_ast.end_line,
            ):
                self._lower_body(func_ast.body.body)
        return self.module

    def _layout_globals(self) -> None:
        offset = 0
        decls = {d.var_id: d for d in self.program.globals}
        for info in self.symtab.global_vars:
            self.module.global_offsets[info.var_id] = offset
            decl = decls.get(info.var_id)
            if decl is not None and decl.init is not None:
                self.module.global_init[offset] = decl.init.value
            offset += info.size
        self.module.global_size = offset

    # ------------------------------------------------------------------
    # statements
    # ------------------------------------------------------------------

    def _lower_body(self, stmts) -> None:
        for stmt in stmts:
            self._lower_stmt(stmt)

    def _lower_stmt(self, stmt: ast.Stmt) -> None:
        if isinstance(stmt, ast.VarDecl):
            assert stmt.var_id is not None
            self._record_decl(stmt.var_id)
            if stmt.init is not None:
                value = self._lower_expr(stmt.init)
                self._store(self._info(stmt), stmt.line, value)
        elif isinstance(stmt, ast.Assign):
            self._lower_assign(stmt)
        elif isinstance(stmt, ast.ExprStmt):
            self._lower_expr(stmt.expr, want_value=False)
        elif isinstance(stmt, ast.If):
            else_body = (
                stmt.else_body.body if stmt.else_body is not None else None
            )
            self._branch(
                stmt.line,
                stmt.end_line,
                lambda: self._lower_expr(stmt.cond),
                stmt.then_body.body,
                else_body,
            )
        elif isinstance(stmt, ast.While):
            self._loop(
                stmt.line,
                stmt.end_line,
                stmt.body.body,
                cond=lambda: self._lower_expr(stmt.cond),
            )
        elif isinstance(stmt, ast.For):
            self._lower_for(stmt)
        elif isinstance(stmt, ast.Return):
            operand = (
                self._lower_expr(stmt.value) if stmt.value is not None else None
            )
            self._terminate(Instr(Opcode.RET, a=operand, line=stmt.line))
        elif isinstance(stmt, (ast.Break, ast.Continue)):
            is_break = isinstance(stmt, ast.Break)
            if not self._loop_stack:
                word = "break" if is_break else "continue"
                raise SyntaxError(f"line {stmt.line}: {word} outside loop")
            loop = self._loop_stack[-1]
            target = loop.exit_label if is_break else loop.latch_label
            self._terminate(Instr(Opcode.JMP, a=target))
        elif isinstance(stmt, ast.Block):
            self._lower_body(stmt.body)
        elif isinstance(stmt, ast.Lock):
            operand = self._lower_expr(stmt.lock_id)
            self._emit(Instr(Opcode.LOCK, a=operand, line=stmt.line))
        elif isinstance(stmt, ast.Unlock):
            operand = self._lower_expr(stmt.lock_id)
            self._emit(Instr(Opcode.UNLOCK, a=operand, line=stmt.line))
        elif isinstance(stmt, ast.Join):
            operand = self._lower_expr(stmt.tid)
            self._emit(Instr(Opcode.JOIN, a=operand, line=stmt.line))
        else:  # pragma: no cover - exhaustive
            raise NotImplementedError(type(stmt).__name__)

    def _info(self, node):
        """The symbol a resolved ``Var``/``VarDecl`` node names."""
        return self.symtab.variables[node.var_id]

    def _lower_assign(self, stmt: ast.Assign) -> None:
        target = stmt.target
        if isinstance(target, ast.Var):
            info, memref = self._info(target), None
        else:  # Index target
            info = self._info(target.base)
            idx = self._lower_expr(target.index)
            memref = self._element_memref(info, idx, stmt.line)
        if stmt.op == "=":
            value = self._lower_expr(stmt.value)
            self._store(info, stmt.line, value, memref)
        else:
            rhs = lambda: self._lower_expr(stmt.value)  # noqa: E731
            self._update(info, stmt.op[:-1], rhs, stmt.line, memref)

    def _lower_for(self, stmt: ast.For) -> None:
        # Identify the loop-iteration variable (§3.2.5): the variable the
        # step clause writes, defaulting to the init-clause target.
        iter_var = None
        for clause in (stmt.step, stmt.init):
            if isinstance(clause, ast.Assign) and isinstance(clause.target, ast.Var):
                iter_var = clause.target.var_id
                break
            if isinstance(clause, ast.VarDecl):
                iter_var = clause.var_id
                break
        self._loop(
            stmt.line,
            stmt.end_line,
            stmt.body.body,
            cond=_optional(self._lower_expr, stmt.cond),
            init=_optional(self._lower_stmt, stmt.init),
            step=_optional(self._lower_stmt, stmt.step),
            iter_var=iter_var,
            iter_var_written_in_body=(
                iter_var is not None and _writes_var(stmt.body, iter_var)
            ),
        )

    # ------------------------------------------------------------------
    # expressions
    # ------------------------------------------------------------------

    def _lower_expr(self, expr: ast.Expr, want_value: bool = True) -> Operand:
        if isinstance(expr, ast.Num):
            return ("i", expr.value)
        if isinstance(expr, ast.Var):
            info = self._info(expr)
            if info.is_array:
                return self._array_base(info, expr.line)
            return self._load(info, expr.line)
        if isinstance(expr, ast.Index):
            info = self._info(expr.base)
            idx = self._lower_expr(expr.index)
            memref = self._element_memref(info, idx, expr.line)
            return self._load(info, expr.line, memref)
        if isinstance(expr, ast.BinOp):
            if expr.op in ("&&", "||"):
                return self._lower_shortcircuit(expr)
            left = self._lower_expr(expr.left)
            right = self._lower_expr(expr.right)
            return self._binop(expr.op, left, right, expr.line)
        if isinstance(expr, ast.UnOp):
            operand = self._lower_expr(expr.operand)
            return self._unop(expr.op, operand, expr.line)
        if isinstance(expr, ast.Call):
            args = [self._lower_call_arg(arg) for arg in expr.args]
            op = Opcode.CALLB if expr.is_builtin else Opcode.CALL
            return self._emit_call(op, expr.name, args, expr.line, want_value)
        if isinstance(expr, ast.SpawnExpr):
            args = [self._lower_call_arg(arg) for arg in expr.args]
            return self._emit_call(
                Opcode.SPAWN, expr.name, args, expr.line, want_value
            )
        raise NotImplementedError(type(expr).__name__)  # pragma: no cover

    def _lower_call_arg(self, arg: ast.Expr) -> Operand:
        """Arrays are passed by base address; everything else by value."""
        if isinstance(arg, ast.Var):
            info = self._info(arg)
            if info.is_array:
                return self._array_base(info, arg.line)
        return self._lower_expr(arg)

    def _lower_shortcircuit(self, expr: ast.BinOp) -> Operand:
        result = self._new_reg()
        left = self._lower_expr(expr.left)
        rhs_block = self.func.new_block()
        short_block = self.func.new_block()
        merge_block = self.func.new_block()
        if expr.op == "&&":
            self._emit(
                Instr(Opcode.BR, a=left, b=rhs_block.label, c=short_block.label)
            )
            short_value = 0
        else:
            self._emit(
                Instr(Opcode.BR, a=left, b=short_block.label, c=rhs_block.label)
            )
            short_value = 1
        self.block = rhs_block
        right = self._lower_expr(expr.right)
        normalized = self._binop("!=", right, ("i", 0), expr.line)
        self._emit(
            Instr(Opcode.BIN, dest=result, a="|", b=normalized, c=("i", 0),
                  line=expr.line)
        )
        self._emit(Instr(Opcode.JMP, a=merge_block.label))
        self.block = short_block
        self._emit(Instr(Opcode.CONST, dest=result, a=short_value, line=expr.line))
        self._emit(Instr(Opcode.JMP, a=merge_block.label))
        self.block = merge_block
        return ("r", result)


def _optional(lower, clause):
    """``lower(clause)`` deferred, or None for an omitted ``for`` clause."""
    return None if clause is None else (lambda: lower(clause))


def _writes_var(node: Union[ast.Stmt, ast.Block], var_id: int) -> bool:
    """Does any assignment within ``node`` target ``var_id``?"""
    if isinstance(node, ast.Assign):
        target = node.target
        if isinstance(target, ast.Var) and target.var_id == var_id:
            return True
        return False
    if isinstance(node, ast.Block):
        return any(_writes_var(s, var_id) for s in node.body)
    if isinstance(node, ast.If):
        if _writes_var(node.then_body, var_id):
            return True
        return node.else_body is not None and _writes_var(node.else_body, var_id)
    if isinstance(node, ast.While):
        return _writes_var(node.body, var_id)
    if isinstance(node, ast.For):
        return _writes_var(node.body, var_id)
    return False


def lower(program: ast.Program, symtab: SymbolTable, name: str = "module") -> Module:
    """Lower an analysed AST to a finalized Module."""
    return Lowerer(program, symtab, name).lower()


def compile_source(source: str, name: str = "module") -> Module:
    """Parse + analyse + lower MiniC source text in one call."""
    program = parse(source)
    symtab = analyze(program)
    module = lower(program, symtab, name)
    module.source = source
    return module
