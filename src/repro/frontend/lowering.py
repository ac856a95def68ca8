"""Python AST → MIR lowering.

Lowers the typed Python subset (see ``docs/FRONTEND.md``) to the same MIR
the MiniC frontend produces, so every downstream phase — profiler, CU
construction, dependence detection, suggestions, parallelize/validate —
runs unchanged on real Python functions.  Both frontends build MIR through
:class:`repro.mir.emit.MirEmitter`: every variable gets a memory home, every
access is an instrumented ``load``/``store`` carrying the *original Python
source line*, and control regions get ``enter``/``exit``/``iter`` markers.
This module keeps what is Python's own: the AST walk, name resolution,
type inference, the globals layout and the ``analyze()`` driver.

Differences from the MiniC lowering, all driven by Python semantics:

* types come from :mod:`repro.frontend.infer`, not declarations; a local
  variable is "declared" in the region of its lexically-first assignment
  (which is what makes ``acc = 0.0`` inside a loop body privatizable,
  exactly like MiniC's ``float acc = 0.0``);
* ``for i in range(...)`` evaluates its bounds *once, before* the loop
  region (CPython semantics) into registers; the loop itself goes through
  the emitter's loop skeleton in the canonical counted shape
  ``repro.parallelize.transforms`` expects (constant init store, pure
  header, 3-instruction latch), so Python loops are DOALL-transformable
  whenever the range starts at a constant;
* arithmetic uses the Python-exact opcode variants (``//``, ``/f``,
  ``%%``, ``**``) so a lowered function computes bit-identical results to
  executing the original Python — the property the parallelize validator
  and the exec-parity tests rely on;
* ``and``/``or`` short-circuit *and* preserve operand values, matching
  Python's "return the deciding operand" rule.

The module also synthesizes the ``__analyze__`` driver used by
:func:`repro.analyze`: scalar arguments become immediates and list
arguments become initialized synthetic global arrays passed by base
address, so analyzing ``fn(a, b, n)`` needs no source-level harness.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Optional

from repro.frontend.errors import FrontendError, unsupported
from repro.frontend.infer import (
    MATH_BUILTINS,
    PY_BUILTINS,
    FuncSig,
    InferenceEngine,
    array_literal_spec,
    const_eval,
    static_array_length,
    writes_name,
)
from repro.minic.sema import FuncInfo, SymbolTable, VarInfo
from repro.mir.emit import MirEmitter, Operand
from repro.mir.instructions import Instr, Opcode
from repro.mir.module import Module

#: Python operator node -> MIR bin opcode string.  Division, floor
#: division, modulo, and power use the Python-semantics variants.
BIN_OP_MAP = {
    ast.Add: "+",
    ast.Sub: "-",
    ast.Mult: "*",
    ast.Div: "/f",
    ast.FloorDiv: "//",
    ast.Mod: "%%",
    ast.Pow: "**",
    ast.LShift: "<<",
    ast.RShift: ">>",
    ast.BitAnd: "&",
    ast.BitOr: "|",
    ast.BitXor: "^",
}

CMP_OP_MAP = {
    ast.Lt: "<",
    ast.LtE: "<=",
    ast.Gt: ">",
    ast.GtE: ">=",
    ast.Eq: "==",
    ast.NotEq: "!=",
}


@dataclass
class DriverSpec:
    """Synthesize ``def __analyze__(): return entry(*args)`` at lowering."""

    entry: str
    args: tuple = ()
    name: str = "__analyze__"


@dataclass
class _GlobalDecl:
    """One lowered module-level assignment."""

    name: str
    node: ast.stmt
    is_array: bool
    #: scalar initial value, array fill value, or list of element values
    init: object
    size: int = 1


def first_bindings(body: list) -> dict:
    """Name -> the lexically-first statement that assigns it.

    Walked in source order (not ``ast.walk`` order) so the *first*
    assignment decides a local's declaration region and line.
    """
    found: dict = {}

    def bind(name: str, stmt: ast.stmt) -> None:
        if name not in found:
            found[name] = stmt

    def visit(stmt: ast.stmt) -> None:
        if isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    bind(target.id, stmt)
        elif isinstance(stmt, (ast.AugAssign, ast.AnnAssign)):
            if isinstance(stmt.target, ast.Name):
                bind(stmt.target.id, stmt)
        elif isinstance(stmt, ast.For):
            if isinstance(stmt.target, ast.Name):
                bind(stmt.target.id, stmt)
            for inner in stmt.body:
                visit(inner)
        elif isinstance(stmt, (ast.While, ast.If)):
            for inner in stmt.body:
                visit(inner)
            for inner in getattr(stmt, "orelse", []):
                visit(inner)

    for stmt in body:
        visit(stmt)
    return found


class MirBuilder(MirEmitter, ast.NodeVisitor):
    """Lowers one inferred Python module to a :class:`Module`.

    Statements dispatch through :meth:`ast.NodeVisitor.visit`; expressions
    go through :meth:`_expr` (they need value plumbing the visitor pattern
    doesn't provide).  Anything the visitor doesn't handle lands in
    :meth:`generic_visit` and raises a source-mapped diagnostic.
    """

    def __init__(
        self,
        tree: ast.Module,
        source: str,
        name: str = "module",
        filename: str = "<python>",
        driver: Optional[DriverSpec] = None,
    ) -> None:
        self.tree = tree
        self.source = source
        self.name = name
        self.filename = filename
        self.driver = driver

        self.const_env: dict = {}
        self._fn_nodes: list[ast.FunctionDef] = []
        self._global_decls: list[_GlobalDecl] = []
        self.engine = InferenceEngine(filename, self.const_env)

        self.symtab = SymbolTable()
        super().__init__(Module(name, self.symtab))
        self._next_var_id = 0
        self._global_ids: dict[str, int] = {}
        self._driver_operands: list[Operand] = []

        # per-function name resolution
        self.sig: Optional[FuncSig] = None
        self._local_ids: dict[str, int] = {}
        self._declared_ids: set = set()

    # ------------------------------------------------------------------
    # public entry
    # ------------------------------------------------------------------

    def lower(self) -> Module:
        self._scan_module()
        self._run_inference()
        self._layout_globals()
        self._declare_functions()
        for node in self._fn_nodes:
            self._lower_function(node)
        if self.driver is not None:
            self._lower_driver()
        self.symtab.n_scopes = 1 + len(self._fn_nodes) + 1
        self.module.source = self.source
        return self.module

    # ------------------------------------------------------------------
    # module scan: globals, constants, function set
    # ------------------------------------------------------------------

    def _scan_module(self) -> None:
        for stmt in self.tree.body:
            if isinstance(stmt, ast.FunctionDef):
                self._fn_nodes.append(stmt)
            elif isinstance(stmt, ast.AsyncFunctionDef):
                raise unsupported(stmt, "async function", self.filename)
            elif isinstance(stmt, (ast.Import, ast.ImportFrom)):
                continue  # calls are whitelisted; imports carry no code
            elif isinstance(stmt, ast.Assign):
                if len(stmt.targets) != 1 or not isinstance(
                    stmt.targets[0], ast.Name
                ):
                    raise unsupported(
                        stmt, "module-level assignment target", self.filename
                    )
                self._scan_global(stmt.targets[0].id, stmt.value, stmt)
            elif isinstance(stmt, ast.AnnAssign):
                if not isinstance(stmt.target, ast.Name):
                    raise unsupported(
                        stmt, "module-level assignment target", self.filename
                    )
                if stmt.value is None:
                    raise FrontendError.at(
                        stmt,
                        "module-level variables need an initializer",
                        self.filename,
                    )
                self._scan_global(stmt.target.id, stmt.value, stmt)
            elif isinstance(stmt, ast.If) and _is_main_guard(stmt.test):
                continue  # `if __name__ == "__main__":` harness
            elif isinstance(stmt, ast.Expr) and isinstance(
                stmt.value, ast.Constant
            ) and isinstance(stmt.value.value, str):
                continue  # module docstring
            else:
                raise unsupported(
                    stmt,
                    f"module-level {type(stmt).__name__.lower()} statement",
                    self.filename,
                    hint="only constants, list globals, imports, function "
                    "defs, and a __main__ guard may appear at module level",
                )

    def _scan_global(self, name: str, value: ast.expr, stmt: ast.stmt):
        if name in self._global_ids or any(
            g.name == name for g in self._global_decls
        ):
            raise FrontendError.at(
                stmt,
                f"module-level variable {name!r} assigned twice",
                self.filename,
            )
        spec = array_literal_spec(value)
        if spec is not None:
            _, init = spec
            size = static_array_length(value, self.const_env)
            if size is None or size <= 0:
                raise FrontendError.at(
                    stmt,
                    f"cannot determine a static length for array {name!r} "
                    "(use a literal or module-constant size)",
                    self.filename,
                )
            self._global_decls.append(
                _GlobalDecl(name, stmt, True, init, size)
            )
            return
        scalar = const_eval(value, self.const_env)
        if scalar is None:
            raise FrontendError.at(
                stmt,
                f"module-level initializer for {name!r} must be a "
                "compile-time constant or a flat numeric list",
                self.filename,
            )
        self.const_env[name] = scalar
        self._global_decls.append(_GlobalDecl(name, stmt, False, scalar))

    # ------------------------------------------------------------------
    # inference
    # ------------------------------------------------------------------

    def _run_inference(self) -> None:
        engine = self.engine
        for decl in self._global_decls:
            if decl.is_array:
                fill = decl.init
                values = fill if isinstance(fill, list) else [fill]
                kind = (
                    "float"
                    if any(isinstance(v, float) for v in values)
                    else "int"
                )
                cell = engine.array_cell(kind, decl.size)
            else:
                kind = "float" if isinstance(decl.init, float) else "int"
                cell = engine.fresh(kind)
            engine.declare_global(decl.name, cell)
        for node in self._fn_nodes:  # signatures first: forward calls work
            engine.declare_function(node)
        if self.driver is not None:
            self._constrain_driver()
        for node in self._fn_nodes:
            engine.infer_function(engine.sigs[node.name])
        engine.finish()

    def _constrain_driver(self) -> None:
        driver = self.driver
        sig = self.engine.sigs.get(driver.entry)
        if sig is None:
            raise FrontendError(
                f"analyze target {driver.entry!r} is not a lowered function",
                filename=self.filename,
            )
        if len(driver.args) != len(sig.params):
            raise FrontendError(
                f"{driver.entry}() expects {len(sig.params)} argument(s), "
                f"analyze() got {len(driver.args)}",
                filename=self.filename,
                line=sig.node.lineno,
            )
        for value, param in zip(driver.args, sig.params):
            if isinstance(value, list):
                if not value or not all(
                    isinstance(v, (int, float)) for v in value
                ):
                    raise FrontendError(
                        "analyze() list arguments must be non-empty and "
                        "flat numeric",
                        filename=self.filename,
                        line=sig.node.lineno,
                    )
                kind = (
                    "float"
                    if any(isinstance(v, float) for v in value)
                    else "int"
                )
                cell = self.engine.array_cell(kind, len(value))
            elif isinstance(value, (int, float)):
                kind = "float" if isinstance(value, float) else "int"
                cell = self.engine.fresh(kind)
            else:
                raise FrontendError(
                    f"analyze() argument of type {type(value).__name__} is "
                    "outside the subset (int, float, bool, flat list)",
                    filename=self.filename,
                    line=sig.node.lineno,
                )
            self.engine.unify(param, cell, sig.node, self.filename)

    # ------------------------------------------------------------------
    # symbol construction
    # ------------------------------------------------------------------

    def _new_var(self, **kwargs) -> VarInfo:
        info = VarInfo(var_id=self._next_var_id, **kwargs)
        self._next_var_id += 1
        self.symtab.variables[info.var_id] = info
        return info

    def _layout_globals(self) -> None:
        offset = 0
        for decl in self._global_decls:
            cell = self.engine.global_cells[decl.name]
            if decl.is_array:
                type_name = self.engine.elem_kind_of(cell)
            else:
                type_name = self.engine.kind_of(cell)
            info = self._new_var(
                name=decl.name,
                type_name=type_name,
                is_array=decl.is_array,
                array_size=decl.size if decl.is_array else None,
                kind="global",
                func=None,
                decl_line=decl.node.lineno,
                scope_path=(0,),
            )
            self.symtab.global_vars.append(info)
            self._global_ids[decl.name] = info.var_id
            self.module.global_offsets[info.var_id] = offset
            if decl.is_array:
                values = (
                    decl.init
                    if isinstance(decl.init, list)
                    else [decl.init] * decl.size
                )
                for i, v in enumerate(values):
                    if v != 0 or isinstance(v, float):
                        self.module.global_init[offset + i] = v
            else:
                self.module.global_init[offset] = decl.init
            offset += info.size
        if self.driver is not None:
            offset = self._layout_driver_args(offset)
        self.module.global_size = offset

    def _layout_driver_args(self, offset: int) -> int:
        """Materialize analyze() arguments; list args become globals."""
        for i, value in enumerate(self.driver.args):
            if isinstance(value, list):
                kind = (
                    "float"
                    if any(isinstance(v, float) for v in value)
                    else "int"
                )
                info = self._new_var(
                    name=f"__arg{i}",
                    type_name=kind,
                    is_array=True,
                    array_size=len(value),
                    kind="global",
                    func=None,
                    decl_line=0,
                    scope_path=(0,),
                )
                self.symtab.global_vars.append(info)
                self.module.global_offsets[info.var_id] = offset
                for j, v in enumerate(value):
                    if v != 0 or isinstance(v, float):
                        self.module.global_init[offset + j] = v
                self._driver_operands.append(("i", offset))
                offset += len(value)
            else:
                self._driver_operands.append(
                    ("i", int(value) if isinstance(value, bool) else value)
                )
        return offset

    def _declare_functions(self) -> None:
        for scope, node in enumerate(self._fn_nodes, start=1):
            sig = self.engine.sigs[node.name]
            finfo = FuncInfo(
                node.name,
                self.engine.kind_of(sig.ret),
                [],
                node,
            )
            self.symtab.functions[node.name] = finfo
            for arg, cell in zip(node.args.args, sig.params):
                kind = self.engine.kind_of(cell)
                finfo.params.append(
                    self._new_var(
                        name=arg.arg,
                        type_name=(
                            self.engine.elem_kind_of(cell)
                            if kind == "array"
                            else kind
                        ),
                        is_array=kind == "array",
                        array_size=self.engine.size_of(cell),
                        kind="param",
                        func=node.name,
                        decl_line=arg.lineno,
                        scope_path=(0, scope),
                    )
                )
            bindings = first_bindings(node.body)
            for name in sorted(
                sig.local_names,
                key=lambda n: (getattr(bindings.get(n), "lineno", 0), n),
            ):
                cell = sig.cells[name]
                kind = self.engine.kind_of(cell)
                if kind == "array":
                    anchor = bindings.get(name, node)
                    raise FrontendError.at(
                        anchor,
                        f"local list variable {name!r} is unsupported "
                        "(declare arrays at module level or pass them as "
                        "parameters)",
                        self.filename,
                    )
                finfo.local_vars.append(
                    self._new_var(
                        name=name,
                        type_name=kind,
                        is_array=False,
                        array_size=None,
                        kind="local",
                        func=node.name,
                        decl_line=getattr(
                            bindings.get(name), "lineno", node.lineno
                        ),
                        scope_path=(0, scope),
                    )
                )

    # ------------------------------------------------------------------
    # variable access
    # ------------------------------------------------------------------

    def _var_info(self, name: str, node: ast.AST) -> VarInfo:
        if name in self._local_ids:
            return self.symtab.variables[self._local_ids[name]]
        if name in self._global_ids and name not in self.sig.local_names:
            return self.symtab.variables[self._global_ids[name]]
        raise FrontendError.at(
            node, f"undefined variable {name!r}", self.filename
        )

    def _store(self, info: VarInfo, line: int, value: Operand, memref=None):
        if info.kind == "local" and info.var_id not in self._declared_ids:
            # Python locals are function-scoped; the region of the
            # lexically-first assignment is the declaration region, which
            # is what makes loop-body temporaries privatizable.
            self._declared_ids.add(info.var_id)
            self._record_decl(info.var_id)
        super()._store(info, line, value, memref)

    def _subscript_parts(self, node: ast.Subscript):
        """(VarInfo, element memref) for ``name[index]``."""
        base = node.value
        if not isinstance(base, ast.Name):
            raise unsupported(
                node, "subscript of a non-name expression", self.filename
            )
        info = self._var_info(base.id, base)
        if not info.is_array:
            raise FrontendError.at(
                node, f"{base.id!r} is not an array", self.filename
            )
        idx = self._expr(node.slice)
        return info, self._element_memref(info, idx, node.lineno)

    # ------------------------------------------------------------------
    # functions
    # ------------------------------------------------------------------

    def _lower_function(self, node: ast.FunctionDef) -> None:
        finfo = self.symtab.functions[node.name]
        self.sig = self.engine.sigs[node.name]
        self._declared_ids = set()
        self._local_ids = {p.name: p.var_id for p in finfo.params}
        self._local_ids.update({v.name: v.var_id for v in finfo.local_vars})
        with self._function(
            node.name,
            finfo.params,
            finfo.local_vars,
            finfo.return_type,
            node.lineno,
            node.end_lineno or node.lineno,
        ):
            self._lower_body(node.body)
        self.sig = None

    def _lower_driver(self) -> None:
        driver = self.driver
        with self._function(driver.name, [], [], "int"):
            result = self._emit_call(
                Opcode.CALL, driver.entry, list(self._driver_operands), 0
            )
            self._emit(Instr(Opcode.RET, a=result))

    # ------------------------------------------------------------------
    # statements (NodeVisitor dispatch)
    # ------------------------------------------------------------------

    def _lower_body(self, stmts) -> None:
        for stmt in stmts:
            self.visit(stmt)

    def generic_visit(self, node):
        raise unsupported(
            node,
            type(node).__name__.lower(),
            self.filename,
            hint="outside the lowered Python subset",
        )

    def visit_Pass(self, node):
        return None

    def visit_Global(self, node):
        return None  # scoping already resolved during inference

    def visit_Expr(self, node):
        value = node.value
        if isinstance(value, ast.Constant) and isinstance(value.value, str):
            return None  # docstring
        if isinstance(value, ast.Call):
            self._call(value, want_value=False)
            return None
        raise unsupported(
            node, "expression statement without effect", self.filename
        )

    def visit_Assign(self, node):
        if len(node.targets) != 1:
            raise unsupported(
                node, "chained assignment (x = y = ...)", self.filename
            )
        target = node.targets[0]
        if array_literal_spec(node.value) is not None or isinstance(
            node.value, (ast.List, ast.ListComp)
        ):
            raise unsupported(
                node,
                "list construction inside a function",
                self.filename,
                hint="declare arrays at module level or pass them as "
                "parameters",
            )
        value = self._expr(node.value)  # Python order: RHS first
        if isinstance(target, ast.Name):
            info = self._var_info(target.id, target)
            if info.is_array:
                raise unsupported(
                    node,
                    "rebinding an array variable",
                    self.filename,
                )
            self._store(info, node.lineno, value)
        elif isinstance(target, ast.Subscript):
            info, memref = self._subscript_parts(target)
            self._store(info, node.lineno, value, memref)
        else:
            raise unsupported(node, "assignment target", self.filename)

    def visit_AnnAssign(self, node):
        if not isinstance(node.target, ast.Name):
            raise unsupported(
                node, "annotated non-name target", self.filename
            )
        if node.value is None:
            return None  # bare `x: int` declares nothing in MIR
        value = self._expr(node.value)
        info = self._var_info(node.target.id, node.target)
        self._store(info, node.lineno, value)

    def visit_AugAssign(self, node):
        op = BIN_OP_MAP.get(type(node.op))
        if op is None:
            raise unsupported(
                node,
                f"augmented operator {type(node.op).__name__}",
                self.filename,
            )
        target = node.target
        if isinstance(target, ast.Name):
            info, memref = self._var_info(target.id, target), None
        elif isinstance(target, ast.Subscript):
            # evaluate the element address once (CPython semantics)
            info, memref = self._subscript_parts(target)
        else:
            raise unsupported(
                node, "augmented assignment target", self.filename
            )
        rhs = lambda: self._expr(node.value)  # noqa: E731
        self._update(info, op, rhs, node.lineno, memref)

    def visit_If(self, node):
        self._branch(
            node.lineno,
            node.end_lineno or node.lineno,
            lambda: self._expr(node.test),
            node.body,
            node.orelse or None,
        )

    def visit_While(self, node):
        if node.orelse:
            raise unsupported(node, "while/else", self.filename)
        self._loop(
            node.lineno,
            node.end_lineno or node.lineno,
            node.body,
            cond=lambda: self._expr(node.test),
        )

    def visit_For(self, node):
        if node.orelse:
            raise unsupported(node, "for/else", self.filename)
        if not isinstance(node.target, ast.Name):
            raise unsupported(
                node, "tuple unpacking in a for target", self.filename
            )
        call = node.iter
        if not (
            isinstance(call, ast.Call)
            and isinstance(call.func, ast.Name)
            and call.func.id == "range"
        ):
            raise unsupported(
                node,
                "iteration over a non-range iterable",
                self.filename,
                hint="only `for i in range(...)` loops lower to MIR",
            )
        args = call.args
        if len(args) == 1:
            start_node, stop_node, step_node = None, args[0], None
        elif len(args) == 2:
            start_node, stop_node, step_node = args[0], args[1], None
        else:
            start_node, stop_node, step_node = args
        step = 1
        if step_node is not None:
            step = const_eval(step_node, self.const_env)
            if not isinstance(step, int) or step == 0:
                raise FrontendError.at(
                    step_node,
                    "range() step must be a nonzero compile-time constant",
                    self.filename,
                )

        # CPython evaluates range() bounds exactly once, before the first
        # iteration — lower them *outside* the loop region.  Registers are
        # stable across iterations (and are copied into DOALL chunk
        # frames), so the header can re-test against them purely.
        start_op = (
            ("i", 0) if start_node is None else self._expr(start_node)
        )
        stop_op = self._expr(stop_node)

        info = self._var_info(node.target.id, node.target)
        line = node.lineno
        # the counted shape: `i = start` after ENTER, a header that only
        # compares the counter with the stop register, `i += step` in the
        # latch
        self._loop(
            line,
            node.end_lineno or line,
            node.body,
            cond=lambda: self._binop(
                "<" if step > 0 else ">",
                self._load(info, line),
                stop_op,
                line,
            ),
            init=lambda: self._store(info, line, start_op),
            step=lambda: self._update(info, "+", lambda: ("i", step), line),
            iter_var=info.var_id,
            iter_var_written_in_body=any(
                writes_name(s, node.target.id) for s in node.body
            ),
        )

    def visit_Return(self, node):
        operand = (
            self._expr(node.value) if node.value is not None else None
        )
        self._terminate(Instr(Opcode.RET, a=operand, line=node.lineno))

    def visit_Break(self, node):
        self._terminate(Instr(Opcode.JMP, a=self._innermost(node).exit_label))

    def visit_Continue(self, node):
        self._terminate(
            Instr(Opcode.JMP, a=self._innermost(node).latch_label)
        )

    def _innermost(self, node):
        if not self._loop_stack:
            word = type(node).__name__.lower()
            raise FrontendError.at(
                node, f"{word} outside a loop", self.filename
            )
        return self._loop_stack[-1]

    # ------------------------------------------------------------------
    # expressions
    # ------------------------------------------------------------------

    def _expr(self, node: ast.expr) -> Operand:
        if isinstance(node, ast.Constant):
            value = node.value
            if isinstance(value, bool):
                return ("i", int(value))
            if isinstance(value, (int, float)):
                return ("i", value)
            raise unsupported(
                node, f"{type(value).__name__} literal", self.filename
            )
        if isinstance(node, ast.Name):
            info = self._var_info(node.id, node)
            if info.is_array:
                return self._array_base(info, node.lineno)
            return self._load(info, node.lineno)
        if isinstance(node, ast.Subscript):
            info, memref = self._subscript_parts(node)
            return self._load(info, node.lineno, memref)
        if isinstance(node, ast.BinOp):
            op = BIN_OP_MAP.get(type(node.op))
            if op is None:
                raise unsupported(
                    node,
                    f"operator {type(node.op).__name__}",
                    self.filename,
                )
            left = self._expr(node.left)
            right = self._expr(node.right)
            return self._binop(op, left, right, node.lineno)
        if isinstance(node, ast.UnaryOp):
            if isinstance(node.op, ast.UAdd):
                return self._expr(node.operand)
            op = {ast.USub: "-", ast.Not: "!", ast.Invert: "~"}.get(
                type(node.op)
            )
            if op is None:
                raise unsupported(
                    node,
                    f"operator {type(node.op).__name__}",
                    self.filename,
                )
            return self._unop(op, self._expr(node.operand), node.lineno)
        if isinstance(node, ast.BoolOp):
            return self._bool_op(node)
        if isinstance(node, ast.Compare):
            if len(node.ops) != 1:
                raise unsupported(
                    node,
                    "chained comparison",
                    self.filename,
                    hint="split `a < b < c` into `a < b and b < c`",
                )
            op = CMP_OP_MAP.get(type(node.ops[0]))
            if op is None:
                raise unsupported(
                    node,
                    f"comparison {type(node.ops[0]).__name__}",
                    self.filename,
                )
            left = self._expr(node.left)
            right = self._expr(node.comparators[0])
            return self._binop(op, left, right, node.lineno)
        if isinstance(node, ast.Call):
            return self._call(node, want_value=True)
        raise unsupported(node, type(node).__name__, self.filename)

    def _bool_op(self, node: ast.BoolOp) -> Operand:
        """Short-circuit ``and``/``or`` preserving operand values.

        Python returns the deciding operand itself (``0.0 or 3`` is 3,
        ``2 and 5`` is 5) — each evaluated operand is copied into the
        result register before the truthiness branch.
        """
        result = self._new_reg()
        is_and = isinstance(node.op, ast.And)
        merge = self.func.new_block()
        for i, value_node in enumerate(node.values):
            value = self._expr(value_node)
            # value-preserving copy into the shared result register
            self._emit(
                Instr(Opcode.BIN, dest=result, a="+", b=value, c=("i", 0),
                      line=node.lineno)
            )
            if i < len(node.values) - 1:
                nxt = self.func.new_block()
                if is_and:
                    self._emit(
                        Instr(Opcode.BR, a=("r", result), b=nxt.label,
                              c=merge.label)
                    )
                else:
                    self._emit(
                        Instr(Opcode.BR, a=("r", result), b=merge.label,
                              c=nxt.label)
                    )
                self.block = nxt
        self._emit(Instr(Opcode.JMP, a=merge.label))
        self.block = merge
        return ("r", result)

    # ------------------------------------------------------------------
    # calls
    # ------------------------------------------------------------------

    def _call(self, node: ast.Call, want_value: bool = True) -> Operand:
        if node.keywords:
            raise unsupported(node, "keyword arguments", self.filename)
        func = node.func
        line = node.lineno
        if isinstance(func, ast.Attribute):
            if (
                isinstance(func.value, ast.Name)
                and func.value.id == "math"
                and func.attr in MATH_BUILTINS
            ):
                builtin, _, _ = MATH_BUILTINS[func.attr]
                args = [self._expr(arg) for arg in node.args]
                return self._emit_call(
                    Opcode.CALLB, builtin, args, line, want_value
                )
            raise unsupported(
                node, "method / attribute call", self.filename,
                hint="only math.<fn> attribute calls are lowered",
            )
        if not isinstance(func, ast.Name):
            raise unsupported(node, "indirect call", self.filename)
        name = func.id
        if name in self.symtab.functions:
            args = [self._call_arg(arg) for arg in node.args]
            return self._emit_call(Opcode.CALL, name, args, line, want_value)
        if name in PY_BUILTINS:
            return self._py_builtin(node, name, want_value)
        raise FrontendError.at(
            node,
            f"call to unknown function {name!r} (not a lowered function, "
            "not a supported builtin)",
            self.filename,
        )

    def _call_arg(self, arg: ast.expr) -> Operand:
        """Arrays pass by base address; everything else by value."""
        if isinstance(arg, ast.Name):
            info = self._var_info(arg.id, arg)
            if info.is_array:
                return self._array_base(info, arg.lineno)
        return self._expr(arg)

    def _py_builtin(self, node: ast.Call, name: str, want_value: bool):
        line = node.lineno
        if name == "range":
            raise FrontendError.at(
                node,
                "range() is only supported as a for-loop iterator",
                self.filename,
            )
        if name == "len":
            arg = node.args[0] if len(node.args) == 1 else None
            if not isinstance(arg, ast.Name):
                raise unsupported(
                    node, "len() of a non-name expression", self.filename
                )
            info = self._var_info(arg.id, arg)
            if not info.is_array or info.array_size is None:
                raise FrontendError.at(
                    node,
                    f"len({arg.id}) needs a statically sized array "
                    "(lengths flow from module-level sizes and analyze() "
                    "arguments)",
                    self.filename,
                )
            return ("i", info.array_size)
        if name == "print":
            args = [self._expr(arg) for arg in node.args]
            return self._emit_call(Opcode.CALLB, "print", args, line,
                                   want_value)
        if name == "bool":
            value = self._expr(node.args[0])
            return self._binop("!=", value, ("i", 0), line)
        if name in ("int", "float", "abs"):
            builtin = {"int": "__int", "float": "__float"}.get(name, name)
            value = self._expr(node.args[0])
            return self._emit_call(Opcode.CALLB, builtin, [value], line)
        if name == "pow":
            left = self._expr(node.args[0])
            right = self._expr(node.args[1])
            return self._binop("**", left, right, line)
        if name in ("min", "max"):
            result = self._expr(node.args[0])
            for arg in node.args[1:]:  # n-ary folds to binary builtins
                value = self._expr(arg)
                result = self._emit_call(
                    Opcode.CALLB, name, [result, value], line
                )
            return result
        raise unsupported(node, f"builtin {name}", self.filename)


# ---------------------------------------------------------------------------
# public entry points
# ---------------------------------------------------------------------------


def _is_main_guard(test: ast.expr) -> bool:
    """Matches ``__name__ == "__main__"`` (either operand order)."""
    if not (isinstance(test, ast.Compare) and len(test.ops) == 1
            and isinstance(test.ops[0], ast.Eq)):
        return False
    operands = [test.left] + test.comparators
    return any(
        isinstance(o, ast.Name) and o.id == "__name__" for o in operands
    )


def compile_python_source(
    source: str,
    name: str = "module",
    filename: str = "<python>",
    first_line: int = 1,
    driver: Optional[DriverSpec] = None,
) -> Module:
    """Parse + infer + lower Python source text to a finalized Module.

    ``first_line`` shifts all AST line numbers so diagnostics and the
    instrumented MIR point at the original file position when ``source``
    is an extracted function body (the :func:`repro.analyze` path).
    """
    try:
        tree = ast.parse(source)
    except SyntaxError as exc:
        raise FrontendError(
            f"syntax error: {exc.msg}",
            filename=filename,
            line=(exc.lineno or 1) + first_line - 1,
            col=exc.offset,
        ) from None
    if first_line != 1:
        ast.increment_lineno(tree, first_line - 1)
    builder = MirBuilder(
        tree, source, name=name, filename=filename, driver=driver
    )
    return builder.lower()
