"""MIR emission shared by both frontends.

:class:`MirEmitter` owns everything the clang ``-O0`` shape fixes,
whichever source language is being lowered: registers, static memory
-operation ids and ``module.mem_ops``, basic blocks, control regions with
their ``globalVars`` sets, instrumented loads/stores, the function frame,
and one skeleton each for a branch and a loop.  A frontend subclasses it,
walks its own AST, resolves its own names to :class:`VarInfo` records,
and lowers statement lists through :meth:`MirEmitter._lower_body`.

The loop skeleton is the canonical counted-loop shape
:func:`repro.parallelize.transforms._loop_shape` chunks: ``enter``, the
init code, a jump into a header that only evaluates the condition and
branches to body or exit, the body, a latch holding the step code,
``iter`` and the back edge, and ``exit`` in the exit block.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional

from repro.minic.sema import VarInfo
from repro.mir.instructions import BINOPS, UNOPS, Instr, Opcode
from repro.mir.module import BasicBlock, Function, Module, Region

Operand = tuple  # ('i', value) | ('r', idx)


@dataclass
class _LoopContext:
    """Targets for break/continue inside the innermost loop."""

    latch_label: int
    exit_label: int


@dataclass
class _RegionVars:
    """Accumulated variable usage while lowering one region."""

    declared: set[int] = field(default_factory=set)
    read: set[int] = field(default_factory=set)
    written: set[int] = field(default_factory=set)


class MirEmitter:
    """Builds one :class:`Module`; subclasses supply the AST walk."""

    def __init__(self, module: Module) -> None:
        self.module = module
        self._next_region_id = 1
        self._next_op_id = 0
        # per-function state
        self.func: Optional[Function] = None
        self.block: Optional[BasicBlock] = None
        self._loop_stack: list[_LoopContext] = []
        self._region_var_stack: list[_RegionVars] = []
        self._region_stack: list[int] = []

    def _lower_body(self, stmts) -> None:
        """Lower a list of source statements into the current block."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # registers, blocks, variable usage
    # ------------------------------------------------------------------

    def _new_reg(self) -> int:
        reg = self.func.n_regs
        self.func.n_regs += 1
        return reg

    def _new_op_id(self, instr: Instr) -> int:
        op_id = self._next_op_id
        self._next_op_id += 1
        instr.op_id = op_id
        self.module.mem_ops[op_id] = instr
        return op_id

    def _emit(self, instr: Instr) -> Instr:
        self.block.append(instr)
        return instr

    def _start_block(self) -> BasicBlock:
        self.block = self.func.new_block()
        return self.block

    def _jump_to_new_block(self) -> BasicBlock:
        """Terminate the current block with a jump into a fresh block."""
        new = self.func.new_block()
        if self.block.terminator is None:
            self._emit(Instr(Opcode.JMP, a=new.label))
        self.block = new
        return new

    def _terminate(self, instr: Instr) -> None:
        """Emit ``ret``/``break``/``continue``; any trailing code lands in
        a fresh, unreachable block."""
        self._emit(instr)
        self._start_block()

    def _record_read(self, var_id: int) -> None:
        for rv in self._region_var_stack:
            rv.read.add(var_id)

    def _record_write(self, var_id: int) -> None:
        for rv in self._region_var_stack:
            rv.written.add(var_id)

    def _record_decl(self, var_id: int) -> None:
        if self._region_var_stack:
            self._region_var_stack[-1].declared.add(var_id)

    # ------------------------------------------------------------------
    # regions
    # ------------------------------------------------------------------

    def _open_region(
        self, kind: str, start_line: int, end_line: int
    ) -> tuple[Region, _RegionVars]:
        region = Region(
            region_id=self._next_region_id,
            kind=kind,
            func=self.func.name if self.func else "<module>",
            start_line=start_line,
            end_line=end_line,
            parent=self._region_stack[-1] if self._region_stack else None,
        )
        self._next_region_id += 1
        self.module.add_region(region)
        rv = _RegionVars()
        self._region_stack.append(region.region_id)
        self._region_var_stack.append(rv)
        return region, rv

    def _close_region(self, region: Region, rv: _RegionVars) -> None:
        self._region_stack.pop()
        self._region_var_stack.pop()
        region.declared_vars = frozenset(rv.declared)
        region.read_vars = frozenset(rv.read)
        region.written_vars = frozenset(rv.written)
        # variables used in the region but declared outside it
        used = rv.read | rv.written
        region.global_vars = frozenset(used - rv.declared)
        # propagate declarations of nested scopes upward so an enclosing
        # region sees nested declarations as its own locals
        if self._region_var_stack:
            self._region_var_stack[-1].declared.update(rv.declared)

    # ------------------------------------------------------------------
    # memory access
    # ------------------------------------------------------------------

    def _load(self, info: VarInfo, line: int, memref=None) -> Operand:
        """Instrumented load of ``memref``, or of the scalar ``info``."""
        dest = self._new_reg()
        load = Instr(
            Opcode.LOAD,
            dest=dest,
            a=memref or self._scalar_memref(info),
            line=line,
            var=info.name,
            var_id=info.var_id,
        )
        self._new_op_id(load)
        self._emit(load)
        self._record_read(info.var_id)
        return ("r", dest)

    def _store(
        self, info: VarInfo, line: int, value: Operand, memref=None
    ) -> None:
        """Instrumented store to ``memref``, or to the scalar ``info``."""
        store = Instr(
            Opcode.STORE,
            a=memref or self._scalar_memref(info),
            b=value,
            line=line,
            var=info.name,
            var_id=info.var_id,
        )
        self._new_op_id(store)
        self._emit(store)
        self._record_write(info.var_id)

    def _update(
        self,
        info: VarInfo,
        op: str,
        rhs: Callable[[], Operand],
        line: int,
        memref=None,
    ) -> None:
        """``x op= rhs``: one load, ``rhs()``, the operator, one store;
        an element's ``memref`` serves both, so its address is computed
        once."""
        current = self._load(info, line, memref)
        self._store(info, line, self._binop(op, current, rhs(), line), memref)

    def _scalar_memref(self, info: VarInfo):
        if info.kind == "global":
            return ("g", self.module.global_offsets[info.var_id])
        return ("f", self.func.frame_slots[info.var_id])

    def _array_base(self, info: VarInfo, line: int) -> Operand:
        """Operand holding the absolute base address of an array."""
        if not info.is_array:  # a scalar holding an address (alloc())
            return self._load(info, line)
        if info.kind == "param":
            index = [p.var_id for p in self.func.params].index(info.var_id)
            return ("r", self.func.param_regs[index])
        if info.kind == "global":
            return ("i", self.module.global_offsets[info.var_id])
        dest = self._new_reg()  # local array: frame-relative
        self._emit(
            Instr(
                Opcode.ADDR,
                dest=dest,
                a="f",
                b=self.func.frame_slots[info.var_id],
                c=("i", 0),
                line=line,
            )
        )
        return ("r", dest)

    def _element_memref(self, info: VarInfo, idx: Operand, line: int):
        """Memref for ``info[idx]``; folds constant global indexing."""
        if info.kind == "global" and info.is_array and idx[0] == "i":
            return ("g", self.module.global_offsets[info.var_id] + idx[1])
        base = self._array_base(info, line)
        dest = self._new_reg()
        space = "g" if base[0] == "i" else "r"
        self._emit(
            Instr(Opcode.ADDR, dest=dest, a=space, b=base[1], c=idx, line=line)
        )
        return ("a", dest)

    # ------------------------------------------------------------------
    # arithmetic and calls
    # ------------------------------------------------------------------

    def _binop(self, op: str, left: Operand, right: Operand, line: int) -> Operand:
        if left[0] == "i" and right[0] == "i":
            try:
                return ("i", BINOPS[op](left[1], right[1]))
            except (ZeroDivisionError, ValueError, OverflowError):
                pass  # fold nothing: the program fails if this runs
        dest = self._new_reg()
        self._emit(Instr(Opcode.BIN, dest=dest, a=op, b=left, c=right, line=line))
        return ("r", dest)

    def _unop(self, op: str, operand: Operand, line: int) -> Operand:
        if operand[0] == "i":
            return ("i", UNOPS[op](operand[1]))
        dest = self._new_reg()
        self._emit(Instr(Opcode.UN, dest=dest, a=op, b=operand, line=line))
        return ("r", dest)

    def _emit_call(
        self, opcode: str, name: str, args: list, line: int,
        want_value: bool = True,
    ) -> Operand:
        """``call``/``callb``/``spawn``; a discarded result takes no
        register and reads as ``('i', 0)``."""
        dest = self._new_reg() if want_value else None
        self._emit(Instr(opcode, dest=dest, a=name, b=args, line=line))
        return ("r", dest) if dest is not None else ("i", 0)

    # ------------------------------------------------------------------
    # functions, branches, loops
    # ------------------------------------------------------------------

    @contextmanager
    def _function(
        self,
        name: str,
        params: list[VarInfo],
        local_vars: list[VarInfo],
        return_type: str,
        start_line: int = 0,
        end_line: int = 0,
    ) -> Iterator[Function]:
        """One function: frame, ``func`` region and argument spills; the
        ``with`` body lowers the statements, then a ``ret`` closes any
        fall-through path."""
        func = Function(name, params, return_type)
        func.start_line = start_line
        func.end_line = end_line
        self.module.functions[name] = func
        self.func = func
        self._loop_stack = []
        region, rv = self._open_region("func", start_line, end_line)
        func.region_id = region.region_id

        # Frame layout: scalar params and all locals get slots; array params
        # get an incoming base-address register.
        func.n_regs = len(params)  # regs 0..n-1 hold incoming args
        offset = 0
        for i, pinfo in enumerate(params):
            if pinfo.is_array:
                func.param_regs.append(i)
            else:
                func.param_regs.append(None)
                func.frame_slots[pinfo.var_id] = offset
                offset += 1
        for linfo in local_vars:
            func.frame_slots[linfo.var_id] = offset
            offset += linfo.size
        func.frame_size = offset

        self._start_block()
        # Prologue: spill scalar arguments into their frame slots.  These are
        # instrumented writes — the paper's CU rules put parameters in the
        # read set; the profiler sees the argument stores as INIT writes.
        for i, pinfo in enumerate(params):
            if not pinfo.is_array:
                slot = ("f", func.frame_slots[pinfo.var_id])
                self._store(pinfo, pinfo.decl_line, ("r", i), slot)
            self._record_decl(pinfo.var_id)

        yield func

        if self.block.terminator is None:
            self._emit(Instr(Opcode.RET, a=None, line=end_line))
        self._close_region(region, rv)
        func.finalize()
        self.func = None
        self.block = None

    def _lower_arm(self, block: BasicBlock, stmts, next_label: int) -> None:
        """Lower ``stmts`` into ``block``, falling through to ``next_label``."""
        self.block = block
        self._lower_body(stmts)
        if self.block.terminator is None:
            self._emit(Instr(Opcode.JMP, a=next_label))

    def _branch(
        self,
        line: int,
        end_line: int,
        cond: Callable[[], Operand],
        then_body,
        else_body=None,
    ) -> None:
        """``if cond() then_body [else else_body]`` as a branch region."""
        region, rv = self._open_region("branch", line, end_line)
        self._emit(Instr(Opcode.ENTER, a=region.region_id, line=line))
        test = cond()
        then_block = self.func.new_block()
        merge_block = self.func.new_block()
        else_block = merge_block
        if else_body is not None:
            else_block = self.func.new_block()
        self._emit(
            Instr(Opcode.BR, a=test, b=then_block.label, c=else_block.label)
        )
        self._lower_arm(then_block, then_body, merge_block.label)
        if else_body is not None:
            self._lower_arm(else_block, else_body, merge_block.label)
        self.block = merge_block
        self._emit(Instr(Opcode.EXIT, a=region.region_id, line=end_line))
        self._close_region(region, rv)

    def _loop(
        self,
        line: int,
        end_line: int,
        body,
        cond: Optional[Callable[[], Operand]] = None,
        init: Optional[Callable[[], None]] = None,
        step: Optional[Callable[[], None]] = None,
        iter_var: Optional[int] = None,
        iter_var_written_in_body: bool = False,
    ) -> None:
        """One loop region: ``init()`` after ``enter``, a header that only
        tests ``cond()`` (no condition loops forever), ``body``, and a
        latch running ``step()`` before ``iter`` and the back edge."""
        region, rv = self._open_region("loop", line, end_line)
        region.iter_var = iter_var
        region.iter_var_written_in_body = iter_var_written_in_body
        self._emit(Instr(Opcode.ENTER, a=region.region_id, line=line))
        if init is not None:
            init()
        header = self._jump_to_new_block()
        body_block = self.func.new_block()
        latch_block = self.func.new_block()
        exit_block = self.func.new_block()
        if cond is not None:
            test = cond()
            self._emit(
                Instr(Opcode.BR, a=test, b=body_block.label, c=exit_block.label)
            )
        else:
            self._emit(Instr(Opcode.JMP, a=body_block.label))
        self._loop_stack.append(
            _LoopContext(latch_block.label, exit_block.label)
        )
        self._lower_arm(body_block, body, latch_block.label)
        self.block = latch_block
        if step is not None:
            step()
        self._emit(Instr(Opcode.ITER, a=region.region_id, line=line))
        self._emit(Instr(Opcode.JMP, a=header.label))
        self._loop_stack.pop()
        self.block = exit_block
        self._emit(Instr(Opcode.EXIT, a=region.region_id, line=end_line))
        self._close_region(region, rv)
