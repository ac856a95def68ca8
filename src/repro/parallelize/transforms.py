"""Suggestion-driven MIR transform passes.

Two outlining passes turn ranked suggestions into executable parallel form,
each producing new functions in a *cloned* module (the original module is
never mutated — it remains the sequential reference):

**DOALL iteration chunking** — a canonical counted loop
(``for (i = c0; cond; i += s)``) is split into ``n_workers`` chunk
functions.  Each chunk function contains a fresh init (``i = lo_k``), a
synthesized bound check (``i < hi_k``) and a copy of the loop's body and
latch blocks.  The loop's ``enter`` marker in the parent function is
replaced by a ``pfork`` instruction; at run time the scheduler forks one
task per chunk with a *privatized copy of the parent frame* (every local —
scalars, nested-loop counters, temporaries — becomes chunk-private, the
transform analogue of OpenMP ``private``) and a snapshot of the parent's
registers (array-parameter base addresses).  Recognized reductions are
merged at the join (``v0 + Σ(v_k − v0)`` in chunk order); privatized
scalars follow ``lastprivate`` semantics (the last chunk's final value
survives); global scalar reductions/privates are redirected to fresh frame
slots with a copy-in prologue so chunks never race on them.

**Task-region outlining** — an MPMD task graph over a container region is
outlined one function per task node: the instructions attributed to the
node's source lines are copied, task-boundary control flow is rewritten to
return, and the container's region start is replaced by a ``ptask``
instruction.  Task functions *share* the parent frame (tasks communicate
through it, exactly like the sequential code) and the scheduler honors the
task graph's spawn/join edges, which come from the profiled dependence
store.

Both passes are conservative: any shape they cannot prove safe (non-unit
loop structure, returns inside the region, a loop split across task
nodes, register values flowing across task boundaries, un-privatizable
shared state) yields an *infeasible* plan
entry with the reason recorded, never a silently wrong transform.  The
validation harness (:mod:`repro.parallelize.validate`) is the final net:
every applied transform is checked bit-for-bit against the sequential run.
"""

from __future__ import annotations

from typing import Optional

from repro.discovery.suggestions import Suggestion
from repro.mir.instructions import Instr, Opcode
from repro.mir.module import Function, Module, Region
from repro.parallelize.plan import (
    ChunkSpec,
    DoallPlan,
    TaskPlan,
    TaskSpec,
    TransformPlan,
)

#: opcodes that may not appear inside outlined code
_FORBIDDEN = {
    Opcode.RET,
    Opcode.SPAWN,
    Opcode.JOIN,
    Opcode.LOCK,
    Opcode.UNLOCK,
    Opcode.PFORK,
    Opcode.PTASK,
}

#: header-block opcodes allowed before the bound check we replace
_PURE_OPS = {Opcode.LOAD, Opcode.BIN, Opcode.UN, Opcode.CONST, Opcode.ADDR}

#: builtins whose results depend on global execution order — running them
#: concurrently would diverge from the sequential reference by construction
_UNSAFE_BUILTINS = {"rand", "rand_", "alloc", "free"}


def _check_outlinable(instr: Instr) -> None:
    if instr.op in _FORBIDDEN:
        raise Infeasible(
            f"outlined code contains {instr.op!r} at line {instr.line}"
        )
    if instr.op == Opcode.CALLB and instr.a in _UNSAFE_BUILTINS:
        raise Infeasible(
            f"outlined code calls order-sensitive builtin {instr.a!r} "
            f"at line {instr.line}"
        )


class Infeasible(Exception):
    """Raised by the outliners when a shape cannot be transformed safely."""


# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------


def _copy_instr(instr: Instr) -> Instr:
    b = list(instr.b) if isinstance(instr.b, list) else instr.b
    return Instr(
        instr.op,
        dest=instr.dest,
        a=instr.a,
        b=b,
        c=instr.c,
        line=instr.line,
        var=instr.var,
        var_id=instr.var_id,
        op_id=instr.op_id,
    )


def _clone_function(func: Function, code: Optional[list] = None) -> Function:
    clone = Function(func.name, func.params, func.return_type)
    clone.frame_slots = dict(func.frame_slots)
    clone.frame_size = func.frame_size
    clone.n_regs = func.n_regs
    clone.param_regs = list(func.param_regs)
    clone.code = list(func.code) if code is None else code
    clone.block_starts = dict(func.block_starts)
    clone.region_id = func.region_id
    clone.start_line = func.start_line
    clone.end_line = func.end_line
    return clone


def _clone_module(module: Module) -> Module:
    """Shallow module clone: untouched functions and the region tree are
    shared (read-only); the functions dict and mem-ops table are private so
    the pass can add outlined functions without mutating the original."""
    clone = Module(module.name, module.symtab, module.file_id)
    clone.functions = dict(module.functions)
    clone.global_offsets = dict(module.global_offsets)
    clone.global_init = dict(module.global_init)
    clone.global_size = module.global_size
    clone.regions = module.regions
    clone.mem_ops = dict(module.mem_ops)
    clone.source = module.source
    return clone


def _fresh_op_id(module: Module) -> int:
    op_id = max(module.mem_ops, default=-1) + 1
    return op_id


def _leaders(func: Function) -> list[int]:
    return sorted(set(func.block_starts.values()))


def _block_of(leaders: list[int], idx: int) -> tuple[int, int]:
    """(start, end) of the basic block containing code index ``idx``."""
    import bisect

    pos = bisect.bisect_right(leaders, idx) - 1
    start = leaders[pos]
    end = leaders[pos + 1] if pos + 1 < len(leaders) else None
    return start, end


def _find_marker(code: list, op: str, region_id: int) -> int:
    for i, instr in enumerate(code):
        if instr.op == op and instr.a == region_id:
            return i
    raise Infeasible(f"no {op} marker for region {region_id}")


def _operand_regs(operand) -> list[int]:
    if isinstance(operand, tuple) and operand and operand[0] == "r":
        return [operand[1]]
    return []


def _reg_uses(instr: Instr) -> list[int]:
    """Registers an instruction reads."""
    uses: list[int] = []
    op = instr.op
    if op == Opcode.LOAD:
        if instr.a[0] == "a":
            uses.append(instr.a[1])
    elif op == Opcode.STORE:
        if instr.a[0] == "a":
            uses.append(instr.a[1])
        uses.extend(_operand_regs(instr.b))
    elif op == Opcode.BIN:
        uses.extend(_operand_regs(instr.b))
        uses.extend(_operand_regs(instr.c))
    elif op == Opcode.UN:
        uses.extend(_operand_regs(instr.b))
    elif op == Opcode.ADDR:
        if instr.a == "r":
            uses.append(instr.b)
        uses.extend(_operand_regs(instr.c))
    elif op == Opcode.BR:
        uses.extend(_operand_regs(instr.a))
    elif op in (Opcode.CALL, Opcode.CALLB):
        for operand in instr.b:
            uses.extend(_operand_regs(operand))
    elif op == Opcode.RET:
        if instr.a is not None:
            uses.extend(_operand_regs(instr.a))
    return uses


def _check_register_closure(
    instrs: list[Instr], func: Function, what: str
) -> None:
    """Every register read before any write inside the outlined code must be
    an array-parameter base register — the only registers the lowering keeps
    live across statements.  Those are snapshotted at fork time."""
    stable = {r for r in func.param_regs if r is not None}
    written: set[int] = set()
    for instr in instrs:
        for reg in _reg_uses(instr):
            if reg not in written and reg not in stable:
                raise Infeasible(
                    f"{what}: register r{reg} flows in from outside the "
                    "outlined code"
                )
        if instr.dest is not None:
            written.add(instr.dest)


def _var_id_by_name(module: Module, func: Function, name: str) -> Optional[int]:
    """Resolve a dependence-store variable name, preferring the function's
    frame-resident variable over a same-named global."""
    local = None
    for vid in func.frame_slots:
        if module.var(vid).name == name:
            local = vid
            break
    if local is not None:
        return local
    for vid, _off in module.global_offsets.items():
        if module.var(vid).name == name:
            return vid
    return None


def _other_function_touches(
    module: Module, parent: Function, var_id: int
) -> bool:
    """Does any function other than ``parent`` load/store ``var_id``?"""
    for func in module.functions.values():
        if func.name == parent.name:
            continue
        for instr in func.code:
            if instr.is_memory() and instr.var_id == var_id:
                return True
    return False


# ---------------------------------------------------------------------------
# DOALL iteration chunking
# ---------------------------------------------------------------------------


def _loop_shape(func: Function, region: Region):
    """Decompose a canonical counted loop; raises Infeasible otherwise.

    Returns (enter_idx, exit_idx, header_start, header_br_idx, body_start,
    iter_slot, init_value, step, latch_start, iter_idx).
    """
    code = func.code
    rid = region.region_id
    if region.iter_var is None:
        raise Infeasible("no iteration variable (while loop)")
    if region.iter_var_written_in_body:
        raise Infeasible("iteration variable written in the loop body")
    iter_slot = func.frame_slots.get(region.iter_var)
    if iter_slot is None:
        raise Infeasible("iteration variable is not frame-resident")

    enter_idx = _find_marker(code, Opcode.ENTER, rid)
    exit_idx = _find_marker(code, Opcode.EXIT, rid)
    iter_idx = _find_marker(code, Opcode.ITER, rid)
    if code[iter_idx + 1].op != Opcode.JMP:
        raise Infeasible("latch does not jump back to the header")
    header_start = code[iter_idx + 1].a

    # init: exactly `i = <const>` followed by the jump into the header
    init = code[enter_idx + 1]
    if not (
        init.op == Opcode.STORE
        and init.a == ("f", iter_slot)
        and init.b[0] == "i"
    ):
        raise Infeasible("loop init is not a constant store to the counter")
    init_value = init.b[1]
    if not (
        code[enter_idx + 2].op == Opcode.JMP
        and code[enter_idx + 2].a == header_start
    ):
        raise Infeasible("unexpected code between loop init and header")

    # header: pure condition evaluation ending in `br body, exit`
    i = header_start
    while i < len(code) and not code[i].is_terminator():
        if code[i].op not in _PURE_OPS:
            raise Infeasible("loop condition has side effects")
        i += 1
    header_br_idx = i
    br = code[header_br_idx]
    if br.op != Opcode.BR or br.c != exit_idx:
        raise Infeasible("loop header does not end in a body/exit branch")
    body_start = br.b

    # latch: exactly `i = i ± <const>` before the iter marker
    leaders = _leaders(func)
    latch_start, _ = _block_of(leaders, iter_idx)
    step_code = code[latch_start:iter_idx]
    if len(step_code) != 3:
        raise Infeasible("loop step is not a single constant increment")
    ld, bi, st = step_code
    if not (
        ld.op == Opcode.LOAD
        and ld.a == ("f", iter_slot)
        and bi.op == Opcode.BIN
        and bi.a in ("+", "-")
        and st.op == Opcode.STORE
        and st.a == ("f", iter_slot)
        and st.b == ("r", bi.dest)
    ):
        raise Infeasible("loop step is not a single constant increment")
    operands = [bi.b, bi.c]
    if ("r", ld.dest) not in operands:
        raise Infeasible("loop step does not use the loaded counter")
    operands.remove(("r", ld.dest))
    if operands[0][0] != "i":
        raise Infeasible("loop step amount is not a constant")
    step = operands[0][1] if bi.a == "+" else -operands[0][1]
    if step == 0:
        raise Infeasible("loop step amount is zero")

    return (
        enter_idx,
        exit_idx,
        header_start,
        header_br_idx,
        body_start,
        iter_slot,
        init_value,
        step,
        latch_start,
        iter_idx,
    )


def _loop_blocks(
    func: Function, body_start: int, header_start: int, exit_idx: int
) -> list[int]:
    """Leaders of every block reachable inside the loop body (header and
    exit blocks excluded; the latch and any nested regions included)."""
    leaders = _leaders(func)
    code = func.code
    header_block, _ = _block_of(leaders, header_start)
    exit_block, _ = _block_of(leaders, exit_idx)
    start_block, _ = _block_of(leaders, body_start)
    seen = {start_block}
    stack = [start_block]
    while stack:
        leader = stack.pop()
        _, end = _block_of(leaders, leader)
        end = end if end is not None else len(code)
        term = code[end - 1] if end > leader else None
        succs: list[int] = []
        if term is None or not term.is_terminator():
            if end < len(code):
                succs = [end]
        elif term.op == Opcode.JMP:
            succs = [term.a]
        elif term.op == Opcode.BR:
            succs = [term.b, term.c]
        for succ in succs:
            block, _ = _block_of(leaders, succ)
            if block != succ:
                raise Infeasible("branch into the middle of a block")
            if block in (header_block, exit_block):
                continue
            if block not in seen:
                seen.add(block)
                stack.append(block)
    return sorted(seen)


def _resolve_privatized(
    module: Module,
    func: Function,
    loop,
    next_slot: int,
) -> tuple[dict, dict, int]:
    """Map reduction/private variable names to frame slots.

    Frame-resident variables already have slots (the whole frame is
    privatized).  Global *scalars* get a fresh frame slot appended to the
    chunk frame plus a copy-in prologue; anything else is infeasible.
    Returns (reduction_slots, private_slots, new_frame_size) where the slot
    dicts map name -> (slot, global_offset|None).
    """
    reduction_slots: dict[str, tuple] = {}
    private_slots: dict[str, tuple] = {}
    # a reduction variable usually also carries WAW/WAR deps; the reduction
    # merge subsumes its privatization
    plain_private = sorted(set(loop.private_vars) - set(loop.reduction_vars))
    for kind, names, out in (
        ("reduction", sorted(loop.reduction_vars), reduction_slots),
        ("private", plain_private, private_slots),
    ):
        for name in names:
            vid = _var_id_by_name(module, func, name)
            if vid is None:
                raise Infeasible(f"{kind} variable {name!r} not resolvable")
            info = module.var(vid)
            if info.size > 1 or info.is_array:
                raise Infeasible(
                    f"{kind} variable {name!r} is an array "
                    "(not privatizable)"
                )
            if vid in func.frame_slots:
                out[name] = (func.frame_slots[vid], None)
                continue
            g_off = module.global_offsets.get(vid)
            if g_off is None:
                raise Infeasible(f"{kind} variable {name!r} not resolvable")
            if _other_function_touches(module, func, vid):
                raise Infeasible(
                    f"global {kind} variable {name!r} is accessed by "
                    "another function"
                )
            out[name] = (next_slot, g_off)
            next_slot += 1
    return reduction_slots, private_slots, next_slot


def _def_before(code: list, idx: int, reg: int):
    """The nearest instruction before ``idx`` defining register ``reg``."""
    for i in range(idx - 1, -1, -1):
        if code[i].dest == reg:
            return code[i]
    return None


def _check_additive_reductions(
    func: Function, region: Region, names
) -> None:
    """The join merges reductions as ``v0 + Σ(v_k − v0)``, which is only
    correct for additive updates (``s += x`` / ``s = s - x``).  Any store
    to a reduction variable inside the loop whose value is not an
    additive combination of a load of the same variable is declined."""
    code = func.code
    for idx, instr in enumerate(code):
        if (
            instr.op != Opcode.STORE
            or instr.var not in names
            or not region.contains_line(instr.line)
        ):
            continue
        ok = False
        if instr.b[0] == "r":
            combine = _def_before(code, idx, instr.b[1])
            if combine is not None and combine.op == Opcode.BIN:
                operands = (
                    [combine.b, combine.c]
                    if combine.a == "+"
                    else [combine.b]  # subtraction: s must be the minuend
                    if combine.a == "-"
                    else []
                )
                for operand in operands:
                    if operand[0] != "r":
                        continue
                    src = _def_before(code, idx, operand[1])
                    if (
                        src is not None
                        and src.op == Opcode.LOAD
                        and src.var == instr.var
                    ):
                        ok = True
        if not ok:
            raise Infeasible(
                f"reduction over {instr.var!r} is not an additive update "
                f"at line {instr.line} (only +/- merges are supported)"
            )


def _check_local_arrays(module: Module, func: Function, region: Region) -> None:
    for vid in region.written_vars:
        info = module.var(vid)
        if vid in func.frame_slots and (info.is_array or info.size > 1):
            raise Infeasible(
                f"loop writes function-local array {info.name!r} "
                "(not privatizable)"
            )


def _build_chunk_function(
    module: Module,
    func: Function,
    region: Region,
    shape,
    chunk: ChunkSpec,
    step: int,
    redirects: dict[int, int],
    copy_in: list[tuple],
    extra_slots: int,
) -> Function:
    """Outline one iteration chunk ``[lo, hi)`` into a new function.

    ``redirects`` maps global-scalar addresses to private frame slots;
    ``copy_in`` is [(global_offset, slot)] prologue initialization.
    """
    (
        enter_idx,
        exit_idx,
        header_start,
        _header_br,
        body_start,
        iter_slot,
        _init_value,
        _step,
        _latch_start,
        _iter_idx,
    ) = shape
    code = func.code
    rid = region.region_id
    iter_name = module.var(region.iter_var).name

    blocks = _loop_blocks(func, body_start, header_start, exit_idx)
    leaders = _leaders(func)

    chunk_func = Function(chunk.function, [], func.return_type)
    chunk_func.frame_slots = dict(func.frame_slots)
    chunk_func.frame_size = func.frame_size + extra_slots
    chunk_func.param_regs = list(func.param_regs)
    chunk_func.region_id = func.region_id
    chunk_func.start_line = region.start_line
    chunk_func.end_line = region.end_line

    out: list[Instr] = []
    reg = func.n_regs  # fresh registers for prologue + synthesized header

    # prologue: enter the loop region, copy in privatized globals, i = lo
    out.append(Instr(Opcode.ENTER, a=rid, line=region.start_line))
    for g_off, slot in copy_in:
        out.append(Instr(Opcode.LOAD, dest=reg, a=("g", g_off),
                         line=region.start_line))
        out.append(Instr(Opcode.STORE, a=("f", slot), b=("r", reg),
                         line=region.start_line))
        reg += 1
    init = Instr(
        Opcode.STORE,
        a=("f", iter_slot),
        b=("i", chunk.lo),
        line=region.start_line,
        var=iter_name,
        var_id=region.iter_var,
    )
    init.op_id = _fresh_op_id(module)
    module.mem_ops[init.op_id] = init
    out.append(init)

    # synthesized header: `i <op> hi` with <op> matching the step direction
    new_header = len(out)
    load = Instr(
        Opcode.LOAD,
        dest=reg,
        a=("f", iter_slot),
        line=region.start_line,
        var=iter_name,
        var_id=region.iter_var,
    )
    load.op_id = _fresh_op_id(module)
    module.mem_ops[load.op_id] = load
    out.append(load)
    out.append(
        Instr(
            Opcode.BIN,
            dest=reg + 1,
            a="<" if step > 0 else ">",
            b=("r", reg),
            c=("i", chunk.hi),
            line=region.start_line,
        )
    )
    header_br = Instr(Opcode.BR, a=("r", reg + 1), b=None, c=None,
                      line=region.start_line)
    out.append(header_br)
    chunk_func.n_regs = reg + 2

    # copy the loop's blocks, building the old->new index map
    mapping: dict[int, int] = {}
    copied: list[Instr] = []
    for leader in blocks:
        _, end = _block_of(leaders, leader)
        end = end if end is not None else len(code)
        for idx in range(leader, end):
            _check_outlinable(code[idx])
            mapping[idx] = len(out) + len(copied)
            copied.append(_copy_instr(code[idx]))
    _check_register_closure(copied, func, "DOALL body")
    epilogue = len(out) + len(copied)
    header_br.b = mapping[body_start]
    header_br.c = epilogue

    block_set = set(mapping)
    for instr in copied:
        targets = []
        if instr.op == Opcode.JMP:
            targets = ["a"]
        elif instr.op == Opcode.BR:
            targets = ["b", "c"]
        for field in targets:
            old = getattr(instr, field)
            if old in block_set:
                setattr(instr, field, mapping[old])
            elif old == header_start:
                setattr(instr, field, new_header)
            elif old == exit_idx:
                setattr(instr, field, epilogue)
            else:
                raise Infeasible(
                    "loop body branches outside the loop "
                    f"(target index {old})"
                )
        # redirect privatized global scalars into the chunk frame
        if redirects and instr.is_memory() and instr.a[0] == "g":
            slot = redirects.get(instr.a[1])
            if slot is not None:
                instr.a = ("f", slot)
    out.extend(copied)

    # epilogue: close the region, return
    out.append(Instr(Opcode.EXIT, a=rid, line=region.end_line))
    out.append(Instr(Opcode.RET, a=None, line=region.end_line))
    chunk_func.code = out
    chunk_func.block_starts = {}
    return chunk_func


def plan_doall(
    module: Module,
    suggestion: Suggestion,
    control,
    *,
    n_workers: int,
    plan_index: int,
) -> tuple[DoallPlan, Optional[Module]]:
    """Chunk one DOALL/DOALL(reduction) suggestion into a transformed module."""
    loop = suggestion.loop
    region = module.regions[loop.region_id]
    plan = DoallPlan(
        region_id=loop.region_id,
        func=region.func,
        start_line=region.start_line,
        end_line=region.end_line,
        kind=suggestion.kind,
    )
    func = module.functions.get(region.func)
    try:
        if func is None or not func.code:
            raise Infeasible("containing function not found")
        record = control.get(loop.region_id) if control else None
        if record is None:
            raise Infeasible("loop never executed")
        if record.executions != 1:
            raise Infeasible(
                f"loop entered {record.executions} times "
                "(only single-entry loops are chunked)"
            )
        iterations = record.total_iterations
        if iterations < 2:
            raise Infeasible("fewer than two iterations")
        _check_local_arrays(module, func, region)
        _check_additive_reductions(func, region, loop.reduction_vars)
        shape = _loop_shape(func, region)
        iter_slot, init_value, step = shape[5], shape[6], shape[7]

        clone = _clone_module(module)
        reduction_slots, private_slots, new_size = _resolve_privatized(
            clone, func, loop, func.frame_size
        )
        extra_slots = new_size - func.frame_size
        redirects = {
            g_off: slot
            for slot, g_off in reduction_slots.values()
            if g_off is not None
        }
        redirects.update(
            {
                g_off: slot
                for slot, g_off in private_slots.values()
                if g_off is not None
            }
        )
        copy_in = sorted(
            (g_off, slot)
            for slot, g_off in list(reduction_slots.values())
            + list(private_slots.values())
            if g_off is not None
        )

        n_chunks = max(1, min(n_workers, iterations))
        base, extra = divmod(iterations, n_chunks)
        lo = init_value
        chunks: list[ChunkSpec] = []
        for k in range(n_chunks):
            count = base + (1 if k < extra else 0)
            hi = lo + step * count
            chunks.append(
                ChunkSpec(
                    index=k,
                    lo=lo,
                    hi=hi,
                    iterations=count,
                    function=(
                        f"__doall_{func.name}_r{loop.region_id}_c{k}"
                    ),
                )
            )
            lo = hi

        for chunk in chunks:
            chunk_func = _build_chunk_function(
                clone, func, region, shape, chunk, step,
                redirects, copy_in, extra_slots,
            )
            clone.functions[chunk_func.name] = chunk_func

        # splice: the loop's `enter` becomes the fork point; the parent
        # resumes just past the loop's `exit` marker
        enter_idx, exit_idx = shape[0], shape[1]
        parent_code = list(func.code)
        parent_code[enter_idx] = Instr(
            Opcode.PFORK, a=plan_index, b=exit_idx + 1,
            line=region.start_line,
        )
        clone.functions[func.name] = _clone_function(func, parent_code)

        plan.feasible = True
        plan.iter_var = module.var(region.iter_var).name
        plan.iter_slot = iter_slot
        plan.init_value = init_value
        plan.step = step
        plan.iterations = iterations
        plan.final_value = init_value + step * iterations
        plan.chunks = chunks
        plan.reduction_slots = {
            name: slot for name, (slot, _g) in reduction_slots.items()
        }
        plan.private_vars = sorted(loop.private_vars)
        plan.private_slots = {
            name: slot for name, (slot, _g) in private_slots.items()
        }
        plan.global_homes = {
            slot: g_off
            for slot, g_off in list(reduction_slots.values())
            + list(private_slots.values())
            if g_off is not None
        }
        return plan, clone
    except Infeasible as exc:
        plan.reason = str(exc)
        return plan, None


# ---------------------------------------------------------------------------
# task-region outlining
# ---------------------------------------------------------------------------


def _attribute_instructions(code: list, node_lines: dict) -> dict[int, int]:
    """code index -> task node id, by source-line attribution.

    Line-carrying instructions belong to the node owning their line;
    line-less control instructions (jumps, branches) inherit the preceding
    attributed instruction's node — they are emitted while lowering that
    statement.
    """
    line_to_node: dict[int, int] = {}
    for node_id, lines in node_lines.items():
        for line in lines:
            if line in line_to_node:
                raise Infeasible(
                    f"task nodes overlap on line {line}"
                )
            line_to_node[line] = node_id
    owner: dict[int, int] = {}
    current: Optional[int] = None
    for idx, instr in enumerate(code):
        if instr.line:
            current = line_to_node.get(instr.line)
        if current is not None:
            owner[idx] = current
    return owner


def _build_task_function(
    name: str,
    func: Function,
    region: Region,
    members: list[int],
    union: set[int],
) -> tuple[Function, set[int]]:
    """Outline one task node's instructions; returns (function, escapes).

    A task may consist of several non-adjacent *segments* (chain-contracted
    nodes interleave statements: ``build(); ...; detect();``).  Falling out
    of a segment mid-task simply continues at the task's next segment —
    chain contraction guarantees the skipped instructions belong to other
    tasks, which execute them in their own threads.  A branch that leaves
    the member set, or the final member's fall-through, ends the task (it
    reaches the epilogue ``ret``); targets *outside the whole task union*
    are returned as escapes — the caller requires them to agree on the
    single continuation point where the parent resumes.
    """
    code = func.code
    member_set = set(members)
    new_index = {old: new for new, old in enumerate(members)}
    epilogue = len(members)

    escapes: set[int] = set()
    rewritten: list[Instr] = []
    for pos, old in enumerate(members):
        _check_outlinable(code[old])
        instr = _copy_instr(code[old])
        if instr.op == Opcode.JMP:
            fields = ("a",)
        elif instr.op == Opcode.BR:
            fields = ("b", "c")
        else:
            fields = ()
        for field in fields:
            tgt = getattr(instr, field)
            if tgt in member_set:
                setattr(instr, field, new_index[tgt])
            else:
                # leaving the member set ends this task
                if tgt not in union:
                    escapes.add(tgt)
                setattr(instr, field, epilogue)
        rewritten.append(instr)
        if not instr.is_terminator():
            last = pos + 1 == len(members)
            if last:
                if old + 1 not in union:
                    escapes.add(old + 1)
                # epilogue follows immediately: natural fall-through
            elif members[pos + 1] != old + 1:
                # segment boundary: the original successor must be another
                # task's code, else outlining would lose instructions
                if old + 1 not in union:
                    raise Infeasible(
                        f"task {name} falls through to untasked code "
                        f"(index {old + 1})"
                    )
    _check_register_closure(rewritten, func, f"task {name}")
    rewritten.append(Instr(Opcode.RET, a=None, line=region.end_line))

    task_func = Function(name, [], "int")
    task_func.frame_slots = dict(func.frame_slots)
    task_func.frame_size = func.frame_size
    task_func.param_regs = list(func.param_regs)
    task_func.n_regs = func.n_regs
    task_func.region_id = func.region_id
    task_func.start_line = region.start_line
    task_func.end_line = region.end_line
    task_func.code = rewritten
    return task_func, escapes


def _check_whole_loops(module: Module, code: list, members: dict) -> None:
    """Every loop a task touches must lie wholly inside that task.

    Source-line attribution knows nothing of loop structure: a loop's
    ``enter``/``iter`` markers can land in one node and its ``exit`` (on
    the loop's last line, shared with a nested statement) in another.
    The outlined tasks would then run an ``iter`` on an empty loop stack.
    """
    node_of = {idx: nid for nid, idxs in members.items() for idx in idxs}
    markers: dict[int, list[int]] = {}
    for idx, instr in enumerate(code):
        if instr.op in (Opcode.ENTER, Opcode.ITER, Opcode.EXIT):
            region = module.regions.get(instr.a)
            if region is not None and region.kind == "loop":
                markers.setdefault(instr.a, []).append(idx)
    for rid, idxs in markers.items():
        # one owner (None: no task touches the loop) keeps it whole
        if len({node_of.get(idx) for idx in idxs}) > 1:
            nid = next(node_of[idx] for idx in idxs if idx in node_of)
            region = module.regions[rid]
            raise Infeasible(
                f"task node {nid} splits loop region {rid} "
                f"(lines {region.start_line}-{region.end_line})"
            )


def plan_taskgraph(
    module: Module,
    suggestion: Suggestion,
    *,
    plan_index: int,
) -> tuple[TaskPlan, Optional[Module]]:
    """Outline one MPMD task-graph suggestion into a transformed module."""
    tg = suggestion.task_graph
    region = module.regions.get(tg.container_region)
    plan = TaskPlan(
        region_id=tg.container_region,
        func=suggestion.func,
        start_line=suggestion.start_line,
        end_line=suggestion.end_line,
        kind=suggestion.kind,
    )
    try:
        if region is None:
            raise Infeasible("container region not found")
        func = module.functions.get(region.func)
        if func is None or not func.code:
            raise Infeasible("containing function not found")
        code = func.code

        # nodes covering only the container's own control lines (a frame
        # loop's header/latch) are not tasks: that code keeps running in
        # the parent, which re-forks the body tasks every iteration
        control_lines = {region.start_line, region.end_line}
        task_nodes = [
            n for n in tg.nodes if not set(n.lines) <= control_lines
        ]
        if len(task_nodes) < 2:
            raise Infeasible("fewer than two outlinable task nodes")

        node_lines = {n.node_id: set(n.lines) for n in task_nodes}
        owner = _attribute_instructions(code, node_lines)
        members: dict[int, list[int]] = {}
        for idx in sorted(owner):
            members.setdefault(owner[idx], []).append(idx)
        for node in task_nodes:
            if not members.get(node.node_id):
                raise Infeasible(
                    f"no instructions attributed to task node {node.node_id}"
                )

        # nodes whose code cannot be outlined (a trailing `return`, an
        # order-sensitive builtin) stay in the parent, which executes them
        # after the join — legal only while no kept task depends on them
        def _outlinable_node(nid: int) -> bool:
            try:
                for idx in members[nid]:
                    _check_outlinable(code[idx])
            except Infeasible:
                return False
            return True

        retained = {
            n.node_id for n in task_nodes if not _outlinable_node(n.node_id)
        }
        kept_ids = {n.node_id for n in task_nodes} - retained
        for src, dst in tg.edges:
            if src in retained and dst in kept_ids:
                raise Infeasible(
                    "a task depends on a node that cannot be outlined"
                )
        task_nodes = [n for n in task_nodes if n.node_id in kept_ids]
        if len(task_nodes) < 2:
            raise Infeasible("fewer than two outlinable task nodes")
        members = {nid: members[nid] for nid in kept_ids}

        union = {idx for m in members.values() for idx in m}
        first_idx = min(union)

        clone = _clone_module(module)
        specs: list[TaskSpec] = []
        escapes: set[int] = set()
        for node in sorted(task_nodes, key=lambda n: n.node_id):
            name = (
                f"__task_{func.name}_r{tg.container_region}_n{node.node_id}"
            )
            task_func, task_escapes = _build_task_function(
                name, func, region, members[node.node_id], union
            )
            clone.functions[name] = task_func
            escapes |= task_escapes
            deps = sorted(
                src
                for (src, dst) in tg.edges
                if dst == node.node_id and src in kept_ids
            )
            specs.append(
                TaskSpec(
                    node_id=node.node_id,
                    function=name,
                    deps=deps,
                    work=node.work,
                    lines=sorted(node.lines),
                )
            )

        # all escapes must agree on the one continuation point where the
        # parent resumes after the join
        if len(escapes) != 1:
            raise Infeasible(
                f"task region has {len(escapes)} exit points "
                "(need exactly one)"
            )
        resume_idx = escapes.pop()

        # external control may only enter the region at its start
        for idx, instr in enumerate(code):
            if idx in union:
                continue
            tgts = []
            if instr.op == Opcode.JMP:
                tgts = [instr.a]
            elif instr.op == Opcode.BR:
                tgts = [instr.b, instr.c]
            for tgt in tgts:
                if tgt in union and tgt != first_idx:
                    raise Infeasible(
                        "external control enters the middle of the "
                        "task region"
                    )
        _check_whole_loops(module, code, members)

        parent_code = list(code)
        parent_code[first_idx] = Instr(
            Opcode.PTASK, a=plan_index, b=resume_idx,
            line=region.start_line,
        )
        clone.functions[func.name] = _clone_function(func, parent_code)

        plan.feasible = True
        plan.tasks = specs
        return plan, clone
    except Infeasible as exc:
        plan.reason = str(exc)
        return plan, None


# ---------------------------------------------------------------------------
# the driver pass
# ---------------------------------------------------------------------------


def build_transform_plan(
    module: Module,
    suggestions: list[Suggestion],
    control,
    *,
    n_workers: int = 4,
    name: Optional[str] = None,
) -> TransformPlan:
    """Plan transforms for every transformable suggestion.

    DOALL / DOALL(reduction) loops are iteration-chunked; MPMD task graphs
    are task-outlined.  DOACROSS and SPMD suggestions are not transformable
    yet and are skipped.  Each suggestion receives a ``transform`` summary
    dict (serialized with the suggestion) and each feasible entry gets its
    own independently-transformed module in ``plan.modules``.
    """
    plan = TransformPlan(name=name or module.name, n_workers=n_workers)
    for suggestion in suggestions:
        index = len(plan.entries)
        if suggestion.kind in ("DOALL", "DOALL(reduction)") and suggestion.loop:
            entry, transformed = plan_doall(
                module, suggestion, control,
                n_workers=n_workers, plan_index=index,
            )
        elif suggestion.kind == "MPMD" and suggestion.task_graph:
            entry, transformed = plan_taskgraph(
                module, suggestion, plan_index=index
            )
        else:
            continue
        plan.entries.append(entry)
        if transformed is not None:
            plan.modules[index] = transformed
        summary = {
            "plan_index": index,
            "transform": entry.to_dict()["transform"],
            "feasible": entry.feasible,
            "reason": entry.reason,
        }
        if isinstance(entry, DoallPlan):
            summary["n_chunks"] = len(entry.chunks)
            summary["reduction_vars"] = sorted(entry.reduction_slots)
        else:
            summary["n_tasks"] = len(entry.tasks)
        suggestion.transform = summary
    return plan
