"""The MIR interpreter / virtual machine.

Executes one or more VM threads over a shared flat memory, emitting the
instrumentation event stream (:mod:`repro.runtime.events`) in chunks.

Threading model: *simulated* threads with a deterministic round-robin
scheduler (configurable quantum, optional seeded randomisation).  This stands
in for pthreads in the paper's multi-threaded profiling experiments — the
profiler only observes the interleaved event stream, so an instruction-level
interleaving reproduces exactly the hazards §2.3.4 deals with (out-of-order
pushes, races, lock-protected regions).

Dispatch: two execution cores run behind the ``dispatch`` knob.

* ``"compiled"`` (default) — the closure-specialized core of
  :mod:`repro.runtime.compile`: each function decodes once into
  per-instruction closures with operands, address modes, and event
  metadata pre-resolved, plus fused superinstructions for the hottest
  bigrams.
* ``"switch"`` — the original string-compare dispatch chain, kept as the
  bit-exact reference core.  Both cores produce identical traces, schedules,
  and final state; ``tests/test_vm.py`` holds the equivalence suite.
"""

from __future__ import annotations

import math
import random as _random
from collections import deque
from typing import Callable, Optional

from repro.mir.instructions import BINOPS, UNOPS, Opcode
from repro.mir.lowering import compile_source
from repro.mir.module import Function, Module
from repro.runtime.events import (
    K_ALLOC,
    K_BGN,
    K_END,
    K_FENTRY,
    K_FEXIT,
    K_FREE,
    K_ITER,
    K_JOINED,
    K_LOCK,
    K_READ,
    K_SPAWN,
    K_UNLOCK,
    K_WRITE,
    N_COLS,
    ChunkBuilder,
    SignatureTable,
    StringTable,
    TraceSink,
)
from repro.runtime.memory import MemoryLayout


class VMError(Exception):
    """Runtime errors of the simulated machine."""


class Frame:
    """One activation record of a VM thread."""

    __slots__ = (
        "func",
        "code",
        "regs",
        "frame_base",
        "ret_dest",
        "ret_pc",
        "region_stack",
    )

    def __init__(
        self,
        func: Function,
        frame_base: int,
        ret_dest: Optional[int],
        ret_pc: int = 0,
    ):
        self.func = func
        self.code = func.code
        self.regs: list = [0] * func.n_regs
        self.frame_base = frame_base
        self.ret_dest = ret_dest
        #: caller's resume pc (meaningless for a thread's root frame)
        self.ret_pc = ret_pc
        #: open control regions in this frame: [region_id, kind, start_line]
        self.region_stack: list[list] = []


# thread status values
RUNNABLE = 0
BLOCKED_LOCK = 1
BLOCKED_JOIN = 2
DONE = 3
#: parent suspended on a pfork/ptask until every forked task completes
#: (only the parallelize scheduler ever sets this)
BLOCKED_FORK = 4


class ThreadState:
    """One simulated thread."""

    __slots__ = (
        "tid",
        "frames",
        "pc",
        "status",
        "wait_target",
        "sp",
        "stack_limit",
        "loop_stack",
        "sig_id",
        "return_value",
        "steps",
    )

    def __init__(self, tid: int, stack_base: int, stack_limit: int) -> None:
        self.tid = tid
        self.frames: list[Frame] = []
        self.pc = 0
        self.status = RUNNABLE
        self.wait_target: Optional[int] = None
        self.sp = stack_base
        self.stack_limit = stack_limit
        #: innermost-last loop context: [region_id, iteration]
        self.loop_stack: list[list] = []
        self.sig_id = 0
        self.return_value = 0
        self.steps = 0


class VM:
    """Executes a Module; emits instrumentation events to a chunk sink."""

    def __init__(
        self,
        module: Module,
        sink: Optional[Callable[[list], None]] = None,
        *,
        chunk_size: int = 4096,
        quantum: int = 64,
        schedule: str = "rr",
        seed: int = 12345,
        max_steps: int = 500_000_000,
        stack_size: int = 1 << 14,
        max_threads: int = 64,
        instrument: bool = True,
        dispatch: str = "compiled",
        tracer=None,
    ) -> None:
        if dispatch not in ("compiled", "switch"):
            raise ValueError(f"unknown dispatch {dispatch!r}")
        self.module = module
        self.sink = sink
        #: optional repro.obs Tracer; the execution hot loops never touch
        #: it — only coarse sites (ParallelVM worker bursts) record spans
        self.tracer = tracer
        self.chunk_size = chunk_size
        self.quantum = quantum
        self.schedule = schedule
        self.rng = _random.Random(seed)
        self.max_steps = max_steps
        self.instrument = instrument and sink is not None

        self.layout = MemoryLayout(module.global_size, stack_size, max_threads)
        # the globals segment; a thread's stack joins it when the thread
        # starts (_new_thread), a heap block when alloc() hands it out
        self.memory: list = [0] * self.layout.stacks_base
        for addr, value in module.global_init.items():
            self.memory[addr] = value
        self.threads: list[ThreadState] = []
        self.ts = 0
        self.total_steps = 0
        self.output: list[tuple] = []
        self._rand_state = seed & 0x7FFFFFFF or 1

        # lock table: lock_id -> owner tid; waiters per lock
        self._lock_owner: dict[int, int] = {}
        self._lock_waiters: dict[int, deque[int]] = {}

        #: interned loop signatures; every emitted chunk references it
        self.sigs = SignatureTable()

        self._buffer: list[tuple] = []
        # region metadata caches for fast marker handling
        self._region_kind = {r.region_id: r.kind for r in module.regions.values()}
        self._region_start = {
            r.region_id: r.start_line for r in module.regions.values()
        }
        self._region_end = {r.region_id: r.end_line for r in module.regions.values()}

        # emit state: every string an event can carry is interned up
        # front (names and var ids are static per instruction), so the
        # hot emit path stages pure-int rows.
        self.strings: Optional[StringTable] = None
        if self.instrument:
            self.strings = StringTable()
            #: op_id -> (interned var-name id, var_id int code)
            self._op_meta: dict[int, tuple[int, int]] = {}
            for func in module.functions.values():
                for instr in func.code:
                    if instr.op_id is not None:
                        self._op_meta[instr.op_id] = (
                            self.strings.intern(instr.var),
                            -1 if instr.var_id is None else instr.var_id,
                        )
            self._func_name_id = {
                name: self.strings.intern(name) for name in module.functions
            }
            self._region_kind_id = {
                rid: self.strings.intern(kind)
                for rid, kind in self._region_kind.items()
            }
            self._chunks = ChunkBuilder(chunk_size, self.strings, self.sigs)

        self._builtins = _make_builtins()

        # compiled dispatch: closure tables built lazily, one per executed
        # function
        self.dispatch = dispatch
        self._use_compiled = dispatch == "compiled"
        self._compiled_cache: dict = {}
        # the compiled traced core stages flat int columns (N_COLS ints
        # per event) instead of row tuples; cold emit sites flatten
        # their row through list.extend and the flush threshold scales
        # accordingly
        self._flat_staging = self._use_compiled and self.instrument
        self._flat_cap = chunk_size * N_COLS

    def _compiled_for(self, func):
        """The (lazily built) closure table of one function."""
        code = self._compiled_cache.get(func)
        if code is None:
            from repro.runtime.compile import compile_function

            code = self._compiled_cache[func] = compile_function(self, func)
        return code

    # ------------------------------------------------------------------
    # event plumbing
    # ------------------------------------------------------------------

    def _flush(self) -> None:
        buf = self._buffer
        if buf and self.sink is not None:
            # the staging list object must stay stable: compiled traced
            # closures capture it (and its bound extend) at compile time
            if self._flat_staging:
                chunk = self._chunks.build_flat(buf)
            else:
                chunk = self._chunks.build(buf)
            buf.clear()
            self.sink(chunk)

    def _emit(self, event: tuple) -> None:
        buf = self._buffer
        if self._flat_staging:
            buf.extend(event)
            if len(buf) >= self._flat_cap:
                self._flush()
            return
        buf.append(event)
        if len(buf) >= self.chunk_size:
            self._flush()

    # Cold-site helpers, one per row family.  The hot load/store sites
    # stage their rows inline in the dispatch loop instead.

    def _emit_simple(self, code: int, operand: int, tid: int) -> None:
        """Operand-only rows: ITER/LOCK/UNLOCK/SPAWN/JOINED."""
        self._emit((code, operand, 0, 0, 0, tid, self.ts, 0, 0))

    def _emit_block(self, code: int, base: int, size: int, tid: int) -> None:
        """Memory-block rows: ALLOC/FREE."""
        self._emit((code, base, 0, 0, size, tid, self.ts, 0, 0))

    # ------------------------------------------------------------------
    # loop-signature interning
    # ------------------------------------------------------------------

    def _intern_sig(self, thread: ThreadState) -> None:
        """Intern the thread's loop stack as its current signature.

        The stack changes at exactly one level between two interns: a
        loop entry appends, an iteration bumps the innermost count, a
        close pops.  So the new signature is the previous one with its
        last pair added, replaced or dropped, and it shares every other
        (region, iteration) tuple with it: the table holds at most one
        pair object per signature.  A stack whose depth does not fit
        that rule is rebuilt in full.
        """
        stack = thread.loop_stack
        prev = self.sigs.values[thread.sig_id]
        grow = len(stack) - len(prev)
        if grow == 1:
            sig = prev + ((stack[-1][0], stack[-1][1]),)
        elif grow == 0 and stack and prev[-1][0] == stack[-1][0]:
            sig = prev[:-1] + ((stack[-1][0], stack[-1][1]),)
        elif grow == -1:
            sig = prev[:-1]
        else:
            sig = tuple((entry[0], entry[1]) for entry in stack)
        thread.sig_id = self.sigs.intern(sig)

    # ------------------------------------------------------------------
    # thread management
    # ------------------------------------------------------------------

    def _spawn_thread(
        self, func_name: str, args: list, call_line: int = 0
    ) -> ThreadState:
        thread = self._new_thread(len(self.threads))
        self.threads.append(thread)
        self._push_frame(thread, func_name, args, ret_dest=None,
                         call_line=call_line)
        return thread

    def _new_thread(self, tid: int) -> ThreadState:
        """Thread ``tid``, with ``memory`` grown to cover its stack."""
        limit = self.layout.stack_limit(tid)
        if len(self.memory) < limit:
            self.memory.extend([0] * (limit - len(self.memory)))
        return ThreadState(tid, self.layout.stack_base(tid), limit)

    def _push_frame(
        self,
        thread: ThreadState,
        func_name: str,
        args: list,
        ret_dest: Optional[int],
        call_line: int = 0,
    ) -> None:
        func = self.module.functions.get(func_name)
        if func is None:
            raise VMError(f"call to unknown function {func_name!r}")
        if len(args) != len(func.params):
            raise VMError(
                f"{func_name} expects {len(func.params)} args, got {len(args)}"
            )
        frame_base = thread.sp
        size = func.frame_size
        if frame_base + size > thread.stack_limit:
            raise VMError(f"stack overflow in thread {thread.tid} ({func_name})")
        thread.sp += size
        # zero the frame and announce its lifetime for the profiler
        if size:
            self.memory[frame_base : frame_base + size] = [0] * size
        frame = Frame(func, frame_base, ret_dest, ret_pc=thread.pc)
        for i, value in enumerate(args):
            frame.regs[i] = value
        thread.frames.append(frame)
        thread.pc = 0
        if self.instrument:
            if self._flat_staging:
                # compiled-core fast path: stage the rows flat, keeping
                # the per-event flush points of the reference core
                buf = self._buffer
                cap = self._flat_cap
                tid = thread.tid
                ts = self.ts
                if size:
                    buf.extend(
                        (K_ALLOC, frame_base, 0, 0, size, tid, ts, 0, 0)
                    )
                    if len(buf) >= cap:
                        self._flush()
                buf.extend(
                    (K_FENTRY, 0, func.start_line,
                     self._func_name_id[func_name], call_line, tid, ts, 0, 0)
                )
                if len(buf) >= cap:
                    self._flush()
                return
            if func.frame_size:
                self._emit_block(
                    K_ALLOC, frame_base, func.frame_size, thread.tid
                )
            self._emit(
                (K_FENTRY, 0, func.start_line, self._func_name_id[func_name],
                 call_line, thread.tid, self.ts, 0, 0)
            )

    def _pop_frame(self, thread: ThreadState, value) -> None:
        frame = thread.frames.pop()
        # close any regions left open (return inside loops/branches)
        while frame.region_stack:
            self._close_region_entry(thread, frame, frame.region_stack.pop())
        if self.instrument:
            if self._flat_staging:
                buf = self._buffer
                cap = self._flat_cap
                tid = thread.tid
                ts = self.ts
                size = frame.func.frame_size
                buf.extend(
                    (K_FEXIT, 0, 0, self._func_name_id[frame.func.name], 0,
                     tid, ts, 0, 0)
                )
                if len(buf) >= cap:
                    self._flush()
                if size:
                    buf.extend(
                        (K_FREE, frame.frame_base, 0, 0, size, tid, ts, 0, 0)
                    )
                    if len(buf) >= cap:
                        self._flush()
            else:
                self._emit(
                    (K_FEXIT, 0, 0, self._func_name_id[frame.func.name], 0,
                     thread.tid, self.ts, 0, 0)
                )
                if frame.func.frame_size:
                    self._emit_block(
                        K_FREE, frame.frame_base, frame.func.frame_size,
                        thread.tid,
                    )
        thread.sp = frame.frame_base
        if thread.frames:
            caller = thread.frames[-1]
            if frame.ret_dest is not None:
                caller.regs[frame.ret_dest] = value
            thread.pc = frame.ret_pc
        else:
            thread.return_value = value
            thread.status = DONE

    def _parallel_op(self, thread: ThreadState, instr) -> None:
        """Execute a ``pfork``/``ptask`` marker.

        Only modules rewritten by :mod:`repro.parallelize.transforms` contain
        these instructions, and only the parallelize scheduler
        (:class:`repro.parallelize.scheduler.ParallelVM`) knows how to fork
        their tasks — the plain VM refuses loudly instead of misexecuting.
        """
        raise VMError(
            f"{instr.op!r} requires the parallelize scheduler "
            "(repro.parallelize.scheduler.ParallelVM)"
        )

    def _close_region_entry(self, thread: ThreadState, frame: Frame, entry) -> None:
        region_id, kind, _start = entry
        iters = 0
        if kind == "loop":
            if thread.loop_stack and thread.loop_stack[-1][0] == region_id:
                iters = thread.loop_stack[-1][1]
                thread.loop_stack.pop()
                if self.instrument:
                    self._intern_sig(thread)
        if self.instrument:
            self._emit(
                (K_END, region_id, self._region_end[region_id],
                 self._region_kind_id[region_id], iters, thread.tid,
                 self.ts, 0, 0)
            )

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------

    def run(self, entry: str = "main", args: Optional[list] = None):
        """Run the program to completion; returns ``entry``'s return value."""
        try:
            return self._run(entry, args)
        finally:
            self._release_compiled()

    def _run(self, entry: str, args: Optional[list]):
        main_thread = self._spawn_thread(entry, args or [])
        while True:
            alive = [t for t in self.threads if t.status != DONE]
            if not alive:
                break
            progressed = False
            # round-robin over threads; quantum jitter in 'random' mode
            order = [t.tid for t in self.threads if t.status == RUNNABLE]
            if not order:
                blocked = [t.tid for t in self.threads if t.status != DONE]
                raise VMError(f"deadlock: threads {blocked} all blocked")
            if self.schedule == "random" and len(order) > 1:
                self.rng.shuffle(order)
            for tid in order:
                thread = self.threads[tid]
                if thread.status != RUNNABLE:
                    continue
                quantum = self.quantum
                n_runnable = sum(1 for t in self.threads if t.status == RUNNABLE)
                if n_runnable == 1:
                    quantum = 1 << 22  # lone thread: run long
                elif self.schedule == "random":
                    quantum = self.rng.randint(1, self.quantum)
                self._run_thread(thread, quantum)
                progressed = True
            if not progressed:  # pragma: no cover - defensive
                raise VMError("scheduler made no progress")
        self._flush()
        return main_thread.return_value

    def _release_compiled(self) -> None:
        """Drop the compiled closure tables at the end of a run.

        Compiled closures capture their VM, and the lazy tables hold
        self-replacing trampolines that reference their own
        ``fns``/``alts`` lists, so a finished VM would otherwise wait in
        reference cycles — memory image included — for the next full
        collection.  Emptying the tables breaks both cycles and reference
        counting frees the VM as soon as its last user lets go.  A later
        :meth:`run` rebuilds the tables lazily.
        """
        for compiled in self._compiled_cache.values():
            compiled.fns.clear()
            compiled.alts.clear()
        self._compiled_cache.clear()

    def _run_thread(self, thread: ThreadState, quantum: int) -> None:
        """Run one thread for up to ``quantum`` steps on the active core."""
        if self._use_compiled:
            self._run_thread_compiled(thread, quantum)
        else:
            self._run_thread_switch(thread, quantum)
        if self.total_steps > self.max_steps:
            raise VMError(f"step budget exceeded ({self.max_steps})")
        # wake joiners of finished threads
        if thread.status == DONE:
            tid = thread.tid
            for other in self.threads:
                if other.status == BLOCKED_JOIN and other.wait_target == tid:
                    other.status = RUNNABLE
                    other.wait_target = None

    # The compiled-dispatch loop: one pre-specialized closure per code
    # index (repro.runtime.compile).  A closure returns the next index, or
    # -1 after a control transfer (call/ret/spawn/block/parallel fork) —
    # the outer loop then re-aliases the current frame.  Fused
    # superinstructions cost ``costs[pc]`` steps; near the quantum edge
    # the runner uses the single-instruction ``alts`` table instead, so
    # burst lengths (and therefore scheduler interleavings) match the
    # switch core exactly.
    def _run_thread_compiled(self, thread: ThreadState, quantum: int) -> None:
        steps = 0
        while steps < quantum and thread.status == RUNNABLE and thread.frames:
            frame = thread.frames[-1]
            compiled = self._compiled_for(frame.func)
            fns = compiled.fns
            costs = compiled.costs
            alts = compiled.alts
            pc = thread.pc
            while steps < quantum:
                cost = costs[pc]
                if cost == 1:
                    npc = fns[pc](thread, frame)
                    steps += 1
                elif steps + cost <= quantum:
                    npc = fns[pc](thread, frame)
                    steps += cost
                else:
                    npc = alts[pc](thread, frame)
                    steps += 1
                if npc < 0:
                    break  # control transfer: thread.pc already updated
                pc = npc
            else:
                # quantum exhausted mid-block: save resume point
                thread.pc = pc
        self.total_steps += steps

    # The switch-dispatch loop, kept as the bit-exact reference core.
    # Hot path: load/store/bin/addr/branch.
    def _run_thread_switch(self, thread: ThreadState, quantum: int) -> None:
        memory = self.memory
        instrument = self.instrument
        op_meta = self._op_meta if instrument else None
        tid = thread.tid
        steps = 0
        while steps < quantum and thread.status == RUNNABLE and thread.frames:
            frame = thread.frames[-1]
            code = frame.code
            regs = frame.regs
            fb = frame.frame_base
            pc = thread.pc
            # inner loop until frame change / block / quantum end
            while steps < quantum:
                instr = code[pc]
                op = instr.op
                pc += 1
                steps += 1
                self.ts += 1
                if op == "load":
                    ref = instr.a
                    space = ref[0]
                    if space == "g":
                        addr = ref[1]
                    elif space == "f":
                        addr = fb + ref[1]
                    else:
                        addr = regs[ref[1]]
                    regs[instr.dest] = memory[addr]
                    if instrument:
                        op_id = instr.op_id
                        name_id, var_code = op_meta[op_id]
                        self._emit(
                            (K_READ, addr, instr.line, name_id, op_id,
                             tid, self.ts, thread.sig_id, var_code)
                        )
                elif op == "store":
                    ref = instr.a
                    space = ref[0]
                    if space == "g":
                        addr = ref[1]
                    elif space == "f":
                        addr = fb + ref[1]
                    else:
                        addr = regs[ref[1]]
                    src = instr.b
                    memory[addr] = src[1] if src[0] == "i" else regs[src[1]]
                    if instrument:
                        op_id = instr.op_id
                        name_id, var_code = op_meta[op_id]
                        self._emit(
                            (K_WRITE, addr, instr.line, name_id, op_id,
                             tid, self.ts, thread.sig_id, var_code)
                        )
                elif op == "bin":
                    bop = instr.a
                    lhs = instr.b
                    rhs = instr.c
                    a = lhs[1] if lhs[0] == "i" else regs[lhs[1]]
                    b = rhs[1] if rhs[0] == "i" else regs[rhs[1]]
                    if bop == "+":
                        regs[instr.dest] = a + b
                    elif bop == "-":
                        regs[instr.dest] = a - b
                    elif bop == "*":
                        regs[instr.dest] = a * b
                    elif bop == "<":
                        regs[instr.dest] = 1 if a < b else 0
                    else:
                        regs[instr.dest] = BINOPS[bop](a, b)
                elif op == "addr":
                    space = instr.a
                    idx = instr.c
                    offset = idx[1] if idx[0] == "i" else regs[idx[1]]
                    if space == "g":
                        regs[instr.dest] = instr.b + offset
                    elif space == "f":
                        regs[instr.dest] = fb + instr.b + offset
                    else:  # 'r': base address held in a register
                        regs[instr.dest] = regs[instr.b] + offset
                elif op == "br":
                    cond = instr.a
                    value = cond[1] if cond[0] == "i" else regs[cond[1]]
                    pc = instr.b if value else instr.c
                elif op == "jmp":
                    pc = instr.a
                elif op == "const":
                    regs[instr.dest] = instr.a
                elif op == "un":
                    operand = instr.b
                    a = operand[1] if operand[0] == "i" else regs[operand[1]]
                    regs[instr.dest] = UNOPS[instr.a](a)
                elif op == "enter":
                    region_id = instr.a
                    kind = self._region_kind[region_id]
                    frame.region_stack.append(
                        [region_id, kind, self._region_start[region_id]]
                    )
                    if kind == "loop":
                        thread.loop_stack.append([region_id, 0])
                        if instrument:
                            self._intern_sig(thread)
                    if instrument:
                        self._emit(
                            (K_BGN, region_id, self._region_start[region_id],
                             self._region_kind_id[region_id], 0, tid,
                             self.ts, 0, 0)
                        )
                elif op == "iter":
                    top = thread.loop_stack[-1]
                    top[1] += 1
                    if instrument:
                        self._intern_sig(thread)
                        self._emit_simple(K_ITER, instr.a, tid)
                elif op == "exit":
                    region_id = instr.a
                    while frame.region_stack:
                        entry = frame.region_stack.pop()
                        self._close_region_entry(thread, frame, entry)
                        if entry[0] == region_id:
                            break
                elif op == "callb":
                    args = [
                        (operand[1] if operand[0] == "i" else regs[operand[1]])
                        for operand in instr.b
                    ]
                    value = self._builtins[instr.a](self, thread, args)
                    if instr.dest is not None:
                        regs[instr.dest] = value
                elif op == "call":
                    args = [
                        (operand[1] if operand[0] == "i" else regs[operand[1]])
                        for operand in instr.b
                    ]
                    thread.pc = pc
                    self._push_frame(thread, instr.a, args, instr.dest,
                                     call_line=instr.line)
                    break  # frame changed: re-alias locals
                elif op == "ret":
                    operand = instr.a
                    value = (
                        0
                        if operand is None
                        else (operand[1] if operand[0] == "i" else regs[operand[1]])
                    )
                    thread.pc = pc
                    self._pop_frame(thread, value)
                    break  # frame changed or thread done
                elif op == "spawn":
                    args = [
                        (operand[1] if operand[0] == "i" else regs[operand[1]])
                        for operand in instr.b
                    ]
                    child = self._spawn_thread(instr.a, args, instr.line)
                    if instr.dest is not None:
                        regs[instr.dest] = child.tid
                    if instrument:
                        self._emit_simple(K_SPAWN, child.tid, tid)
                    thread.pc = pc
                    break  # give the scheduler a chance to interleave
                elif op == "join":
                    operand = instr.a
                    target = operand[1] if operand[0] == "i" else regs[operand[1]]
                    if not (0 <= target < len(self.threads)):
                        raise VMError(f"join of unknown thread {target}")
                    if self.threads[target].status == DONE:
                        if instrument:
                            self._emit_simple(K_JOINED, target, tid)
                    else:
                        thread.status = BLOCKED_JOIN
                        thread.wait_target = target
                        thread.pc = pc - 1  # retry the join when woken
                        break
                elif op == "lock":
                    operand = instr.a
                    lock_id = operand[1] if operand[0] == "i" else regs[operand[1]]
                    owner = self._lock_owner.get(lock_id)
                    if owner is None:
                        self._lock_owner[lock_id] = tid
                        if instrument:
                            self._emit_simple(K_LOCK, lock_id, tid)
                    elif owner == tid:
                        raise VMError(f"thread {tid} re-locks lock {lock_id}")
                    else:
                        self._lock_waiters.setdefault(lock_id, deque()).append(tid)
                        thread.status = BLOCKED_LOCK
                        thread.wait_target = lock_id
                        thread.pc = pc - 1  # retry when woken
                        break
                elif op == "unlock":
                    operand = instr.a
                    lock_id = operand[1] if operand[0] == "i" else regs[operand[1]]
                    if self._lock_owner.get(lock_id) != tid:
                        raise VMError(
                            f"thread {tid} unlocks lock {lock_id} it does not own"
                        )
                    del self._lock_owner[lock_id]
                    if instrument:
                        self._emit_simple(K_UNLOCK, lock_id, tid)
                    waiters = self._lock_waiters.get(lock_id)
                    if waiters:
                        woken = waiters.popleft()
                        self.threads[woken].status = RUNNABLE
                        self.threads[woken].wait_target = None
                elif op == "pfork" or op == "ptask":
                    # parallelize transform markers: the scheduler subclass
                    # forks tasks and decides where the thread resumes
                    thread.pc = pc - 1
                    self._parallel_op(thread, instr)
                    break
                else:  # pragma: no cover - exhaustive
                    raise VMError(f"unknown opcode {op!r}")
            else:
                # quantum exhausted mid-block: save resume point
                thread.pc = pc
        self.total_steps += steps


# ---------------------------------------------------------------------------
# builtins
# ---------------------------------------------------------------------------


def _make_builtins() -> dict:
    def _rand(vm: VM, thread: ThreadState, args: list):
        vm._rand_state = (vm._rand_state * 1103515245 + 12345) & 0x7FFFFFFF
        return vm._rand_state

    def _alloc(vm: VM, thread: ThreadState, args: list):
        size = int(args[0])
        base = vm.layout.heap_alloc(size)
        memory = vm.memory
        if len(memory) < base + size:
            memory.extend([0] * (base + size - len(memory)))
        else:
            for i in range(base, base + size):
                memory[i] = 0
        if vm.instrument:
            vm._emit_block(K_ALLOC, base, size, thread.tid)
        return base

    def _free(vm: VM, thread: ThreadState, args: list):
        base = int(args[0])
        size = vm.layout.heap_free(base)
        if vm.instrument:
            vm._emit_block(K_FREE, base, size, thread.tid)
        return 0

    def _print(vm: VM, thread: ThreadState, args: list):
        vm.output.append(tuple(args))
        return 0

    return {
        "rand": _rand,
        "sqrt": lambda vm, t, a: math.sqrt(a[0]) if a[0] >= 0 else 0.0,
        "abs": lambda vm, t, a: abs(a[0]),
        "floor": lambda vm, t, a: math.floor(a[0]),
        "ceil": lambda vm, t, a: math.ceil(a[0]),
        "min": lambda vm, t, a: min(a[0], a[1]),
        "max": lambda vm, t, a: max(a[0], a[1]),
        "exp": lambda vm, t, a: math.exp(min(a[0], 700)),
        "log": lambda vm, t, a: math.log(a[0]) if a[0] > 0 else 0.0,
        "sin": lambda vm, t, a: math.sin(a[0]),
        "cos": lambda vm, t, a: math.cos(a[0]),
        "pow": lambda vm, t, a: math.pow(a[0], a[1]),
        "print": _print,
        "alloc": _alloc,
        "free": _free,
        "__int": lambda vm, t, a: int(a[0]),
        "__float": lambda vm, t, a: float(a[0]),
        "rand_": _rand,
    }


# ---------------------------------------------------------------------------
# convenience entry points
# ---------------------------------------------------------------------------


def run_source(
    source: str,
    *,
    record: bool = True,
    entry: str = "main",
    **vm_kwargs,
):
    """Compile + run MiniC source.  Returns ``(return_value, trace, vm)``
    where ``trace`` is a :class:`TraceSink` (empty when ``record=False``)."""
    module = compile_source(source)
    trace = TraceSink()
    vm = VM(module, trace if record else None, **vm_kwargs)
    result = vm.run(entry)
    return result, trace, vm
