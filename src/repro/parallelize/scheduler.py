"""The parallel scheduler: a work-stealing worker pool over the VM.

:class:`ParallelVM` executes a module rewritten by
:mod:`repro.parallelize.transforms`.  The main program runs as an ordinary
VM thread until it reaches a ``pfork``/``ptask`` instruction; the scheduler
then forks one *task* (a VM thread with a specially prepared root frame)
per chunk or task-graph node, suspends the parent, and resumes it past the
region once every task has completed and the join-time merges (reductions,
``lastprivate`` scalars, the final counter value) have been applied.

**Workers and stealing.**  ``n_workers`` simulated workers each own a task
deque.  Freshly forked tasks land on the forking worker's deque (the
work-first discipline); an idle worker pops its own deque LIFO and steals
FIFO from a victim chosen by a seeded RNG.  Because workers advance in a
fixed lockstep order, a given (module, seed, n_workers, quantum) tuple
always produces the same interleaving — the deterministic seeded mode the
tests rely on.

**Task-graph edges.**  ``ptask`` nodes carry join edges (from the profiled
dependence store, via the task graph): a task is queued only once every
predecessor has completed, so true dependences between tasks are honored
by construction.

**Simulated time.**  Execution advances in ticks; each tick every busy
worker runs its current task for up to ``quantum`` interpreter steps.  The
makespan in *work units* (one unit = one executed MIR instruction) is the
sum over ticks of the longest step count any worker spent in that tick —
serial phases cost their full length, perfectly overlapped phases cost
``1/n_workers`` of theirs.  ``measured speedup = sequential units /
parallel makespan units``, the quantity the validation harness compares
against :mod:`repro.simulate.exec_model` predictions.
"""

from __future__ import annotations

import random as _random
from collections import deque
from time import perf_counter_ns as _perf_counter_ns
from dataclasses import dataclass, field
from typing import Optional

from repro.mir.module import Module
from repro.runtime.interpreter import (
    BLOCKED_FORK,
    DONE,
    RUNNABLE,
    Frame,
    ThreadState,
    VM,
    VMError,
)
from repro.parallelize.plan import DoallPlan, TaskPlan, TransformPlan


@dataclass
class SchedulerStats:
    """Observable behaviour of one ParallelVM run."""

    n_workers: int = 0
    ticks: int = 0
    #: simulated makespan: sum over ticks of the longest per-worker burst
    makespan_units: int = 0
    #: total interpreter steps across all workers
    total_units: int = 0
    tasks_forked: int = 0
    forks: int = 0
    steals: int = 0
    #: per-worker busy units
    worker_units: list[int] = field(default_factory=list)

    @property
    def utilization(self) -> float:
        denom = self.makespan_units * max(1, self.n_workers)
        return self.total_units / denom if denom else 0.0

    def to_dict(self) -> dict:
        return {
            "n_workers": self.n_workers,
            "ticks": self.ticks,
            "makespan_units": self.makespan_units,
            "total_units": self.total_units,
            "tasks_forked": self.tasks_forked,
            "forks": self.forks,
            "steals": self.steals,
            "worker_units": list(self.worker_units),
            "utilization": self.utilization,
        }


class _ForkRecord:
    """Join-time bookkeeping for one executed pfork/ptask."""

    __slots__ = (
        "parent",
        "resume_pc",
        "plan",
        "remaining",
        "chunk_values",
        "initial",
        "waiting",
        "indegree",
        "node_of_thread",
    )

    def __init__(self, parent: ThreadState, resume_pc: int, plan) -> None:
        self.parent = parent
        self.resume_pc = resume_pc
        self.plan = plan
        self.remaining = 0
        #: chunk index -> {slot: final value} captured at chunk completion
        self.chunk_values: dict[int, dict] = {}
        #: slot -> value at fork time (the reduction identity base)
        self.initial: dict[int, object] = {}
        #: node_id -> (func, deps outstanding) for ptask graphs
        self.waiting: dict[int, object] = {}
        self.indegree: dict[int, int] = {}
        self.node_of_thread: dict[int, int] = {}


class _Worker:
    __slots__ = ("wid", "deque", "current")

    def __init__(self, wid: int) -> None:
        self.wid = wid
        self.deque: deque[ThreadState] = deque()
        self.current: Optional[ThreadState] = None


class ParallelVM(VM):
    """Executes a transformed module on a work-stealing worker pool."""

    def __init__(
        self,
        module: Module,
        plan: TransformPlan,
        *,
        n_workers: int = 4,
        quantum: int = 256,
        **vm_kwargs,
    ) -> None:
        vm_kwargs.setdefault("instrument", False)
        super().__init__(module, None, **vm_kwargs)
        self.plan = plan
        self.n_workers = max(1, n_workers)
        self.task_quantum = max(1, quantum)
        self.stats = SchedulerStats(n_workers=self.n_workers)
        self._steal_rng = _random.Random(vm_kwargs.get("seed", 12345))
        self._workers = [_Worker(w) for w in range(self.n_workers)]
        self._active_worker: Optional[_Worker] = None
        #: fork record per suspended parent tid
        self._forks: dict[int, _ForkRecord] = {}
        #: fork record that owns a given task tid
        self._fork_of_task: dict[int, _ForkRecord] = {}
        #: recycled thread slots (stack regions are reused across rounds)
        self._free_tids: list[int] = []
        #: threads blocked on a lock/join, waiting to be re-enqueued
        self._parked: list[ThreadState] = []

    # ------------------------------------------------------------------
    # task-thread construction
    # ------------------------------------------------------------------

    def _spawn_thread(self, func_name, args, call_line: int = 0):
        """Native ``spawn`` opcodes executed inside a task (or the main
        thread) hand their child to the worker pool."""
        thread = super()._spawn_thread(func_name, args, call_line)
        if self._active_worker is not None:
            self._active_worker.deque.append(thread)
        return thread

    def _alloc_thread(self) -> ThreadState:
        if self._free_tids:
            tid = self._free_tids.pop()
        else:
            tid = len(self.threads)
            self.threads.append(None)  # placeholder, replaced below
        thread = self._new_thread(tid)
        self.threads[tid] = thread
        return thread

    def _fork_task_thread(
        self,
        func_name: str,
        parent: ThreadState,
        *,
        privatize_frame: bool,
    ) -> ThreadState:
        """A task thread whose root frame forks the parent's state.

        ``privatize_frame=True`` (DOALL chunks) copies the parent frame into
        the task's own stack region — every local becomes task-private.
        ``False`` (task-graph nodes) aliases the parent frame so tasks
        communicate through it like the sequential code did.  Either way the
        parent's registers (array-parameter bases, live temporaries) are
        snapshotted.
        """
        func = self.module.functions[func_name]
        parent_frame = parent.frames[-1]
        thread = self._alloc_thread()
        if privatize_frame:
            base = thread.sp
            size = func.frame_size
            limit = self.layout.stack_limit(thread.tid)
            if base + size > limit:
                raise VMError(f"stack overflow forking {func_name}")
            memory = self.memory
            src = parent_frame.frame_base
            copy = parent_frame.func.frame_size
            memory[base : base + copy] = memory[src : src + copy]
            for i in range(base + copy, base + size):
                memory[i] = 0
            thread.sp = base + size
        else:
            base = parent_frame.frame_base
        frame = Frame(func, base, ret_dest=None)
        n = min(len(parent_frame.regs), len(frame.regs))
        frame.regs[:n] = parent_frame.regs[:n]
        thread.frames.append(frame)
        thread.pc = 0
        self.stats.tasks_forked += 1
        return thread

    def _release_thread(self, thread: ThreadState) -> None:
        self._free_tids.append(thread.tid)

    # ------------------------------------------------------------------
    # pfork / ptask
    # ------------------------------------------------------------------

    def _parallel_op(self, thread: ThreadState, instr) -> None:
        entry = self.plan.entries[instr.a]
        record = _ForkRecord(thread, instr.b, entry)
        self.stats.forks += 1
        worker = self._active_worker
        assert worker is not None, "parallel op outside the scheduler loop"
        if isinstance(entry, DoallPlan):
            self._fork_doall(thread, entry, record, worker)
        elif isinstance(entry, TaskPlan):
            self._fork_taskgraph(thread, entry, record, worker)
        else:  # pragma: no cover - plans are built by the transforms
            raise VMError(f"unknown plan entry for {instr.op!r}")
        thread.status = BLOCKED_FORK
        self._forks[thread.tid] = record

    def _merge_addr(self, record: _ForkRecord, slot: int) -> int:
        """Where a merged slot value lives in the parent's address space."""
        plan = record.plan
        home = plan.global_homes.get(slot)
        if home is not None:
            return home
        return record.parent.frames[-1].frame_base + slot

    def _fork_doall(
        self,
        thread: ThreadState,
        plan: DoallPlan,
        record: _ForkRecord,
        worker: _Worker,
    ) -> None:
        merge_slots = set(plan.reduction_slots.values()) | set(
            plan.private_slots.values()
        )
        for slot in merge_slots:
            record.initial[slot] = self.memory[self._merge_addr(record, slot)]
        for chunk in plan.chunks:
            task = self._fork_task_thread(
                chunk.function, thread, privatize_frame=True
            )
            record.remaining += 1
            record.node_of_thread[task.tid] = chunk.index
            self._fork_of_task[task.tid] = record
            worker.deque.append(task)

    def _fork_taskgraph(
        self,
        thread: ThreadState,
        plan: TaskPlan,
        record: _ForkRecord,
        worker: _Worker,
    ) -> None:
        record.indegree = {t.node_id: len(t.deps) for t in plan.tasks}
        record.waiting = {t.node_id: t for t in plan.tasks}
        record.remaining = len(plan.tasks)
        for spec in plan.tasks:
            if record.indegree[spec.node_id] == 0:
                self._launch_task_node(record, spec, worker)

    def _launch_task_node(self, record: _ForkRecord, spec, worker) -> None:
        task = self._fork_task_thread(
            spec.function, record.parent, privatize_frame=False
        )
        record.node_of_thread[task.tid] = spec.node_id
        self._fork_of_task[task.tid] = record
        del record.waiting[spec.node_id]
        worker.deque.append(task)

    # ------------------------------------------------------------------
    # completion / join
    # ------------------------------------------------------------------

    def _on_task_done(self, task: ThreadState, worker: _Worker) -> None:
        record = self._fork_of_task.pop(task.tid, None)
        if record is None:
            return
        plan = record.plan
        node = record.node_of_thread.pop(task.tid, None)
        if isinstance(plan, DoallPlan):
            # capture the chunk-final values of every merged slot before the
            # stack region is recycled (the root frame sat at the stack base)
            fb = self.layout.stack_base(task.tid)
            slots = set(plan.reduction_slots.values()) | set(
                plan.private_slots.values()
            )
            record.chunk_values[node] = {
                slot: self.memory[fb + slot] for slot in slots
            }
        else:
            # release successors whose dependences are now satisfied
            for succ in list(record.waiting):
                spec = record.waiting[succ]
                if node in spec.deps:
                    record.indegree[succ] -= 1
            for succ in list(record.waiting):
                if record.indegree[succ] == 0:
                    self._launch_task_node(record, record.waiting[succ],
                                           worker)
        self._release_thread(task)
        record.remaining -= 1
        if record.remaining == 0:
            self._join(record, worker)

    def _join(self, record: _ForkRecord, worker: _Worker) -> None:
        parent = record.parent
        plan = record.plan
        if isinstance(plan, DoallPlan):
            memory = self.memory
            # reductions: v0 + sum(v_k - v0), merged in chunk order so
            # float results are schedule-independent
            for _name, slot in sorted(plan.reduction_slots.items()):
                v0 = record.initial[slot]
                value = v0
                for k in sorted(record.chunk_values):
                    value = value + (record.chunk_values[k][slot] - v0)
                memory[self._merge_addr(record, slot)] = value
            # lastprivate: the final chunk executed the final iterations
            if record.chunk_values:
                last = max(record.chunk_values)
                for _name, slot in sorted(plan.private_slots.items()):
                    memory[self._merge_addr(record, slot)] = (
                        record.chunk_values[last][slot]
                    )
            # the loop counter's post-loop value
            parent_fb = parent.frames[-1].frame_base
            memory[parent_fb + plan.iter_slot] = plan.final_value
        parent.pc = record.resume_pc
        parent.status = RUNNABLE
        del self._forks[parent.tid]
        worker.deque.append(parent)

    # ------------------------------------------------------------------
    # the scheduler loop
    # ------------------------------------------------------------------

    def _steal(self, thief: _Worker) -> Optional[ThreadState]:
        victims = [w for w in self._workers if w is not thief and w.deque]
        if not victims:
            return None
        victim = victims[self._steal_rng.randrange(len(victims))]
        self.stats.steals += 1
        return victim.deque.popleft()

    def run(self, entry: str = "main", args: Optional[list] = None):
        """Run to completion under the worker pool; returns main's value."""
        try:
            return self._run_pool(entry, args)
        finally:
            self._release_compiled()

    def _run_pool(self, entry: str, args: Optional[list]):
        tracer = self.tracer
        traced = tracer is not None and tracer.enabled
        if traced:
            tracer.begin("pvm.run", "pvm", entry=entry,
                         n_workers=self.n_workers)
        main_thread = self._spawn_thread(entry, args or [])
        workers = self._workers
        workers[0].current = main_thread
        stats = self.stats
        stats.worker_units = [0] * self.n_workers
        quantum = self.task_quantum
        # like the base VM, run until *every* thread completes — a spawned
        # thread main never joins still owes its writes to the final state
        while any(
            t is not None and t.status != DONE for t in self.threads
        ):
            tick_longest = 0
            ran_any = False
            # threads woken from a lock/join (by the interpreter's native
            # wake paths) rejoin the pool deterministically by thread id
            for thread in list(self._parked):
                if thread.status == RUNNABLE:
                    self._parked.remove(thread)
                    workers[thread.tid % self.n_workers].deque.append(thread)
            for worker in workers:
                current = worker.current
                if current is not None and current.status != RUNNABLE:
                    worker.current = current = None
                if current is None:
                    if worker.deque:
                        current = worker.deque.pop()
                    else:
                        current = self._steal(worker)
                    if current is not None and current.status != RUNNABLE:
                        current = None  # defensive: never run a blocked task
                    worker.current = current
                if current is None:
                    continue
                ran_any = True
                self._active_worker = worker
                before = self.total_steps
                if traced:
                    t0 = _perf_counter_ns()
                    self._run_thread(current, quantum)
                    tracer.complete(
                        "pvm.burst",
                        "pvm",
                        t0,
                        _perf_counter_ns() - t0,
                        lane=f"pvm.w{worker.wid}",
                        args={
                            "tid": current.tid,
                            "steps": self.total_steps - before,
                        },
                    )
                else:
                    self._run_thread(current, quantum)
                burst = self.total_steps - before
                self._active_worker = None
                stats.worker_units[worker.wid] += burst
                stats.total_units += burst
                tick_longest = max(tick_longest, burst)
                if current.status == DONE:
                    # joiners were already woken by the interpreter's own
                    # end-of-thread path in _run_thread
                    worker.current = None
                    self._on_task_done(current, worker)
                elif current.status != RUNNABLE:
                    # blocked: the worker moves on.  Fork parents are
                    # re-enqueued by the join; lock/join waiters park
                    # until a wake makes them runnable again.
                    if current.status != BLOCKED_FORK:
                        self._parked.append(current)
                    worker.current = None
            stats.ticks += 1
            stats.makespan_units += tick_longest
            if not ran_any:  # live threads remain but every worker is idle
                blocked = [
                    t.tid
                    for t in self.threads
                    if t is not None and t.status != DONE
                ]
                raise VMError(
                    f"parallel scheduler stalled: threads {blocked} blocked"
                )
        self._flush()
        if traced:
            tracer.end()
        return main_thread.return_value
