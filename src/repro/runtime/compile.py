"""Compile-once, closure-specialized MIR execution.

The switch interpreter (:meth:`repro.runtime.interpreter.VM._run_thread_switch`)
pays a string-compare dispatch chain, operand re-decoding, and a per-event
tuple build for *every executed instruction*.  This module removes all
three costs by decoding each :class:`~repro.mir.module.Function` **once**
into a table of specialized closures:

* operands, address modes, branch targets, and builtin bindings are
  resolved at compile time and captured as closure constants;
* the columnar event metadata of every load/store (``name_id``,
  ``var_code``, the ``K_*`` kind code, line, ``op_id``) is pre-interned,
  so the traced variant stages pure-int rows straight into the
  :class:`~repro.runtime.events.ChunkBuilder` staging list — no
  intermediate tuple rebuild, no ``_emit`` call;
* hot instruction sequences are fused into **superinstructions**: one
  closure executes a whole straight-line run in a single dispatch.

**Superinstruction selection.**  Fusion candidates come from the static
opcode-bigram census over the workload registry (:func:`bigram_census`;
all 50 registry workloads at selection time)::

    load+bin   1402      jmp+load    493      bin+br     318
    load+load   738      store+jmp   492      iter+jmp   269
    bin+store   597      addr+load   466      store+iter 260

The named hot bigrams — load+binop, binop+store, compare+branch — chain
into longer straight-line sequences (``load+bin+store`` is ``load+bin``
composed with ``bin+store``; a loop latch is ``store+iter+jmp``), so the
compiler generalizes pairwise fusion to **maximal straight-line runs**:
every run of non-control instructions (plus an optional ``br``/``jmp``
terminator, realizing compare-and-branch) compiles to one specialized
closure.  Runs break at branch targets so loop heads always enter a
fused closure.  The closure bodies are generated Python source —
operands inlined as literals, one ``frame.regs``/``vm.ts`` access per
run instead of per instruction — compiled once per table (see the
dispatch contract below).

**One emitter.**  The run compiler (:class:`_RunCompiler`) is the only
code generator: a single-instruction closure is a run of length one,
generated from the same per-opcode rules as the fused runs.  Only the
six opcodes no run may contain — ``spawn``, ``join``, ``lock``,
``unlock``, ``pfork``, ``ptask`` — keep hand-written closure makers.

Each function compiles to **two variants**, selected by the owning VM:

* **traced** — emits the instrumentation event stream;
* **untraced** — zero instrumentation branches; used by the
  ``validate.py`` sequential reruns and by
  :class:`~repro.parallelize.scheduler.ParallelVM` task bodies.

**Dispatch contract.**  A compiled closure takes ``(thread, frame)`` and
returns the next code index, or ``-1`` for a control transfer (call/ret/
spawn/block/parallel fork) after storing the resume point in
``thread.pc``.  ``CompiledCode.fns[i]`` executes the instruction(s)
starting at index ``i`` (``costs[i]`` of them); ``alts[i]`` always
executes exactly instruction ``i``, and is ``fns[i]`` itself wherever
``costs[i] == 1``.  The runner falls back to ``alts[i]`` when a fused
run would overrun the thread's quantum, so step counts — and therefore
scheduler interleavings and the emitted trace — stay **bit-identical**
to the switch loop.  Entering the middle of a fused run (a rare
quantum-edge resume) is always safe: every index has its
single-instruction closure in ``alts``.  Both variants build their
tables lazily: a function's fused runs on its first fused dispatch, the
single-instruction closures of one run (or of one instruction in no
run) on the first single-instruction dispatch into it.  A function that
never dispatches a single-instruction closure never generates or
compiles one.
"""

from __future__ import annotations

import math
from collections import Counter, deque
from typing import TYPE_CHECKING
from weakref import WeakKeyDictionary

from repro.mir.instructions import BINOPS, UNOPS
from repro.runtime.events import (
    K_BGN,
    K_ITER,
    K_JOINED,
    K_LOCK,
    K_READ,
    K_SPAWN,
    K_UNLOCK,
    K_WRITE,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.mir.module import Function
    from repro.runtime.interpreter import VM

#: straight-line opcodes fusable into a superinstruction run: they never
#: block, never transfer control, never touch the frame stack
INLINE_OPS = frozenset(
    {
        "const",
        "bin",
        "un",
        "load",
        "store",
        "addr",
        "enter",
        "exit",
        "iter",
        "callb",
    }
)

#: opcodes that may terminate a run: compare-and-branch fusion, plus
#: frame transfers whose argument/return setup fuses through the
#: transfer (the ``addr+load+...+call`` pattern of call-heavy code)
RUN_TERMINATORS = frozenset({"br", "jmp", "call", "ret"})

#: binary operators inlined as native Python arithmetic
_ARITH = frozenset({"+", "-", "*"})
_CMP = frozenset({"<", "<=", ">", ">=", "==", "!="})
_BITS = frozenset({"&", "|", "^", "<<", ">>"})


class CompiledCode:
    """One compiled function variant: closure table + step costs.

    ``fns[i]`` runs ``costs[i]`` instructions starting at ``i``;
    ``alts[i]`` is the single-instruction fallback used at quantum edges.
    ``n_fused`` counts superinstruction closures (fused runs).
    """

    __slots__ = ("fns", "costs", "alts", "n_fused", "traced")

    def __init__(self, fns, costs, alts, traced: bool) -> None:
        self.fns = fns
        self.costs = costs
        self.alts = alts
        self.traced = traced
        self.n_fused = sum(1 for c in costs if c > 1)


def bigram_census(modules=None) -> Counter:
    """Static opcode-bigram frequencies, the superinstruction evidence.

    With no ``modules``, censuses every registry workload at scale 1 —
    the population the fusion set was chosen from.
    """
    if modules is None:
        from repro.workloads import REGISTRY

        modules = []
        for workload in REGISTRY.values():
            try:
                modules.append(workload.compile(1))
            except Exception:  # pragma: no cover - registry compiles
                continue
    counts: Counter = Counter()
    for module in modules:
        for func in module.functions.values():
            code = func.code
            for i in range(len(code) - 1):
                counts[(code[i].op, code[i + 1].op)] += 1
    return counts


# ---------------------------------------------------------------------------
# compilation entry point
# ---------------------------------------------------------------------------


def compile_function(vm: "VM", func: "Function") -> CompiledCode:
    """Decode ``func`` into a closure table for ``vm``.

    The variant (traced / untraced) follows ``vm.instrument``; traced
    compilation requires the VM's columnar event state (the engine's
    default pipeline).

    Closures are generated lazily.  Most runs touch a fraction of the
    instruction space (validate reruns, ParallelVM task bodies, short
    call-heavy recursions), and a single-threaded run seldom dispatches
    a single-instruction closure at all.  So every generated slot starts
    as a self-replacing trampoline.  The first dispatch into a fused run
    generates all of the function's runs; the first single-instruction
    dispatch into a run generates the singles of that run, and a loose
    instruction (in no run) gets its single alone.  Either patches the
    tables and runs the real closure, and later dispatches hit it with
    zero indirection.  The blocking opcodes' closures compile nothing
    and are made at once.
    """
    traced = vm.instrument
    code = func.code
    runs = find_runs(code)
    costs = [1] * len(code)
    for start, end in runs:
        costs[start] = end - start
    fns: list = []
    alts: list = []

    def install(spans) -> None:
        table = _generated(vm, func, traced, spans)
        for start, end in spans:
            if end - start == 1:
                alts[start] = table[start]
            if end - start == costs[start]:
                fns[start] = table[start]

    def lazy(table: list, i: int, spans):
        def trampoline(thread, frame):
            install(spans)
            return table[i](thread, frame)

        return trampoline

    group_end = 0
    for i, instr in enumerate(code):
        maker = _MAKERS.get(instr.op)
        if maker is not None:
            alts.append(maker(vm, i, instr))
        else:
            if i >= group_end:  # a run, or a loose instruction, starts here
                group_end = i + costs[i]
                singles = [(j, j + 1) for j in range(i, group_end)]
            alts.append(lazy(alts, i, singles))
        fns.append(lazy(fns, i, runs) if costs[i] > 1 else alts[i])
    return CompiledCode(fns, costs, alts, traced)


#: generated-source cache: Function -> {(first span, traced,
#: chunk_size): entry}.  The generated source depends only on the
#: function's instructions, the module-derived metadata (interned name
#: ids are deterministic per module), the spans, the variant, and the
#: flush threshold — so the expensive string build + ``compile()`` runs
#: once per function and table, and later VMs only re-bind the closures
#: over their own captured state.
_GENERATED: "WeakKeyDictionary" = WeakKeyDictionary()

#: source-text -> compiled code object.  Recompiling the same workload
#: (bench repetitions, per-suggestion module clones in the parallelize
#: phase) regenerates an identical source string, so ``compile()`` — by
#: far the most expensive codegen step — runs once per distinct text.
#: Bounded so a long-lived process over many distinct modules (the batch
#: runner) cannot grow it without limit.
_CODE_OBJECTS: dict[str, object] = {}
_CODE_OBJECTS_MAX = 1024


def _generated(vm, func, traced: bool, spans: list) -> dict:
    """``{start: closure}`` over ``spans`` of ``func``: all of its fused
    runs, or the single-instruction spans of one run or loose
    instruction.  The first span names the table: a run spans two or
    more instructions, a single one.
    """
    per_func = _GENERATED.setdefault(func, {})
    key = (spans[0], traced, vm.chunk_size if traced else 0)
    entry = per_func.get(key)
    if entry is None:
        compiler = _RunCompiler(vm, func, traced)
        src = compiler.source(spans)
        code_obj = _CODE_OBJECTS.get(src)
        if code_obj is None:
            filename = f"mir-compile:{func.name}#{len(_CODE_OBJECTS)}"
            code_obj = compile(src, filename, "exec")
            if len(_CODE_OBJECTS) >= _CODE_OBJECTS_MAX:
                _CODE_OBJECTS.clear()
            _CODE_OBJECTS[src] = code_obj
        entry = per_func[key] = (
            code_obj, list(compiler.params.items()), _Source(src)
        )
    code_obj, spec, loader = entry
    namespace = {
        "len": len,
        "__name__": code_obj.co_filename,
        "__loader__": loader,
    }
    exec(code_obj, namespace)
    return namespace["_factory"](
        *(_resolve_capture(vm, kind, arg) for _, (kind, arg) in spec)
    )


class _Source:
    """PEP 302 ``get_source`` of one generated module.  Tracebacks and
    debuggers read the source through it (``linecache.lazycache``), so
    no line list is kept for the many sources nobody looks at."""

    __slots__ = ("text",)

    def __init__(self, text: str) -> None:
        self.text = text

    def get_source(self, name: str) -> str:
        return self.text


def _resolve_capture(vm, kind: str, arg):
    """A factory argument for this VM (see _RunCompiler.params)."""
    if kind == "vm":
        return vm
    if kind == "memory":
        return vm.memory
    if kind == "buf":
        return vm._buffer
    if kind == "extend":
        return vm._buffer.extend
    if kind == "flush":
        return vm._flush
    if kind == "intern":
        return vm._intern_sig
    if kind == "close_region":
        return vm._close_region_entry
    if kind == "binop":
        return BINOPS[arg]
    if kind == "unop":
        return UNOPS[arg]
    if kind == "builtin":
        return vm._builtins[arg]
    if kind == "push_frame":
        return vm._push_frame
    if kind == "pop_frame":
        return vm._pop_frame
    if kind == "const":
        return arg
    raise ValueError(f"unknown capture kind {kind!r}")  # pragma: no cover


def find_runs(code) -> list[tuple[int, int]]:
    """Maximal fusable runs ``[start, end)`` of length >= 2.

    Runs contain only :data:`INLINE_OPS`, optionally closed by one
    :data:`RUN_TERMINATORS` instruction, and never *cross* a branch
    target — a target starts a fresh run so loop heads dispatch straight
    into a superinstruction.
    """
    n = len(code)
    targets = set()
    for instr in code:
        op = instr.op
        if op == "jmp":
            targets.add(instr.a)
        elif op == "br":
            targets.add(instr.b)
            targets.add(instr.c)
        elif op == "pfork" or op == "ptask":
            targets.add(instr.b)  # the post-region resume index
    runs = []
    i = 0
    while i < n:
        if code[i].op not in INLINE_OPS:
            i += 1
            continue
        j = i + 1
        while j < n and j not in targets and code[j].op in INLINE_OPS:
            j += 1
        if j < n and j not in targets and code[j].op in RUN_TERMINATORS:
            j += 1
        if j - i >= 2:
            runs.append((i, j))
        i = j
    return runs


# ---------------------------------------------------------------------------
# closure codegen: fused runs and single instructions alike
# ---------------------------------------------------------------------------


class _RunCompiler:
    """Generates one Python function per span ``[start, end)`` — a fused
    run, or a single instruction — assembled into a single factory module
    per MIR function and table.

    Captured state (the VM, its memory list, the flat staging list and
    its bound ``extend``, interning and region helpers, builtins,
    non-finite immediates) enters through factory parameters, so the
    generated bodies read everything through fast cell variables.
    ``params`` records *how to resolve* each capture — name -> (kind,
    arg) — so a cached code object can be re-bound over any later VM of
    the same module.
    """

    def __init__(self, vm: "VM", func: "Function", traced: bool) -> None:
        self.vm = vm
        self.func = func
        self.traced = traced
        self.params: dict[str, tuple] = {
            "vm": ("vm", None),
            "memory": ("memory", None),
            "close_region": ("close_region", None),
        }
        if traced:
            self.params["intern"] = ("intern", None)
            self.params["buf"] = ("buf", None)
            self.params["extend"] = ("extend", None)
            self.params["flush"] = ("flush", None)
        self._builtin_names: dict[str, str] = {}

    # -- captured helpers ----------------------------------------------

    def _param(self, name: str, kind: str, arg=None) -> str:
        self.params.setdefault(name, (kind, arg))
        return name

    def _builtin(self, name: str) -> str:
        pyname = self._builtin_names.get(name)
        if pyname is None:
            pyname = f"_b{len(self._builtin_names)}"
            self._builtin_names[name] = pyname
            self.params[pyname] = ("builtin", name)
        return pyname

    def _literal(self, value) -> str:
        # repr(inf) / repr(nan) are bare names, not literals: capture
        # the value itself (each occurrence keeps its own float object)
        if isinstance(value, float) and not math.isfinite(value):
            return self._param(f"_k{len(self.params)}", "const", value)
        return repr(value)

    def _operand(self, operand) -> str:
        tag, value = operand
        return self._literal(value) if tag == "i" else f"regs[{value}]"

    # -- assembly ------------------------------------------------------

    def source(self, spans: list[tuple[int, int]]) -> str:
        defs = []
        for start, end in spans:
            defs.append(self._run_source(start, end))
        table_src = ", ".join(f"{start}: _r{start}" for start, _ in spans)
        # params are collected while generating run sources, so the
        # factory header is rendered last
        body = "\n".join(defs)
        return (
            f"def _factory({', '.join(self.params)}):\n"
            + _indent(body, 1)
            + f"\n    return {{{table_src}}}\n"
        )

    def _run_source(self, start: int, end: int) -> str:
        traced = self.traced
        code = self.func.code
        ops = code[start:end]
        k = end - start
        last = ops[-1].op
        has_event = traced and any(
            o.op in ("load", "store", "enter", "iter") for o in ops
        )
        has_mem_event = traced and any(
            o.op in ("load", "store") for o in ops
        )
        uses_regs = any(
            _uses_regs(o) for o in ops
        )
        uses_fb = any(_uses_fb(o) for o in ops)
        lines = [f"def _r{start}(th, frame):"]
        if uses_regs:
            lines.append("    regs = frame.regs")
        if uses_fb:
            lines.append("    fb = frame.frame_base")
        lines.append("    ts = vm.ts")
        if has_event:
            lines.append("    tid = th.tid")
        if has_mem_event:
            lines.append("    sig = th.sig_id")
        for j, instr in enumerate(ops):
            self._op_source(lines, instr, j, k, end, has_mem_event)
        if last not in RUN_TERMINATORS:
            if last not in ("exit", "callb"):  # those sync vm.ts already
                lines.append(f"    vm.ts = ts + {k}")
            lines.append(f"    return {end}")
        return "\n".join(lines)

    # -- per-opcode emission -------------------------------------------

    def _op_source(
        self, lines: list, instr, j: int, k: int, end: int,
        has_mem_event: bool,
    ) -> None:
        op = instr.op
        if op == "load":
            self._mem_source(lines, instr, j, load=True)
        elif op == "store":
            self._mem_source(lines, instr, j, load=False)
        elif op == "bin":
            lines.append(f"    {self._bin_src(instr)}")
        elif op == "un":
            lines.append(f"    {self._un_src(instr)}")
        elif op == "const":
            lines.append(f"    regs[{instr.dest}] = {self._literal(instr.a)}")
        elif op == "addr":
            lines.append(f"    {self._addr_src(instr)}")
        elif op == "enter":
            self._enter_source(lines, instr, j, has_mem_event)
        elif op == "iter":
            self._iter_source(lines, instr, j, has_mem_event)
        elif op == "exit":
            self._exit_source(lines, instr, j, has_mem_event)
        elif op == "callb":
            self._callb_source(lines, instr, j)
        elif op == "br":
            cond = self._operand(instr.a)
            lines.append(f"    vm.ts = ts + {k}")
            lines.append(f"    if {cond}:")
            lines.append(f"        return {instr.b}")
            lines.append(f"    return {instr.c}")
        elif op == "jmp":
            lines.append(f"    vm.ts = ts + {k}")
            lines.append(f"    return {instr.a}")
        elif op == "call":
            push = self._param("push_frame", "push_frame")
            args = ", ".join(self._operand(o) for o in instr.b)
            lines.append(f"    vm.ts = ts + {k}")
            lines.append(f"    th.pc = {end}")
            lines.append(
                f"    {push}(th, {instr.a!r}, [{args}], {instr.dest!r}, "
                f"call_line={instr.line})"
            )
            lines.append("    return -1")
        elif op == "ret":
            pop = self._param("pop_frame", "pop_frame")
            operand = instr.a
            value = "0" if operand is None else self._operand(operand)
            lines.append(f"    vm.ts = ts + {k}")
            lines.append(f"    th.pc = {end}")
            lines.append(f"    {pop}(th, {value})")
            lines.append("    return -1")
        else:  # pragma: no cover - MIR opcodes are a closed set
            raise ValueError(f"unknown opcode {op!r}")

    def _mem_source(self, lines: list, instr, j: int, *, load: bool) -> None:
        space, base = instr.a
        if space == "g":
            addr = str(base)
        elif space == "f":
            lines.append(f"    _a = fb + {base}")
            addr = "_a"
        else:
            lines.append(f"    _a = regs[{base}]")
            addr = "_a"
        if load:
            lines.append(f"    regs[{instr.dest}] = memory[{addr}]")
        else:
            lines.append(f"    memory[{addr}] = {self._operand(instr.b)}")
        if not self.traced:
            return
        name_id, var_code = self.vm._op_meta[instr.op_id]
        kind = K_READ if load else K_WRITE
        lines.append(
            f"    extend(({kind}, {addr}, {instr.line}, {name_id}, "
            f"{instr.op_id}, tid, ts + {j + 1}, sig, {var_code}))"
        )
        self._flush_check(lines)

    def _flush_check(self, lines: list) -> None:
        # flat staging: N_COLS ints per event, so the threshold scales
        lines.append(f"    if len(buf) >= {self.vm.chunk_size * 9}:")
        lines.append("        flush()")

    def _bin_src(self, instr) -> str:
        bop = instr.a
        d = instr.dest
        x = self._operand(instr.b)
        y = self._operand(instr.c)
        if bop in _ARITH:
            return f"regs[{d}] = {x} {bop} {y}"
        if bop in _CMP:
            return f"regs[{d}] = 1 if {x} {bop} {y} else 0"
        if bop in _BITS:
            return f"regs[{d}] = int({x}) {bop} int({y})"
        if bop == "/":
            return f"regs[{d}] = {self._param('_div', 'binop', '/')}({x}, {y})"
        if bop == "%":
            return f"regs[{d}] = {self._param('_mod', 'binop', '%')}({x}, {y})"
        # defensively handle any future operator through its table entry
        fn = self._param(f"_bop{sorted(BINOPS).index(bop)}", "binop", bop)
        return f"regs[{d}] = {fn}({x}, {y})"

    def _un_src(self, instr) -> str:
        uop = instr.a
        d = instr.dest
        x = self._operand(instr.b)
        if uop == "-":
            return f"regs[{d}] = -{x}"
        if uop == "!":
            return f"regs[{d}] = 1 if not {x} else 0"
        if uop == "~":
            return f"regs[{d}] = ~int({x})"
        fn = self._param(f"_uop{sorted(UNOPS).index(uop)}", "unop", uop)
        return f"regs[{d}] = {fn}({x})"  # pragma: no cover - exhaustive

    def _addr_src(self, instr) -> str:
        space = instr.a
        d = instr.dest
        tag, value = instr.c
        if space == "g":
            if tag == "i":
                return f"regs[{d}] = {instr.b + value}"
            return f"regs[{d}] = {instr.b} + regs[{value}]"
        if space == "f":
            if tag == "i":
                return f"regs[{d}] = fb + {instr.b + value}"
            return f"regs[{d}] = fb + {instr.b} + regs[{value}]"
        if tag == "i":
            return f"regs[{d}] = regs[{instr.b}] + {value}"
        return f"regs[{d}] = regs[{instr.b}] + regs[{value}]"

    def _enter_source(
        self, lines: list, instr, j: int, has_mem_event: bool
    ) -> None:
        vm = self.vm
        rid = instr.a
        kind = vm._region_kind[rid]
        start_line = vm._region_start[rid]
        lines.append(
            f"    frame.region_stack.append([{rid}, {kind!r}, {start_line}])"
        )
        if kind == "loop":
            lines.append(f"    th.loop_stack.append([{rid}, 0])")
            if self.traced:
                lines.append("    intern(th)")
            if has_mem_event:
                lines.append("    sig = th.sig_id")
        if self.traced:
            kind_id = vm._region_kind_id[rid]
            lines.append(
                f"    extend(({K_BGN}, {rid}, {start_line}, {kind_id}, 0, "
                f"tid, ts + {j + 1}, 0, 0))"
            )
            self._flush_check(lines)

    def _iter_source(
        self, lines: list, instr, j: int, has_mem_event: bool
    ) -> None:
        lines.append("    th.loop_stack[-1][1] += 1")
        if self.traced:
            lines.append("    intern(th)")
        if has_mem_event:
            lines.append("    sig = th.sig_id")
        if self.traced:
            lines.append(
                f"    extend(({K_ITER}, {instr.a}, 0, 0, 0, tid, "
                f"ts + {j + 1}, 0, 0))"
            )
            self._flush_check(lines)

    def _exit_source(
        self, lines: list, instr, j: int, has_mem_event: bool
    ) -> None:
        # close_region emits END records reading vm.ts: sync it first
        lines.append(f"    vm.ts = ts + {j + 1}")
        lines.append("    _rs = frame.region_stack")
        lines.append("    while _rs:")
        lines.append("        _e = _rs.pop()")
        lines.append("        close_region(th, frame, _e)")
        lines.append(f"        if _e[0] == {instr.a}:")
        lines.append("            break")
        if has_mem_event:
            lines.append("    sig = th.sig_id")

    def _callb_source(self, lines: list, instr, j: int) -> None:
        # builtins may emit ALLOC/FREE records reading vm.ts: sync it
        args = ", ".join(self._operand(o) for o in instr.b)
        call = f"{self._builtin(instr.a)}(vm, th, [{args}])"
        lines.append(f"    vm.ts = ts + {j + 1}")
        if instr.dest is None:
            lines.append(f"    {call}")
        else:
            lines.append(f"    regs[{instr.dest}] = {call}")


def _indent(text: str, levels: int) -> str:
    pad = "    " * levels
    return "\n".join(pad + line if line else line for line in text.split("\n"))


def _uses_regs(instr) -> bool:
    op = instr.op
    if op in ("enter", "exit", "iter", "jmp"):
        return False
    if op == "br":
        return instr.a[0] == "r"
    if op == "callb":
        return instr.dest is not None or any(
            tag == "r" for tag, _ in instr.b
        )
    return True


def _uses_fb(instr) -> bool:
    op = instr.op
    if op in ("load", "store"):
        return instr.a[0] == "f"
    return op == "addr" and instr.a == "f"


# ---------------------------------------------------------------------------
# closure makers for the opcodes no run may contain: they block, spawn or
# fork, and always dispatch on their own
# ---------------------------------------------------------------------------


def _argspec(operands) -> tuple:
    return tuple((tag == "i", v) for tag, v in operands)


def _make_spawn(vm, pc, instr):
    nxt = pc + 1
    fname = instr.a
    dest = instr.dest
    line = instr.line
    spec = _argspec(instr.b)
    instrument = vm.instrument

    def op(th, frame):
        vm.ts += 1
        regs = frame.regs
        args = [v if imm else regs[v] for imm, v in spec]
        child = vm._spawn_thread(fname, args, line)
        if dest is not None:
            regs[dest] = child.tid
        if instrument:
            vm._emit_simple(K_SPAWN, child.tid, th.tid)
        # break the dispatch loop so the scheduler can interleave
        th.pc = nxt
        return -1

    return op


def _make_join(vm, pc, instr):
    from repro.runtime.interpreter import BLOCKED_JOIN, DONE, VMError

    me = pc
    nxt = pc + 1
    tag, t_v = instr.a
    t_imm = tag == "i"
    instrument = vm.instrument

    def op(th, frame):
        vm.ts += 1
        target = t_v if t_imm else frame.regs[t_v]
        threads = vm.threads
        if not (0 <= target < len(threads)):
            raise VMError(f"join of unknown thread {target}")
        if threads[target].status == DONE:
            if instrument:
                vm._emit_simple(K_JOINED, target, th.tid)
            return nxt
        th.status = BLOCKED_JOIN
        th.wait_target = target
        th.pc = me  # retry the join when woken
        return -1

    return op


def _make_lock(vm, pc, instr):
    from repro.runtime.interpreter import BLOCKED_LOCK, VMError

    me = pc
    nxt = pc + 1
    tag, l_v = instr.a
    l_imm = tag == "i"
    instrument = vm.instrument

    def op(th, frame):
        vm.ts += 1
        lock_id = l_v if l_imm else frame.regs[l_v]
        tid = th.tid
        owner = vm._lock_owner.get(lock_id)
        if owner is None:
            vm._lock_owner[lock_id] = tid
            if instrument:
                vm._emit_simple(K_LOCK, lock_id, tid)
            return nxt
        if owner == tid:
            raise VMError(f"thread {tid} re-locks lock {lock_id}")
        vm._lock_waiters.setdefault(lock_id, deque()).append(tid)
        th.status = BLOCKED_LOCK
        th.wait_target = lock_id
        th.pc = me  # retry when woken
        return -1

    return op


def _make_unlock(vm, pc, instr):
    from repro.runtime.interpreter import RUNNABLE, VMError

    nxt = pc + 1
    tag, l_v = instr.a
    l_imm = tag == "i"
    instrument = vm.instrument

    def op(th, frame):
        vm.ts += 1
        lock_id = l_v if l_imm else frame.regs[l_v]
        tid = th.tid
        if vm._lock_owner.get(lock_id) != tid:
            raise VMError(
                f"thread {tid} unlocks lock {lock_id} it does not own"
            )
        del vm._lock_owner[lock_id]
        if instrument:
            vm._emit_simple(K_UNLOCK, lock_id, tid)
        waiters = vm._lock_waiters.get(lock_id)
        if waiters:
            woken = waiters.popleft()
            vm.threads[woken].status = RUNNABLE
            vm.threads[woken].wait_target = None
        return nxt

    return op


def _make_parallel(vm, pc, instr):
    me = pc

    def op(th, frame):
        vm.ts += 1
        # the scheduler subclass forks tasks and decides where to resume
        th.pc = me
        vm._parallel_op(th, instr)
        return -1

    return op


_MAKERS = {
    "spawn": _make_spawn,
    "join": _make_join,
    "lock": _make_lock,
    "unlock": _make_unlock,
    "pfork": _make_parallel,
    "ptask": _make_parallel,
}
