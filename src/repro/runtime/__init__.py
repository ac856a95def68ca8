"""Runtime substrate: the VM that executes MIR and emits the instrumentation
event stream.

The paper links instrumented binaries against ``libDiscoPoP``; here the
interpreter *is* the instrumentation — it executes MIR over a real flat
word-addressed memory (globals segment, per-thread stacks, a heap) and emits
the same events LLVM instrumentation would: memory accesses with absolute
addresses, control-region entry/exit/iteration, function entry/exit,
allocation/lifetime, lock, and thread events.

Events are delivered to a sink in *chunks* — the producer side of the
paper's producer/consumer profiling pipeline (§2.3.3).
"""

from repro.runtime.events import (
    K_READ,
    K_WRITE,
    K_BGN,
    K_END,
    K_ITER,
    K_FENTRY,
    K_FEXIT,
    K_ALLOC,
    K_FREE,
    K_LOCK,
    K_UNLOCK,
    K_SPAWN,
    K_JOINED,
    EVENT_DTYPE,
    ChunkBuilder,
    EventChunk,
    SignatureTable,
    SpillingTraceSink,
    StringTable,
    TraceSink,
    load_trace,
    save_trace,
)
from repro.runtime.compile import (
    INLINE_OPS,
    RUN_TERMINATORS,
    CompiledCode,
    bigram_census,
    compile_function,
    find_runs,
)
from repro.runtime.memory import MemoryLayout
from repro.runtime.interpreter import VM, VMError, run_source

__all__ = [
    "K_READ",
    "K_WRITE",
    "K_BGN",
    "K_END",
    "K_ITER",
    "K_FENTRY",
    "K_FEXIT",
    "K_ALLOC",
    "K_FREE",
    "K_LOCK",
    "K_UNLOCK",
    "K_SPAWN",
    "K_JOINED",
    "EVENT_DTYPE",
    "ChunkBuilder",
    "EventChunk",
    "SignatureTable",
    "SpillingTraceSink",
    "StringTable",
    "TraceSink",
    "load_trace",
    "save_trace",
    "INLINE_OPS",
    "RUN_TERMINATORS",
    "CompiledCode",
    "bigram_census",
    "compile_function",
    "find_runs",
    "MemoryLayout",
    "VM",
    "VMError",
    "run_source",
]
