"""Deterministic fault injection for the resilience layer.

A :class:`FaultPlan` is a seeded, fully explicit schedule of failures.
Events are keyed by *where* they fire:

``kill_worker`` / ``hang_worker`` / ``drop_slab_ack``
    fire inside a shard worker when it receives task message number
    ``batch`` (0-based ordinal of rows/segment messages, identical across
    shards because slab publishes broadcast), on worker generation
    ``gen`` (0 = the first attempt; retried workers run at gen 1, 2, ...).
``corrupt_done_payload``
    fires when the worker assembles its final done payload.
``raise_in_phase``
    fires in the parent engine at the start of phase ``phase``
    (``profile`` | ``cus`` | ``detect`` | ``rank``) when the engine's
    ``fault_attempt`` equals ``gen`` — so a checkpointed batch job
    crashes on its first attempt and completes on resume.
``kill_in_store_write`` / ``torn_store_write``
    fire inside the artifact store as it publishes the artifact named
    by ``artifact`` (e.g. ``result.json``), when the store's
    ``fault_attempt`` (= the job's recorded failure count) equals
    ``gen``: the former dies mid-flush leaving a torn tmp, the latter
    publishes a truncated payload against a full-payload checksum.

Keying by generation is what makes every plan *eventually successful*
without any cross-process shared state: a retried worker observes a
fresh generation and the gen-0 fault simply never matches again.

These hooks are test-only. Production configs leave
``DiscoveryConfig.fault_plan`` as ``None`` and no injector is ever
constructed.
"""

from __future__ import annotations

import os
import random
import time
from dataclasses import dataclass
from typing import List, Optional, Sequence

FAULT_KINDS = (
    "kill_worker",
    "hang_worker",
    "drop_slab_ack",
    "corrupt_done_payload",
    "raise_in_phase",
    "kill_in_store_write",
    "torn_store_write",
)

_WORKER_KINDS = ("kill_worker", "hang_worker", "drop_slab_ack", "corrupt_done_payload")

#: Store-phase kinds that fire inside ArtifactStore._publish.
_STORE_WRITE_KINDS = ("kill_in_store_write", "torn_store_write")

#: Exit code used by killed workers, distinguishable from real crashes.
KILL_EXIT_CODE = 73

#: How long a hung worker sleeps; the supervisor terminates it long before.
HANG_SECONDS = 3600.0


class FaultInjected(RuntimeError):
    """Raised by ``raise_in_phase`` events in the parent engine."""


@dataclass
class FaultEvent:
    kind: str
    shard: Optional[int] = None  # None matches every shard
    batch: Optional[int] = None  # task-message ordinal within the worker
    phase: Optional[str] = None  # engine phase for raise_in_phase
    gen: int = 0                 # worker generation / engine attempt
    repeat: bool = False         # re-fire at every batch >= `batch`
    artifact: Optional[str] = None  # store artifact name for store kinds

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}; expected one of {FAULT_KINDS}")
        if self.kind == "raise_in_phase" and not self.phase:
            raise ValueError("raise_in_phase events need a phase")
        if self.kind in _STORE_WRITE_KINDS and not self.artifact:
            raise ValueError(f"{self.kind} events need an artifact name")

    def to_dict(self) -> dict:
        data = {"kind": self.kind, "gen": self.gen}
        if self.shard is not None:
            data["shard"] = self.shard
        if self.batch is not None:
            data["batch"] = self.batch
        if self.phase is not None:
            data["phase"] = self.phase
        if self.repeat:
            data["repeat"] = True
        if self.artifact is not None:
            data["artifact"] = self.artifact
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "FaultEvent":
        return cls(
            kind=data["kind"],
            shard=data.get("shard"),
            batch=data.get("batch"),
            phase=data.get("phase"),
            gen=int(data.get("gen", 0)),
            repeat=bool(data.get("repeat", False)),
            artifact=data.get("artifact"),
        )


class FaultPlan:
    """An ordered, seeded schedule of :class:`FaultEvent`."""

    def __init__(self, events: Sequence[FaultEvent] = (), *, seed: int = 0):
        self.events: List[FaultEvent] = [
            e if isinstance(e, FaultEvent) else FaultEvent.from_dict(e) for e in events
        ]
        self.seed = seed
        self._fired: set = set()  # per-process firing state for engine events

    def to_dict(self) -> dict:
        return {"seed": self.seed, "events": [e.to_dict() for e in self.events]}

    @classmethod
    def from_dict(cls, data: Optional[dict]) -> "FaultPlan":
        data = data or {}
        return cls(
            [FaultEvent.from_dict(e) for e in data.get("events", [])],
            seed=int(data.get("seed", 0)),
        )

    @classmethod
    def scattered(
        cls,
        seed: int,
        *,
        n_shards: int,
        n_batches: int,
        kinds: Sequence[str] = _WORKER_KINDS,
        n_events: int = 2,
    ) -> "FaultPlan":
        """A seeded random (but eventually-successful) worker fault schedule.

        Every event fires at gen 0 only, so retried shards always recover;
        the bench uses this to assert store identity under arbitrary mixes.
        """
        rng = random.Random(seed)
        events = []
        for _ in range(max(0, n_events)):
            events.append(
                FaultEvent(
                    kind=rng.choice(list(kinds)),
                    shard=rng.randrange(n_shards),
                    batch=rng.randrange(max(1, n_batches)),
                )
            )
        return cls(events, seed=seed)

    # -- parent-engine hook ------------------------------------------------
    def check_phase(self, phase: str, attempt: int = 0) -> None:
        """Raise :class:`FaultInjected` if an event targets this phase."""
        for i, event in enumerate(self.events):
            if (
                event.kind == "raise_in_phase"
                and event.phase == phase
                and event.gen == attempt
                and i not in self._fired
            ):
                self._fired.add(i)
                raise FaultInjected(f"injected fault in phase {phase!r} (attempt {attempt})")

    # -- artifact-store hook -----------------------------------------------
    def check_store_write(self, artifact: str, attempt: int = 0) -> Optional[str]:
        """The store-write fault kind due for this artifact publish, if any.

        Fires each matching event at most once per process (same
        ``_fired`` discipline as :meth:`check_phase`); keyed on the
        job's failure count so a rerun after a kill sails through.
        """
        for i, event in enumerate(self.events):
            if (
                event.kind in _STORE_WRITE_KINDS
                and event.artifact == artifact
                and event.gen == attempt
                and ("store", i) not in self._fired
            ):
                self._fired.add(("store", i))
                return event.kind
        return None

    # -- worker-side view --------------------------------------------------
    def for_worker(self, shard: int, gen: int) -> List[dict]:
        """Picklable event dicts relevant to one worker attempt."""
        return [
            e.to_dict()
            for e in self.events
            if e.kind in _WORKER_KINDS
            and (e.shard is None or e.shard == shard)
            and e.gen == gen
        ]


class WorkerFaultInjector:
    """Executes a worker's slice of a :class:`FaultPlan` inside the worker.

    ``on_message`` runs on every received task message *before* the
    liveness heartbeat and the slab ack, so an injected kill dies holding
    no queue locks and starves the parent exactly as a real pre-ack
    failure would.
    """

    def __init__(self, events: Sequence[dict]):
        self.events = [FaultEvent.from_dict(e) for e in events]
        self._fired: set = set()

    def __bool__(self) -> bool:
        return bool(self.events)

    def on_message(self, batch: int) -> bool:
        """Fire any events due at this message; True means drop the ack."""
        drop_ack = False
        for i, event in enumerate(self.events):
            if event.batch is None or event.kind == "corrupt_done_payload":
                continue
            if i in self._fired and not event.repeat:
                continue
            if batch != event.batch and not (event.repeat and batch > event.batch):
                continue
            self._fired.add(i)
            if event.kind == "kill_worker":
                os._exit(KILL_EXIT_CODE)
            elif event.kind == "hang_worker":
                time.sleep(HANG_SECONDS)
            elif event.kind == "drop_slab_ack":
                drop_ack = True
        return drop_ack

    def on_done(self, payload: dict) -> dict:
        """Optionally replace the done payload with garbage."""
        for i, event in enumerate(self.events):
            if event.kind == "corrupt_done_payload" and i not in self._fired:
                self._fired.add(i)
                return {"corrupt": True}
        return payload


# -- store environment faults (applied from the test harness side) ---------

def _dead_pid() -> int:
    """A pid that provably does not exist right now: a reaped child's."""
    import subprocess
    import sys

    proc = subprocess.Popen([sys.executable, "-c", "pass"])
    proc.wait()
    return proc.pid


def plant_stale_lease(key_dir: str, *, age: float = 3600.0) -> str:
    """Leave a lease file behind as a crashed (dead-pid) holder would.

    The lease carries a freshly-reaped child's pid and a heartbeat mtime
    ``age`` seconds in the past, so takeover triggers on both staleness
    signals deterministically.
    """
    import json

    from repro.store.locks import LEASE_FILE

    os.makedirs(key_dir, exist_ok=True)
    path = os.path.join(key_dir, LEASE_FILE)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(
            {"pid": _dead_pid(), "host": os.uname().nodename,
             "created": time.time() - age},
            handle,
        )
    stamp = time.time() - age
    os.utime(path, (stamp, stamp))
    return path


def flip_artifact_byte(path: str, *, offset: int = 0) -> None:
    """Flip one byte of a published artifact (silent on-disk corruption)."""
    with open(path, "r+b") as handle:
        handle.seek(offset)
        byte = handle.read(1)
        if not byte:
            return
        handle.seek(offset)
        handle.write(bytes([byte[0] ^ 0xFF]))
