"""Content-addressed job checkpoints (the resumable-batch backbone).

A :class:`JobCheckpoint` persists a discovery job's completed phase
artifacts under ``<root>/<key>/`` where the key is *content-addressed*:
``sha256(source)[:12] + "-" + sha256(config-minus-identity)[:12]``.  Two
jobs with the same source text and the same analysis-relevant config
share a key — display ``name``, the test-only ``fault_plan`` /
``resilience`` supervision knobs, and the ``obs`` mode deliberately do
not participate, since they change how a run is labelled, recovered or
observed, never what it computes (the obs bench hard-gates the last).

Layout per job::

    config.json     the full DiscoveryConfig (provenance / debugging)
    attempts.json   recorded failures; len() = next attempt ordinal
    manifest.json   sha256 + size sidecar per artifact, last-access
    trace.npz       the recorded event trace (chunk boundaries kept) and
                    its string and loop-signature tables
    profile.json    ProfileArtifact.to_dict()
    cus.json        CUArtifact.to_dict()
    detect.json     DetectArtifact.to_dict()
    rank.json       RankArtifact.to_dict()
    result.json     the finished batch row (presence = job complete)

Storage rides :class:`repro.store.ArtifactStore`: every write happens
under the key's advisory writer lock with tmp-then-``os.replace``
publication and a sha256 manifest sidecar, so concurrent batch runners
sharing a ``resume_dir`` serialize per key instead of racing, and a
crash mid-save never leaves a truncated artifact under its final name.
:meth:`JobCheckpoint.restore` and :meth:`load_result` are
integrity-verified: a corrupt or truncated entry is quarantined to
``<key>/.corrupt-N/`` (counted on ``resilience.store.corrupt``) and
treated as missing — recomputed, never served.  ``restore`` installs
the longest *verified* phase prefix into an engine via
:meth:`~repro.engine.core.DiscoveryEngine.adopt`; the engine's phase
caches then skip straight to the first missing phase.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Optional

from repro.engine.artifacts import (
    CUArtifact,
    DetectArtifact,
    ProfileArtifact,
    RankArtifact,
)
from repro.engine.config import DiscoveryConfig
from repro.store import ArtifactStore

#: phase name -> (artifact file, artifact class), in pipeline order
PHASE_FILES = (
    ("profile", "profile.json", ProfileArtifact),
    ("cus", "cus.json", CUArtifact),
    ("detect", "detect.json", DetectArtifact),
    ("rank", "rank.json", RankArtifact),
)

#: config fields that never affect what a run computes, only how it is
#: labelled, supervised or observed — excluded from the checkpoint key
KEY_EXCLUDED_FIELDS = ("name", "fault_plan", "resilience", "obs")


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def job_key(config: DiscoveryConfig) -> str:
    """``source-hash × config-hash`` identity of one discovery job."""
    data = config.to_dict()
    source = data.pop("source") or ""
    for field in KEY_EXCLUDED_FIELDS:
        data.pop(field, None)
    canonical = json.dumps(data, sort_keys=True, default=str)
    return f"{_sha(source)[:12]}-{_sha(canonical)[:12]}"


def _read_json(path: str):
    """Read a JSON artifact; torn or invalid content is *missing*.

    A half-written file must never poison a resume, so decode errors
    degrade to ``None`` exactly like absence — the caller recomputes.
    """
    if not os.path.exists(path):
        return None
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, ValueError):
        return None


class JobCheckpoint:
    """Phase-artifact persistence for one content-addressed job.

    ``store_options`` (``lock_backend``, ``stale_after``,
    ``poll_interval``) forward to the underlying
    :class:`~repro.store.ArtifactStore`; an existing ``store`` may be
    shared instead so several checkpoints reuse one lock table.
    """

    def __init__(
        self,
        root: str,
        config: DiscoveryConfig,
        *,
        store: Optional[ArtifactStore] = None,
        store_options: Optional[dict] = None,
    ) -> None:
        self.key = job_key(config)
        self.config = config
        if store is None:
            store = ArtifactStore(
                root, faults=config.fault_plan, **(store_options or {})
            )
        self.store = store
        self.dir = store.key_dir(self.key)
        os.makedirs(self.dir, exist_ok=True)

    def _path(self, name: str) -> str:
        return os.path.join(self.dir, name)

    # -- locking / metrics ---------------------------------------------

    def lock(self):
        """This key's (reentrant) writer lock — hold it to dedupe work."""
        return self.store.lock(self.key)

    def attach_metrics(self, registry) -> None:
        """Route ``store.*`` counters into an obs metrics registry."""
        self.store.attach_metrics(registry)

    def _ensure_config(self) -> None:
        """Record config provenance once (called from locked write paths)."""
        if not os.path.exists(self._path("config.json")):
            self.store.put_text(
                self.key, "config.json", json.dumps(self.config.to_dict())
            )

    # -- attempt bookkeeping -------------------------------------------

    def attempts(self) -> int:
        """How many recorded failures precede this attempt."""
        failures = _read_json(self._path("attempts.json"))
        return len(failures) if isinstance(failures, list) else 0

    def record_failure(self, error: str) -> None:
        """Append a failure record (locked read-modify-write)."""
        with self.lock():
            self._ensure_config()
            failures = _read_json(self._path("attempts.json"))
            if not isinstance(failures, list):
                failures = []
            failures.append({"error": error})
            self.store.put_text(self.key, "attempts.json", json.dumps(failures))

    # -- saving --------------------------------------------------------

    def save_phases(self, engine) -> list:
        """Persist every phase artifact the engine has cached.

        Called after a run *and* after a failure — the phases that
        completed before a crash are exactly what resume skips.
        Returns the phase names newly written.
        """
        saved = []
        cached = {
            "profile": engine._profile,
            "cus": engine._cus,
            "detect": engine._detect,
            "rank": engine._rank,
        }
        with self.lock():
            self._ensure_config()
            for phase, filename, _cls in PHASE_FILES:
                artifact = cached[phase]
                if artifact is None or os.path.exists(self._path(filename)):
                    continue
                if phase == "profile":
                    self._save_trace_parts(artifact)
                self.store.put_text(
                    self.key, filename, json.dumps(artifact.to_dict())
                )
                saved.append(phase)
        return saved

    def _save_trace_parts(self, profile: ProfileArtifact) -> None:
        from repro.runtime.events import save_trace

        self.store.put_file(
            self.key, "trace.npz", lambda tmp: save_trace(profile.trace, tmp)
        )

    def save_result(self, row: dict) -> None:
        """Mark the job complete; presence of result.json = done."""
        with self.lock():
            self._ensure_config()
            self.store.put_text(self.key, "result.json", json.dumps(row))

    # -- loading -------------------------------------------------------

    def load_result(self, *, heal: bool = False) -> Optional[dict]:
        """The saved completed row, checksum-verified.

        Optimistic (unlocked) callers get ``None`` on any mismatch;
        with ``heal`` (caller holds the key lock) a confirmed-corrupt
        row is quarantined so the job transparently recomputes.
        """
        row = self.store.read_json(self.key, "result.json", heal=heal)
        if isinstance(row, dict):
            self.store.touch(self.key)
            return row
        return None

    def completed_phases(self) -> list:
        return [
            phase
            for phase, filename, _cls in PHASE_FILES
            if os.path.exists(self._path(filename))
        ]

    def restore(self, engine) -> list:
        """Adopt the longest *verified* persisted phase prefix.

        Every artifact read is checked against its manifest sha256; a
        corrupt or truncated entry is quarantined (``.corrupt-N/``) and
        ends the prefix there, so the engine recomputes from the last
        trustworthy phase.  The profile artifact is rehydrated with its
        trace (which carries its own signature table) and a rebuilt PET;
        later phases re-enter exactly where the artifacts stop.  A trace
        saved before traces carried that table cannot be decoded, so it
        ends the prefix before ``profile`` and the job recomputes; any
        other load error propagates.  Returns the restored phase names.
        """
        artifacts = {}
        restored = []
        with self.lock():
            for phase, filename, cls in PHASE_FILES:
                data = self.store.read_json(self.key, filename, heal=True)
                if data is None:
                    break  # adopt() wants a prefix; stop at the first gap
                artifact = cls.from_dict(data)
                if phase == "profile":
                    artifact = self._rehydrate_profile(artifact, engine)
                    if artifact is None:
                        break
                artifacts[phase] = artifact
                restored.append(phase)
        if artifacts:
            engine.adopt(**artifacts)
        return restored

    def _rehydrate_profile(
        self, artifact: ProfileArtifact, engine
    ) -> Optional[ProfileArtifact]:
        from repro.profiler.pet import PETBuilder
        from repro.runtime.events import TraceLayoutError, load_trace

        trace_path = self.store.artifact_path(self.key, "trace.npz", heal=True)
        if trace_path is None:
            return None  # phase row without its trace: treat as missing
        try:
            trace = load_trace(trace_path)
        except TraceLayoutError:  # saved without its signature table
            return None
        pet = PETBuilder()
        for chunk in trace.iter_chunks():
            pet.process_chunk(chunk)
        artifact.trace = trace
        artifact.pet = pet
        artifact.module = engine.module
        return artifact
