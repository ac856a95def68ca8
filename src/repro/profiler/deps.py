"""Data-dependence records and the runtime merging store.

A dependence is the paper's triple ``<sink, type, source>`` plus attributes
(variable name, thread ids, inter-iteration tag).  Identity for runtime
merging (§2.3.5) is *exactly* the triple plus all attributes: two dependences
are identical iff every element matches; merged records keep an occurrence
count and the set of loops that carried them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional


class DepType:
    """Dependence type tags (string constants, as in the report format)."""

    RAW = "RAW"
    WAR = "WAR"
    WAW = "WAW"
    INIT = "INIT"
    ALL = (RAW, WAR, WAW)


#: identity tuple: (sink_line, type, source_line, var, loop_carried,
#:                  sink_tid, source_tid)
#: NOTE: ``repro.profiler.serial.SerialProfiler._merge_dep`` and the
#: vectorized core's bulk merge mirror this identity (and the
#: count/carriers/maybe_race merge semantics of :meth:`DependenceStore.add`)
#: — change all three together; the loop × vectorized matrix in
#: tests/test_detect.py is the tripwire.
DepKey = tuple


@dataclass(slots=True)
class Dependence:
    """One merged data dependence."""

    sink_line: int
    type: str
    source_line: int
    var: str
    loop_carried: bool = False
    sink_tid: int = 0
    source_tid: int = 0
    count: int = 1
    #: loop region ids that carried this dependence (outermost differing
    #: iteration position per occurrence)
    carriers: set = field(default_factory=set)
    #: True when the recorded order was not protected by mutual exclusion
    #: and a timestamp inversion was observed (§2.3.4 — potential data race)
    maybe_race: bool = False

    @property
    def key(self) -> DepKey:
        return (
            self.sink_line,
            self.type,
            self.source_line,
            self.var,
            self.loop_carried,
            self.sink_tid,
            self.source_tid,
        )

    def format(self, with_tid: bool = False) -> str:
        """Render as ``{RAW 1:59|temp1}`` (Fig. 2.1) or with thread ids as
        ``{RAW 4:58|3|iter}`` (Fig. 2.3)."""
        if with_tid:
            return f"{{{self.type} 1:{self.source_line}|{self.source_tid}|{self.var}}}"
        return f"{{{self.type} 1:{self.source_line}|{self.var}}}"

    def to_dict(self) -> dict:
        """Stable JSON-serializable form (sets become sorted lists)."""
        return {
            "sink_line": self.sink_line,
            "type": self.type,
            "source_line": self.source_line,
            "var": self.var,
            "loop_carried": self.loop_carried,
            "sink_tid": self.sink_tid,
            "source_tid": self.source_tid,
            "count": self.count,
            "carriers": sorted(self.carriers),
            "maybe_race": self.maybe_race,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Dependence":
        return cls(
            sink_line=data["sink_line"],
            type=data["type"],
            source_line=data["source_line"],
            var=data["var"],
            loop_carried=data["loop_carried"],
            sink_tid=data["sink_tid"],
            source_tid=data["source_tid"],
            count=data["count"],
            carriers=set(data["carriers"]),
            maybe_race=data["maybe_race"],
        )


def identity_order(dep: Dependence) -> tuple:
    """Sort key over the full merge identity.

    Orderings must not depend on dict insertion order (the loop and
    vectorized detectors, and different batch sizes, discover merged
    dependences in different orders) or on None-vs-str vars.
    """
    return (
        dep.sink_line,
        dep.type,
        dep.source_line,
        dep.var is not None,
        dep.var or "",
        dep.loop_carried,
        dep.sink_tid,
        dep.source_tid,
    )


class DependenceStore:
    """Merged dependence set with per-sink aggregation (§2.3.5).

    Also records INIT sinks (first writes) and counts raw (pre-merge)
    dependence occurrences so the merging factor of the paper can be
    reported.
    """

    def __init__(self) -> None:
        self._deps: dict[DepKey, Dependence] = {}
        #: sink lines that contain a first-write (the ``{INIT *}`` entries)
        self.init_lines: set[int] = set()
        self.raw_occurrences = 0

    # -- building ------------------------------------------------------------

    def add(
        self,
        sink_line: int,
        dep_type: str,
        source_line: int,
        var: str,
        *,
        loop_carried: bool = False,
        carrier: Optional[int] = None,
        sink_tid: int = 0,
        source_tid: int = 0,
        maybe_race: bool = False,
    ) -> Dependence:
        self.raw_occurrences += 1
        key = (
            sink_line,
            dep_type,
            source_line,
            var,
            loop_carried,
            sink_tid,
            source_tid,
        )
        dep = self._deps.get(key)
        if dep is None:
            dep = Dependence(
                sink_line,
                dep_type,
                source_line,
                var,
                loop_carried,
                sink_tid,
                source_tid,
                count=0,
            )
            self._deps[key] = dep
        dep.count += 1
        if carrier is not None:
            dep.carriers.add(carrier)
        if maybe_race:
            dep.maybe_race = True
        return dep

    def add_init(self, sink_line: int) -> None:
        self.init_lines.add(sink_line)

    def merge_from(self, other: "DependenceStore") -> None:
        """Fold another store into this one (used when joining the parallel
        profiler's thread-local maps — the 'global map' merge of §2.3.3)."""
        for key, dep in other._deps.items():
            mine = self._deps.get(key)
            if mine is None:
                self._deps[key] = Dependence(
                    dep.sink_line,
                    dep.type,
                    dep.source_line,
                    dep.var,
                    dep.loop_carried,
                    dep.sink_tid,
                    dep.source_tid,
                    count=dep.count,
                    carriers=set(dep.carriers),
                    maybe_race=dep.maybe_race,
                )
            else:
                mine.count += dep.count
                mine.carriers |= dep.carriers
                mine.maybe_race |= dep.maybe_race
        self.init_lines |= other.init_lines
        self.raw_occurrences += other.raw_occurrences

    # -- queries ---------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._deps)

    def __iter__(self):
        return iter(self._deps.values())

    def all(self) -> list[Dependence]:
        return sorted(self._deps.values(), key=identity_order)

    def by_sink(self) -> dict[int, list[Dependence]]:
        out: dict[int, list[Dependence]] = {}
        for dep in self.all():
            out.setdefault(dep.sink_line, []).append(dep)
        return out

    def of_type(self, dep_type: str) -> list[Dependence]:
        return [d for d in self.all() if d.type == dep_type]

    def keys(self) -> set[DepKey]:
        return set(self._deps.keys())

    def raw_for_loop(self, loop_region_id: int) -> list[Dependence]:
        """RAW dependences carried by a given loop — the parallelism
        blockers DOALL detection inspects."""
        return [
            d
            for d in self._deps.values()
            if d.type == DepType.RAW and loop_region_id in d.carriers
        ]

    def carried_by(self, loop_region_id: int) -> list[Dependence]:
        return [d for d in self._deps.values() if loop_region_id in d.carriers]

    def involving_var(self, var: str) -> list[Dependence]:
        return [d for d in self.all() if d.var == var]

    def to_dict(self) -> dict:
        """Stable JSON-serializable form of the merged store."""
        return {
            "deps": [d.to_dict() for d in self.all()],
            "init_lines": sorted(self.init_lines),
            "raw_occurrences": self.raw_occurrences,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "DependenceStore":
        store = cls()
        for entry in data["deps"]:
            dep = Dependence.from_dict(entry)
            store._deps[dep.key] = dep
        store.init_lines = set(data["init_lines"])
        store.raw_occurrences = data["raw_occurrences"]
        return store

    def memory_bytes(self) -> int:
        """Rough resident size of the merged map (for the memory figures)."""
        # dict entry ≈ 104 bytes + key tuple ≈ 120 + record ≈ 200
        return 424 * len(self._deps) + 64 * len(self.init_lines)


def compare_dependences(
    measured: Iterable[Dependence], baseline: Iterable[Dependence]
) -> tuple[float, float, int, int]:
    """False-positive / false-negative rates of ``measured`` against an
    exact ``baseline`` (Table 2.6 metric).

    Returns ``(fpr, fnr, n_measured, n_baseline)`` with rates in percent.
    Comparison identity is the merged-dependence key.
    """
    measured_keys = {d.key for d in measured}
    baseline_keys = {d.key for d in baseline}
    n_measured = len(measured_keys)
    n_baseline = len(baseline_keys)
    false_pos = len(measured_keys - baseline_keys)
    false_neg = len(baseline_keys - measured_keys)
    fpr = 100.0 * false_pos / n_measured if n_measured else 0.0
    fnr = 100.0 * false_neg / n_baseline if n_baseline else 0.0
    return fpr, fnr, n_measured, n_baseline


def store_accuracy(
    candidate: DependenceStore, reference: DependenceStore
) -> dict:
    """Precision/recall of ``candidate`` against an exact ``reference``.

    The accuracy gate for lossy detection (sampling + signature slots):
    identity is the full dependence key, so a dependence that survives
    sampling but lands on the wrong line/var/carrier counts against
    precision rather than silently matching.  Empty-vs-empty scores
    perfect (a workload with no dependences is reproduced exactly).
    """
    cand = candidate.keys()
    ref = reference.keys()
    inter = len(cand & ref)
    precision = inter / len(cand) if cand else 1.0
    recall = inter / len(ref) if ref else 1.0
    return {
        "precision": precision,
        "recall": recall,
        "n_candidate": len(cand),
        "n_reference": len(ref),
        "false_deps": len(cand - ref),
        "missed_deps": len(ref - cand),
    }
