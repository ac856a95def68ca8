"""CU data model."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional


@dataclass
class CU:
    """One computational unit.

    ``read_set`` / ``write_set`` hold the region-global variables read /
    written (§3.1); ``read_phase`` / ``write_phase`` the (line, var_id)
    pairs of the load/store instructions forming the phases.  ``lines`` is
    the set of source lines the CU covers — the currency for mapping
    dependences onto CU-graph edges.
    """

    cu_id: int
    region_id: int
    func: str
    kind: str  # 'region' (whole region is a CU) | 'segment' (split result)
    start_line: int
    end_line: int
    lines: frozenset = frozenset()
    read_set: frozenset = frozenset()
    write_set: frozenset = frozenset()
    read_phase: frozenset = frozenset()
    write_phase: frozenset = frozenset()
    #: dynamic cost: memory instructions executed inside this CU
    instructions: int = 0

    @property
    def name(self) -> str:
        return f"CU{self.cu_id}[{self.start_line}-{self.end_line}]"

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<{self.name} {self.kind} R{self.region_id} "
            f"r={len(self.read_set)} w={len(self.write_set)}>"
        )

    def to_dict(self) -> dict:
        """Stable JSON form: frozensets become sorted lists, phase pairs
        become two-element lists."""
        return {
            "cu_id": self.cu_id,
            "region_id": self.region_id,
            "func": self.func,
            "kind": self.kind,
            "start_line": self.start_line,
            "end_line": self.end_line,
            "lines": sorted(self.lines),
            "read_set": sorted(self.read_set),
            "write_set": sorted(self.write_set),
            "read_phase": sorted(list(p) for p in self.read_phase),
            "write_phase": sorted(list(p) for p in self.write_phase),
            "instructions": self.instructions,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CU":
        return cls(
            cu_id=data["cu_id"],
            region_id=data["region_id"],
            func=data["func"],
            kind=data["kind"],
            start_line=data["start_line"],
            end_line=data["end_line"],
            lines=frozenset(data["lines"]),
            read_set=frozenset(data["read_set"]),
            write_set=frozenset(data["write_set"]),
            read_phase=frozenset(tuple(p) for p in data["read_phase"]),
            write_phase=frozenset(tuple(p) for p in data["write_phase"]),
            instructions=data["instructions"],
        )


@dataclass
class RegionCUInfo:
    """Construction result for one control region."""

    region_id: int
    is_single_cu: bool
    #: the whole-region CU when is_single_cu, else None
    region_cu: Optional[CU] = None
    #: split CUs when the region violated the read-compute-write pattern
    segments: list[CU] = field(default_factory=list)
    #: (line, var_id) reads that violated the pattern
    violations: frozenset = frozenset()

    def cus(self) -> list[CU]:
        if self.is_single_cu and self.region_cu is not None:
            return [self.region_cu]
        return list(self.segments)


class CURegistry:
    """All CUs built for one module execution."""

    def __init__(self) -> None:
        self.by_region: dict[int, RegionCUInfo] = {}
        self.all_cus: dict[int, CU] = {}
        self._next_id = 0

    def new_cu(self, **kwargs) -> CU:
        cu = CU(cu_id=self._next_id, **kwargs)
        self._next_id += 1
        self.all_cus[cu.cu_id] = cu
        return cu

    def info(self, region_id: int) -> RegionCUInfo:
        return self.by_region[region_id]

    def cus_of_region(self, region_id: int) -> list[CU]:
        info = self.by_region.get(region_id)
        return info.cus() if info else []

    def __len__(self) -> int:
        return len(self.all_cus)

    def to_dict(self) -> dict:
        """JSON form suitable for persisting CU artifacts to disk (the
        DiscoPoP cu-graph-analyzer pattern: downstream analyses consume the
        persisted CU set without re-running the program)."""
        return {
            "next_id": self._next_id,
            "cus": [
                cu.to_dict()
                for _, cu in sorted(self.all_cus.items())
            ],
            "regions": [
                {
                    "region_id": info.region_id,
                    "is_single_cu": info.is_single_cu,
                    "region_cu": (
                        info.region_cu.cu_id
                        if info.region_cu is not None
                        else None
                    ),
                    "segments": [cu.cu_id for cu in info.segments],
                    "violations": sorted(
                        list(v) for v in info.violations
                    ),
                }
                for _, info in sorted(self.by_region.items())
            ],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CURegistry":
        registry = cls()
        registry._next_id = data["next_id"]
        for entry in data["cus"]:
            cu = CU.from_dict(entry)
            registry.all_cus[cu.cu_id] = cu
        for entry in data["regions"]:
            registry.by_region[entry["region_id"]] = RegionCUInfo(
                region_id=entry["region_id"],
                is_single_cu=entry["is_single_cu"],
                region_cu=(
                    registry.all_cus[entry["region_cu"]]
                    if entry["region_cu"] is not None
                    else None
                ),
                segments=[
                    registry.all_cus[cu_id] for cu_id in entry["segments"]
                ],
                violations=frozenset(
                    tuple(v) for v in entry["violations"]
                ),
            )
        return registry
