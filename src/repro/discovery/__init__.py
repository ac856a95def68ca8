"""CU-based parallelism discovery (Chapter 4).

* :mod:`repro.discovery.loops` — DOALL (§4.1.1) and DOACROSS (§4.1.2)
  detection, with reduction recognition and privatization hints.
* :mod:`repro.discovery.lifting` — rewrites memory-event lines to their
  call-site anchors within a container region, so dependences between
  function calls surface at the call sites (the PET property §2.3.6 uses
  for inter-function parallelism).
* :mod:`repro.discovery.tasks` — SPMD (§4.2.1) and MPMD (§4.2.2) task
  detection on CU graphs (SCC condensation + chain contraction, Fig. 4.5).
* :mod:`repro.discovery.ranking` — instruction coverage, local speedup and
  CU imbalance (§4.3).
* :mod:`repro.discovery.suggestions` — suggestion records + OpenMP-style
  rendering.

Phases 1→2→3 run end to end in :class:`repro.engine.DiscoveryEngine`.
"""

from repro.discovery.loops import (
    LoopClass,
    LoopInfo,
    analyze_loop,
    analyze_loops,
)
from repro.discovery.tasks import (
    SPMDTaskGroup,
    TaskGraph,
    call_sites,
    find_mpmd_tasks,
    find_spmd_tasks,
)
from repro.discovery.ranking import RankingScores, rank_suggestions
from repro.discovery.suggestions import Suggestion

__all__ = [
    "LoopClass",
    "LoopInfo",
    "analyze_loop",
    "analyze_loops",
    "SPMDTaskGroup",
    "TaskGraph",
    "call_sites",
    "find_mpmd_tasks",
    "find_spmd_tasks",
    "RankingScores",
    "rank_suggestions",
    "Suggestion",
]
