"""Staged discovery engine — the re-entrant public API.

::

    from repro.engine import DiscoveryEngine

    engine = DiscoveryEngine.from_source(source)
    engine.profile()        # Phase 1: one instrumented execution
    engine.build_cus()      # Phase 2a: CU construction over the trace
    engine.detect()         # Phase 2b: DOALL/DOACROSS + SPMD/MPMD detection
    engine.rank(n_threads=8)   # Phase 3: cheap, re-runnable per thread count
    result = engine.run()   # assembled DiscoveryResult (all phases cached)

Every phase returns a typed artifact with a stable ``to_dict`` /
``from_dict`` JSON round-trip (:mod:`repro.engine.artifacts`), and
:mod:`repro.engine.batch` fans full runs across a process pool.  The
batch and checkpoint names, and with them the artifact store, are
imported on first use.
"""

from repro import _lazy_exports
from repro.engine.artifacts import (
    ARTIFACT_KINDS,
    CUArtifact,
    DetectArtifact,
    DiscoveryResult,
    FunctionTaskAnalysis,
    ProfileArtifact,
    RankArtifact,
    ValidationArtifact,
    load_artifact,
    save_artifact,
)
from repro.engine.config import DiscoveryConfig
from repro.engine.core import DiscoveryEngine

__all__ = [
    "ARTIFACT_KINDS",
    "CUArtifact",
    "DetectArtifact",
    "DiscoveryConfig",
    "DiscoveryEngine",
    "DiscoveryResult",
    "FunctionTaskAnalysis",
    "JobCheckpoint",
    "ProfileArtifact",
    "RankArtifact",
    "ValidationArtifact",
    "config_for_job",
    "format_batch_table",
    "job_for_source",
    "job_for_workload",
    "job_key",
    "load_artifact",
    "run_batch",
    "run_job",
    "save_artifact",
]

__getattr__, __dir__ = _lazy_exports(__name__, {
    "config_for_job": "repro.engine.batch",
    "format_batch_table": "repro.engine.batch",
    "job_for_source": "repro.engine.batch",
    "job_for_workload": "repro.engine.batch",
    "run_batch": "repro.engine.batch",
    "run_job": "repro.engine.batch",
    "JobCheckpoint": "repro.engine.checkpoint",
    "job_key": "repro.engine.checkpoint",
})
