"""The import graph: a call loads only the layers it uses.

``import repro`` binds its public names lazily (PEP 562), so compiling a
workload never loads numpy, and a default discover run never loads a
detection core or a service it does not run.  Every test here starts a
fresh interpreter, because this pytest process has long imported every
layer, and reads that interpreter's ``sys.modules``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

#: what a default ``DiscoveryEngine.run()`` must leave unloaded
OPTIONAL_LAYERS = (
    "repro.profiler.sharded",
    "repro.profiler.skipping",
    "repro.profiler.parallel",
    "repro.engine.batch",
    "repro.engine.checkpoint",
    "repro.store",
    "repro.resilience",
    "multiprocessing.shared_memory",
)


def modules_after(code: str) -> set:
    """``sys.modules`` of a fresh interpreter once ``code`` has run."""
    code += "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))\n"
    paths = [str(SRC), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True,
        text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


def test_compiling_loads_no_numpy_engine_profiler_or_runtime():
    loaded = modules_after(
        "import repro\n"
        "from repro.workloads import get_workload\n"
        "for name in ('matmul', 'histogram_py'):\n"
        "    get_workload(name).compile(1)\n"
    )
    assert "repro.frontend" in loaded  # histogram_py is a Python source
    for name in ("numpy", "repro.engine", "repro.profiler", "repro.runtime"):
        assert name not in loaded, name


def test_import_repro_loads_the_package_alone():
    loaded = modules_after("import repro\n")
    assert {m for m in loaded if m.split(".")[0] == "repro"} == {"repro"}
    assert "numpy" not in loaded


def test_cli_help_exits_zero_and_loads_no_numpy():
    loaded = modules_after(
        "import runpy, sys\n"
        "sys.argv = ['repro', '--help']\n"
        "try:\n"
        "    runpy.run_module('repro', run_name='__main__', alter_sys=True)\n"
        "except SystemExit as exc:\n"
        "    assert exc.code in (0, None), exc.code\n"
        "else:\n"
        "    raise AssertionError('--help did not exit')\n"
    )
    assert "repro.cli" in loaded
    assert "numpy" not in loaded


def _run_fib(**overrides) -> set:
    return modules_after(
        "from repro import DiscoveryEngine\n"
        "from repro.workloads import get_workload\n"
        "w = get_workload('fib')\n"
        "DiscoveryEngine(source=w.source(1), name=w.name, entry=w.entry,\n"
        f"                **{overrides!r}).run()\n"
    )


def test_default_run_loads_no_optional_core_or_service():
    loaded = _run_fib()
    assert "repro.profiler.vectorized" in loaded
    assert [m for m in OPTIONAL_LAYERS if m in loaded] == []


@pytest.mark.parametrize("overrides, module", [
    ({"detect": "sharded", "detect_workers": 2}, "repro.profiler.sharded"),
    ({"skip_loops": True}, "repro.profiler.skipping"),
])
def test_a_selected_core_is_loaded(overrides, module):
    assert module in _run_fib(**overrides)


@pytest.mark.parametrize(
    "package", ["repro", "repro.engine", "repro.profiler"]
)
def test_facade_names_resolve_on_first_use(package):
    modules_after(
        "import importlib\n"
        f"pkg = importlib.import_module({package!r})\n"
        "listed = dir(pkg)\n"
        "for name in pkg.__all__:\n"
        "    assert getattr(pkg, name) is not None, name\n"
        "    assert name in listed, name\n"
        "space = {}\n"
        f"exec('from {package} import *', space)\n"
        "missing = set(pkg.__all__) - set(space)\n"
        "assert not missing, missing\n"
        "try:\n"
        "    pkg.no_such_name\n"
        "except AttributeError:\n"
        "    pass\n"
        "else:\n"
        "    raise AssertionError('unknown name resolved')\n"
    )


def test_lazy_names_are_the_defining_modules_objects():
    modules_after(
        "import repro\n"
        "assert repro.workloads.get_workload('fib').name == 'fib'\n"
        "from repro.engine.core import DiscoveryEngine\n"
        "from repro.profiler.skipping import SkippingProfiler\n"
        "assert repro.DiscoveryEngine is DiscoveryEngine\n"
        "assert repro.SkippingProfiler is SkippingProfiler\n"
        "assert repro.profiler.SkippingProfiler is SkippingProfiler\n"
        "assert repro.engine.run_batch is repro.engine.batch.run_batch\n"
    )


def _batch(workloads) -> set:
    return modules_after(
        "from repro.engine.batch import job_for_workload, run_batch\n"
        f"jobs = [job_for_workload(name) for name in {workloads!r}]\n"
        "rows = run_batch(jobs, jobs_parallel=2)\n"
        "assert all(row['ok'] for row in rows), rows\n"
    )


def test_run_batch_imports_the_python_frontend_before_forking():
    # the pool workers inherit it instead of importing it per worker
    assert "repro.frontend.lowering" in _batch(["histogram_py", "fib"])


def test_minic_batch_leaves_the_python_frontend_unloaded():
    assert "repro.frontend.lowering" not in _batch(["fib", "sort"])
