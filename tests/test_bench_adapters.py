"""The benchmark suite's view of the repo must survive refactors.

``benchmarks/suite/adapters.py`` is the one file through which the repo
benchmark touches ``repro``; breaking a name or keyword it uses should
fail here, in tier-1, before it fails the benchmark run.
"""

import importlib.util
import inspect
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
ADAPTERS = ROOT / "benchmarks" / "suite" / "adapters.py"


def _load_adapters():
    spec = importlib.util.spec_from_file_location("suite_adapters", ADAPTERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_adapter_surface_resolves_and_binds():
    repo = _load_adapters()
    missing = [name for name in repo.__all__ if not hasattr(repo, name)]
    assert not missing
    # the workloads' engine and scheduler call shapes
    inspect.signature(repo.build_engine).bind(
        None, None, backend="process", nprocs=2)
    inspect.signature(repo.build_engine).bind(None, None, backend="serial")
    assert "nworkers" in inspect.signature(repo.SegmentScheduler).parameters
    assert "nsteps" in inspect.signature(repo.SegmentScheduler).parameters


def test_layout_census():
    """The suite is the only perf record: ``benchmarks/`` holds
    ``suite/`` and nothing else, no ``BENCH_*.json`` sits at the repo
    root, and pytest neither collects ``bench_*.py`` nor needs
    pytest-benchmark."""
    found = sorted(p.name for p in (ROOT / "benchmarks").iterdir()
                   if p.name != "__pycache__")
    assert found == ["suite"]
    assert sorted(ROOT.glob("BENCH_*.json")) == []
    pyproject = (ROOT / "pyproject.toml").read_text()
    assert "bench_*.py" not in pyproject
    assert "pytest-benchmark" not in pyproject
