"""Runtime sanitizer: NaN/Inf kernel guards, wired through
``SNAPParams.check_finite`` and the ``check_finite`` argument of
``build_engine``.

* an injected NaN in a force kernel is caught with the offending phase
  (and rank, in the process engine) named.

Two static nets live here too: the pytest ``filterwarnings`` pin that
turns NumPy's ``ComplexWarning`` into an error, and (when installed) a
ruff session with the curated rule set from pyproject.toml.
"""

import shutil
import subprocess
from pathlib import Path

import numpy as np
import pytest

from repro.core import SNAPParams
from repro.core.sanitizers import NumericsError, check_finite
from repro.md import build_engine, build_pairs
from repro.potentials import SNAPPotential
from repro.structures import lattice_system

REPO = Path(__file__).resolve().parents[1]


def snap_carbon(rng, reps=(3, 3, 3), jitter=0.03, **params):
    p = SNAPParams(twojmax=4, rcut=2.4, **params)
    pot = SNAPPotential(p, beta=rng.normal(
        size=SNAPPotential(p).snap.index.ncoeff))
    s = lattice_system("diamond", a=3.57, reps=reps)
    s.positions = s.positions + rng.normal(scale=jitter,
                                           size=s.positions.shape)
    return s, pot


def _with_nan_beta(pot):
    """``pot`` rebuilt with one NaN coefficient (``SNAP.beta`` is
    read-only: the coefficients are folded into the contraction plan
    when the evaluator is built)."""
    beta = pot.snap.beta.copy()
    beta[1] = np.nan
    return SNAPPotential(pot.params, beta=beta)


class _PoisonLaterRows:
    """Potential wrapper that poisons the per-atom energy of every row
    window not starting at atom 0 - with two process ranks, rank 1's
    rows only (a many-body energy stays on its own rows)."""

    def __init__(self, inner):
        self.inner = inner

    def __getattr__(self, name):
        return getattr(self.inner, name)

    def pair_gradients(self, nbr, rows):
        peratom, dedr = self.inner.pair_gradients(nbr, rows)
        if rows[0] > 0:
            peratom = peratom.copy()
            peratom[0] = np.nan
        return peratom, dedr


# ======================================================================
# check_finite
# ======================================================================
class TestCheckFinite:
    def test_clean_arrays_pass(self):
        check_finite("stage", x=np.ones(4), y=np.zeros((2, 3)))

    def test_nan_raises_with_phase_and_name(self):
        arr = np.ones(5)
        arr[3] = np.nan
        with pytest.raises(NumericsError,
                           match=r"phase 'compute_yi'.*\by\b.*1/5.*index 3"):
            check_finite("compute_yi", x=np.ones(2), y=arr)

    def test_inf_raises(self):
        with pytest.raises(NumericsError, match="compute_ui"):
            check_finite("compute_ui", utot=np.array([1.0, np.inf]))

    def test_where_context_in_message(self):
        with pytest.raises(NumericsError, match=r"\[rank2\]"):
            check_finite("rank_force", where="rank2",
                         forces=np.array([np.nan]))

    def test_complex_arrays_checked(self):
        with pytest.raises(NumericsError):
            check_finite("stage", z=np.array([1 + 1j, np.nan + 0j]))

    def test_integer_and_none_skipped(self):
        check_finite("stage", idx=np.arange(3), missing=None)

    def test_scalars_accepted(self):
        check_finite("stage", energy=1.5)
        with pytest.raises(NumericsError):
            check_finite("stage", energy=float("nan"))


# ======================================================================
# NaN guard on the kernels
# ======================================================================
class TestKernelGuards:
    def test_serial_snap_catches_poisoned_input(self, rng):
        s, pot = snap_carbon(rng, check_finite=True)
        s.positions[0, 0] = np.nan
        nbr = build_pairs(np.nan_to_num(s.positions), s.box, pot.cutoff)
        nbr.rij[0, 0] = np.nan  # poison one pair vector
        with pytest.raises(NumericsError, match="neighbor_input"):
            pot.compute(s.natoms, nbr)

    def test_serial_snap_catches_poisoned_coefficients(self, rng):
        s, pot = snap_carbon(rng, check_finite=True)
        pot = _with_nan_beta(pot)  # poisons Y/peratom, not U
        nbr = build_pairs(s.positions, s.box, pot.cutoff)
        with pytest.raises(NumericsError, match="compute_yi"):
            pot.compute(s.natoms, nbr)

    def test_off_by_default_lets_nan_through(self, rng):
        s, pot = snap_carbon(rng)
        assert pot.snap.params.check_finite is False
        pot = _with_nan_beta(pot)
        nbr = build_pairs(s.positions, s.box, pot.cutoff)
        result = pot.compute(s.natoms, nbr)  # no raise: sanitizer off
        assert np.isnan(result.energy)

    def test_process_workers_run_the_kernel_stage_checks(self, rng):
        """``SNAPParams.check_finite`` is the kernel's own switch: it
        must bite wherever the kernel runs, the process workers
        included, with the engine-level check off."""
        s, pot = snap_carbon(rng, reps=(2, 2, 2), check_finite=True)
        engine = build_engine(s, _with_nan_beta(pot), backend="process",
                              nprocs=2, check_finite=False)
        with engine, pytest.raises(RuntimeError, match=r"worker rank \d"):
            engine.evaluate()

    def test_distributed_names_offending_rank(self, rng):
        """The engine-level check runs on each process rank's own rows
        and names the rank (``proc<k>``) whose rows went non-finite."""
        s, pot = snap_carbon(rng)
        engine = build_engine(s, _PoisonLaterRows(pot), backend="process",
                              nprocs=2, check_finite=True)
        with engine, pytest.raises(RuntimeError,
                                   match="worker rank 1") as failed:
            engine.evaluate()
        assert isinstance(failed.value.__cause__, NumericsError)
        assert "phase 'rank_force' [proc1]" in str(failed.value.__cause__)

    def test_sanitized_run_matches_clean_run(self, rng):
        """The sanitizer observes; it must not change the physics."""
        s, pot = snap_carbon(rng)
        with build_engine(s.copy(), pot, backend="process",
                          nprocs=2) as engine:
            ref = engine.evaluate()
        with build_engine(s.copy(), pot, backend="process", nprocs=2,
                          check_finite=True) as engine:
            chk = engine.evaluate()
        assert ref.energy == chk.energy
        assert np.array_equal(ref.forces, chk.forces)


# ======================================================================
# complex narrowing: convicted at run time, no lint rule
# ======================================================================
#: the two shapes the deleted R2-complex-narrowing rule convicted, and
#: the repaired form; executed, not linted
_NARROW_STORE = (
    "import numpy as np\n"
    "def fold(u):\n"
    "    out = np.zeros(4)\n"
    "    c = u * np.exp(1j * 0.5)\n"
    "    out[0] = c\n"
    "    return out\n"
    "fold(2.0)\n")
_NARROW_ASTYPE = (
    "import numpy as np\n"
    "z = np.zeros(3, dtype=np.complex128)\n"
    "z.astype(np.float64)\n")


class TestR2Dtype:
    # implicit complex->real narrowing is convicted by NumPy itself: the
    # project pytest config (filterwarnings) turns ComplexWarning into an
    # error on every tested path, which these two executed fixtures pin
    def test_complex_store_into_real_buffer_fires(self):
        with pytest.raises(np.exceptions.ComplexWarning):
            exec(_NARROW_STORE, {})

    def test_complex_astype_real_fires(self):
        with pytest.raises(np.exceptions.ComplexWarning):
            exec(_NARROW_ASTYPE, {})

    def test_explicit_real_is_silent(self):
        exec(_NARROW_STORE.replace("out[0] = c\n", "out[0] = c.real\n"), {})


# ======================================================================
# generic static analysis
# ======================================================================
@pytest.mark.skipif(shutil.which("ruff") is None,
                    reason="ruff not installed (pip install -e .[lint])")
def test_ruff_session():
    proc = subprocess.run(
        ["ruff", "check", "src", "tests", "benchmarks"],
        capture_output=True, text=True, cwd=REPO)
    assert proc.returncode == 0, proc.stdout + proc.stderr
