"""Runtime sanitizer: NaN/Inf kernel guards, wired through
``SNAPParams.check_finite`` and the ``check_finite`` argument of
``build_engine``.

* an injected NaN in a force kernel is caught with the offending phase
  (and rank, in the distributed engine) named, and
* the invariant the deleted scatter-add race detector watched - every
  atom owned by exactly one rank - is asserted on the rank states.
"""

import numpy as np
import pytest

from repro.core import SNAPParams
from repro.lint.sanitizers import NumericsError, check_finite
from repro.md import build_engine, build_pairs
from repro.potentials import SNAPPotential
from repro.structures import lattice_system


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


class _PoisonOnCall:
    """Potential wrapper that poisons forces on the Nth compute() call."""

    def __init__(self, inner, poison_call):
        self.inner = inner
        self.poison_call = poison_call
        self.calls = 0

    @property
    def cutoff(self):
        return self.inner.cutoff

    def compute(self, natoms, nbr):
        result = self.inner.compute(natoms, nbr)
        self.calls += 1
        if self.calls == self.poison_call and result.forces.size:
            result.forces[0, 0] = np.nan
        return result


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
        s, pot = snap_carbon(rng)
        poisoned = _PoisonOnCall(pot, poison_call=3)
        engine = build_engine(s, poisoned, nranks=4, check_finite=True)
        with pytest.raises(NumericsError,
                           match=r"phase 'rank_force' \[rank2\]"):
            engine.evaluate()

    def test_sanitized_run_matches_clean_run(self, rng):
        """The sanitizer observes; it must not change the physics."""
        s, pot = snap_carbon(rng)
        ref = build_engine(s.copy(), pot, nranks=4).evaluate()
        chk = build_engine(s.copy(), pot, nranks=4,
                           check_finite=True).evaluate()
        assert ref.energy == chk.energy
        assert np.array_equal(ref.forces, chk.forces)


# ======================================================================
# rank ownership (what the race detector watched when ranks were threads)
# ======================================================================
class TestOwnership:
    def test_owned_rows_partition_the_atoms_exactly_once(self, rng):
        """Ranks run in order on one thread, so the whole scatter
        invariant is static: after a rebuild every atom is owned by
        exactly one rank - with an empty rank in the grid, and again
        after atoms moved across subdomain faces."""
        s, pot = snap_carbon(rng)
        engine = build_engine(s, pot, nranks=4, check_finite=True)
        axis = int(np.argmax(engine.grid.dims))
        length = s.box.lengths[axis]
        # squeezed into 0.05-0.45 L: the upper ranks own nothing
        s.positions[:, axis] = 0.05 * length + 0.4 * s.positions[:, axis]
        for shift, empty in ((0.0, True), (0.3 * length, False)):
            s.positions[:, axis] += shift
            engine.evaluate()
            owned = [state.owned for state in engine._ranks]
            assert any(o.size == 0 for o in owned) == empty
            assert np.array_equal(np.sort(np.concatenate(owned)),
                                  np.arange(s.natoms))
        assert engine.neighbor_builds == 2
