"""Runtime sanitizers: NaN/Inf kernel guards and the scatter-add race
detector, wired through ``SNAPParams.check_finite`` and the
``check_finite`` / ``race_check`` arguments of ``build_engine``.

Covers the acceptance criteria of the lint PR:

* an injected NaN in a force kernel is caught with the offending phase
  (and rank, in the distributed engine) named,
* a deliberately overlapping owned-row scatter-add triggers the race
  detector, and
* a real 4-rank run reports zero overlaps.
"""

import threading

import numpy as np
import pytest

from repro.core import SNAPParams
from repro.lint.sanitizers import (NumericsError, RaceDetector, RaceError,
                                   check_finite)
from repro.md import MDLoop, build_engine, build_pairs
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
        self.calls = 0  # guarded-by: _lock
        self._lock = threading.Lock()

    @property
    def cutoff(self):
        return self.inner.cutoff

    def compute(self, natoms, nbr):
        result = self.inner.compute(natoms, nbr)
        with self._lock:
            self.calls += 1
            poison = self.calls == self.poison_call
        if poison and result.forces.size:
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

    def test_distributed_names_offending_rank(self, rng):
        s, pot = snap_carbon(rng)
        poisoned = _PoisonOnCall(pot, poison_call=3)
        engine = build_engine(s, poisoned, nranks=4, check_finite=True)
        with pytest.raises(NumericsError,
                           match=r"phase 'rank_force' \[rank2\]"):
            engine.evaluate()


# ======================================================================
# RaceDetector unit behavior
# ======================================================================
class TestRaceDetector:
    def test_disjoint_writers_clean(self):
        det = RaceDetector()
        det.begin_epoch()
        det.record("forces.scatter", "rank0", np.arange(0, 10))
        det.record("forces.scatter", "rank1", np.arange(10, 20))
        assert det.check() == []
        assert det.reports == []

    def test_overlap_detected_with_attribution(self):
        det = RaceDetector()
        det.begin_epoch()
        det.record("forces.scatter", "rank0", np.arange(0, 12))
        det.record("forces.scatter", "rank1", np.arange(8, 20))
        with pytest.raises(RaceError, match="rank0 and rank1"):
            det.check()
        assert det.reports[0].phase == "forces.scatter"
        assert det.reports[0].count == 4

    def test_serialized_overlap_is_exempt(self):
        det = RaceDetector()
        det.begin_epoch()
        det.record("comm.reverse", "rank0", np.arange(0, 12),
                   serialized=True)
        det.record("comm.reverse", "rank1", np.arange(8, 20),
                   serialized=True)
        assert det.check() == []

    def test_phases_do_not_cross_talk(self):
        det = RaceDetector()
        det.begin_epoch()
        det.record("phase_a", "rank0", np.arange(0, 10))
        det.record("phase_b", "rank1", np.arange(5, 15))
        assert det.check() == []

    def test_epoch_reset_clears_records(self):
        det = RaceDetector(raise_on_overlap=False)
        det.begin_epoch()
        det.record("p", "a", np.arange(4))
        det.record("p", "b", np.arange(4))
        assert len(det.check()) == 1
        det.begin_epoch()
        assert det.check() == []
        assert det.epochs == 2

    def test_interval_quick_reject_still_finds_sparse_overlap(self):
        det = RaceDetector()
        det.begin_epoch()
        # interleaved but disjoint index sets: intervals overlap, rows don't
        det.record("p", "even", np.arange(0, 20, 2))
        det.record("p", "odd", np.arange(1, 20, 2))
        assert det.check() == []
        # one shared row buried in overlapping intervals
        det.begin_epoch()
        det.record("p", "even", np.arange(0, 20, 2))
        det.record("p", "odd", np.append(np.arange(1, 20, 2), 10))
        with pytest.raises(RaceError, match=r"\[10\]"):
            det.check()

    def test_concurrent_recording_is_thread_safe(self):
        det = RaceDetector()
        det.begin_epoch()

        def writer(w):
            for i in range(50):
                det.record("p", f"w{w}", np.array([w * 10_000 + i]))

        threads = [threading.Thread(target=writer, args=(w,))
                   for w in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(det.records) == 200
        assert det.check() == []


# ======================================================================
# race detector wired through the distributed engine
# ======================================================================
class TestDistributedRaceCheck:
    def test_real_run_reports_zero_overlaps(self, rng):
        s, pot = snap_carbon(rng)
        engine = build_engine(s, pot, nranks=4, race_check=True)
        MDLoop(engine, dt=1e-3).run(2)
        assert engine.race_detector.reports == []
        assert engine.race_detector.epochs == 3  # initial eval + 2 steps

    def test_synthetic_overlapping_scatter_add_is_flagged(self, rng):
        s, pot = snap_carbon(rng)
        engine = build_engine(s, pot, nranks=4, race_check=True)
        engine.evaluate()
        # corrupt rank ownership: rank1 now claims three of rank0's rows,
        # which makes the owned-row scatter-adds overlap
        engine._ranks[1].owned[:3] = engine._ranks[0].owned[:3]
        with pytest.raises(RaceError,
                           match=r"forces\.scatter.*rank0 and rank1"):
            engine.evaluate()
        assert engine.race_detector.reports[0].count == 3

    def test_detector_absent_when_flag_off(self, rng):
        s, pot = snap_carbon(rng)
        engine = build_engine(s, pot, nranks=2)
        assert engine.race_detector is None
        engine.evaluate()

    def test_sanitized_run_matches_clean_run(self, rng):
        """Sanitizers observe; they must not change the physics."""
        s, pot = snap_carbon(rng)
        ref = build_engine(s.copy(), pot, nranks=4).evaluate()
        chk = build_engine(s.copy(), pot, nranks=4, check_finite=True,
                           race_check=True).evaluate()
        assert ref.energy == chk.energy
        assert np.array_equal(ref.forces, chk.forces)
