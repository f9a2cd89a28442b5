"""Integration test: the paper's production workflow in miniature.

A temperature-segmented Langevin run with binary checkpoints, phase
tracking via the Steinhardt classifier, and restart-from-checkpoint -
exercising MD driver + potential + dump + analysis together the way the
24-hour Summit run did.
"""

import numpy as np
import pytest

from repro.analysis import PhaseClassifier, ThermoObserver
from repro.md import LangevinThermostat, MDLoop, build_engine, load_checkpoint
from repro.perfmodel import ProductionRun, production_trace
from repro.potentials import StillingerWeber
from repro.structures import lattice_system


@pytest.fixture(scope="module")
def mini_production(tmp_path_factory):
    """Run 3 temperature segments with checkpointing; return artifacts."""
    tmp = tmp_path_factory.mktemp("prod")
    pot = StillingerWeber()
    system = lattice_system("diamond", a=3.567, reps=(2, 2, 2))
    system.seed_velocities(300.0, rng=np.random.default_rng(0))
    ck = tmp / "restart.npz"
    sim = MDLoop(build_engine(system, pot), dt=5e-4,
                 thermostat=LangevinThermostat(temp=300.0, damp=0.05, seed=1),
                 checkpoint_every=20, checkpoint_path=ck,
                 observers=[ThermoObserver(every=20)])
    fractions = []
    pc = PhaseClassifier()
    for temp in (300.0, 600.0, 900.0):
        sim.thermostat = LangevinThermostat(temp=temp, damp=0.05, seed=int(temp))
        sim.run(40)
        fractions.append(pc.fractions(system.box.wrap(system.positions),
                                      system.box))
    return sim, ck, fractions


class TestMiniProduction:
    def test_segments_heat_up(self, mini_production):
        sim, _, _ = mini_production
        temps = [r["temperature"] for r in sim.observers[0].rows]
        assert temps[-1] > temps[0]

    def test_io_phase_recorded(self, mini_production):
        sim, _, _ = mini_production
        assert sim.timers.totals.get("io", 0) > 0

    def test_checkpoint_restart_matches(self, mini_production):
        sim, ck, _ = mini_production
        checkpoint = load_checkpoint(ck)
        system = checkpoint.system
        assert checkpoint.step == sim.step
        assert np.allclose(system.positions, sim.system.positions)
        # restarting MD from the checkpoint works
        sim2 = MDLoop(build_engine(system, StillingerWeber()), dt=5e-4)
        assert sim2.run(2).steps == 2

    def test_phase_tracking(self, mini_production):
        _, _, fractions = mini_production
        # stays mostly diamond at these temperatures/durations
        assert fractions[0]["diamond"] > 0.5
        for f in fractions:
            assert sum(f.values()) == pytest.approx(1.0)

    def test_trace_coupling_with_measured_fractions(self, mini_production):
        _, _, fractions = mini_production
        # feed the measured crystalline fraction into the Fig. 7 model
        xs = np.linspace(0.0, 1.0, len(fractions))
        ys = np.array([f["diamond"] + f["bc8"] for f in fractions])

        def curve(f):
            return float(np.interp(f, xs, ys))

        trace = production_trace(ProductionRun(wall_hours=2.0), curve)
        assert trace["bc8"].min() >= 0.0
        assert trace["bc8"].max() <= 1.0
        assert len(trace["perf"]) > 10
