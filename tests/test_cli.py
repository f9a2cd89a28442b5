"""Tests for the command-line interface."""

import re
import runpy
from pathlib import Path

import pytest

from repro.cli import main

EXAMPLES = sorted((Path(__file__).resolve().parents[1] / "examples")
                  .glob("*.py"))


class TestCLI:
    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "55" in out and "204" in out

    def test_headline(self, capsys):
        assert main(["headline"]) == 0
        out = capsys.readouterr().out
        assert "PFLOPS" in out
        assert "6.2" in out  # Matom-steps/node-s

    def test_scaling(self, capsys):
        assert main(["scaling"]) == 0
        out = capsys.readouterr().out
        assert "weak scaling" in out
        assert "19,683,000,000" in out

    def test_machines(self, capsys):
        assert main(["machines"]) == 0
        out = capsys.readouterr().out
        assert "Summit" in out and "Frontera" in out

    def test_production(self, capsys):
        assert main(["production", "--hours", "2"]) == 0
        out = capsys.readouterr().out
        assert "ns of physics" in out

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_subcommand_census(self, capsys):
        """The subcommands are reviewed, not accreted: exactly these,
        and the deleted ``tune`` and ``bench-kernel`` are argparse usage
        errors."""
        for argv in (["tune", "--twojmax", "4"],
                     ["bench-kernel", "--natoms", "24"]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
            usage = capsys.readouterr().err
            assert re.search(r"\{(.*?)\}", usage).group(1).split(",") == [
                "info", "headline", "scaling", "machines", "production",
                "run-md", "parsplice-serve", "lint"]


class TestRunMD:
    """The ``run-md`` command across execution backends."""

    def test_trajectory_streaming(self, capsys, tmp_path):
        trj = tmp_path / "run.trj"
        assert main(["run-md", "--natoms", "32", "--steps", "4",
                     "--traj", str(trj), "--traj-every", "2"]) == 0
        out = capsys.readouterr().out
        assert "trajectory: 3 frames" in out
        from repro.md import TrajectoryReader
        with TrajectoryReader(trj) as r:
            assert list(r.steps()) == [0, 2, 4]

    def test_observers(self, capsys):
        assert main(["run-md", "--natoms", "32", "--steps", "2",
                     "--observe", "thermo,phase"]) == 0
        out = capsys.readouterr().out
        assert "observer ThermoObserver: 3 samples" in out
        assert "observer PhaseFractionObserver: 3 samples" in out

    def test_unknown_observer_rejected(self, capsys):
        assert main(["run-md", "--natoms", "32", "--steps", "1",
                     "--observe", "bogus"]) == 2
        assert "unknown observer" in capsys.readouterr().out

    def test_serial_default(self, capsys):
        assert main(["run-md", "--natoms", "32", "--steps", "2"]) == 0
        out = capsys.readouterr().out
        assert "SerialEngine" in out
        assert "32 atoms x 2 steps" in out
        assert "procs]" not in out and "ranks" not in out
        # sub-phases are printed under their phase, in ms
        assert re.search(r"neigh +[\d.]+%\n +rebuild +[\d.]+ ms", out)

    def test_backend_serial_explicit(self, capsys):
        assert main(["run-md", "--natoms", "32", "--steps", "2",
                     "--backend", "serial"]) == 0
        assert "SerialEngine" in capsys.readouterr().out

    def test_backend_process(self, capsys):
        assert main(["run-md", "--natoms", "32", "--steps", "2",
                     "--backend", "process", "--nprocs", "2"]) == 0
        out = capsys.readouterr().out
        assert "ProcessEngine [2 procs]" in out
        assert "32 atoms x 2 steps" in out

    def test_nprocs_infers_process_backend(self, capsys):
        assert main(["run-md", "--natoms", "32", "--steps", "2",
                     "--nprocs", "3"]) == 0
        assert "ProcessEngine [3 procs]" in capsys.readouterr().out

    def test_backend_distributed(self, capsys):
        assert main(["run-md", "--natoms", "128", "--steps", "2",
                     "--backend", "distributed", "--nranks", "2"]) == 0
        out = capsys.readouterr().out
        assert "DistributedEngine [2 ranks]" in out

    @pytest.mark.parametrize("argv,name", [
        (["--backend", "serial", "--nranks", "8"], "nranks"),
        (["--backend", "distributed", "--nranks", "2", "--nprocs", "4"],
         "nprocs"),
    ])
    def test_foreign_size_argument_rejected(self, capsys, argv, name):
        assert main(["run-md", "--natoms", "32", "--steps", "1"] + argv) == 2
        assert f"run-md: {name}=" in capsys.readouterr().out

    def test_rejects_unknown_backend(self):
        with pytest.raises(SystemExit):
            main(["run-md", "--backend", "threads"])

    def test_snap_runs_without_a_tuner(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run-md", "--potential", "snap", "--tune"])
        assert exc.value.code == 2
        capsys.readouterr()
        assert main(["run-md", "--potential", "snap", "--twojmax", "2",
                     "--natoms", "32", "--steps", "1"]) == 0
        out = capsys.readouterr().out
        assert "SerialEngine: 32 atoms x 1 steps" in out
        assert "tuned:" not in out
        # one contraction: the CLI has no kernel mode left to name
        import inspect

        import repro.cli
        assert "y_mode" not in inspect.getsource(repro.cli)


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda p: p.name)
def test_example_runs(script, capsys, monkeypatch, tmp_path):
    """Every ``examples/*.py`` runs to completion as ``__main__`` and
    prints something; from ``tmp_path``, so nothing lands in the tree."""
    monkeypatch.chdir(tmp_path)
    runpy.run_path(str(script), run_name="__main__")
    assert capsys.readouterr().out.strip()
