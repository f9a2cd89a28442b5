"""Tests for the command-line interface."""

import os
import re
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main

EXAMPLES = sorted((Path(__file__).resolve().parents[1] / "examples")
                  .glob("*.py"))


def test_import_skips_the_scipy_modules_no_run_uses():
    """``import repro`` (and the packages every run-md imports) leaves
    ``scipy.optimize`` and ``scipy.interpolate`` unimported: the three
    functions that use them (``relax_volume``, ``fit_birch_murnaghan``,
    ``TablePotential``) import them themselves, so no start-up pays for
    them."""
    code = ("import sys, repro, repro.md, repro.potentials, repro.analysis\n"
            "print(sorted(m for m in ('scipy.optimize', 'scipy.interpolate')"
            " if m in sys.modules))")
    src = str(Path(__file__).resolve().parents[1] / "src")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "[]"


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
        and the deleted ``tune``, ``bench-kernel`` and ``lint`` are
        argparse usage errors."""
        for argv in (["tune", "--twojmax", "4"],
                     ["bench-kernel", "--natoms", "24"], ["lint", "src"]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
            usage = capsys.readouterr().err
            assert re.search(r"\{(.*?)\}", usage).group(1).split(",") == [
                "info", "headline", "scaling", "machines", "production",
                "run-md", "parsplice-serve"]


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

    def test_foreign_size_argument_rejected(self, capsys):
        assert main(["run-md", "--natoms", "32", "--steps", "1",
                     "--backend", "serial", "--nprocs", "4"]) == 2
        assert "run-md: nprocs=" in capsys.readouterr().out

    @pytest.mark.parametrize("argv", [["--nranks", "2"],
                                      ["--backend", "distributed"]])
    @pytest.mark.parametrize("command", ["run-md", "parsplice-serve"])
    def test_rank_engine_is_gone(self, command, argv):
        with pytest.raises(SystemExit) as exc:
            main([command] + argv)
        assert exc.value.code == 2

    def test_rejects_unknown_backend(self):
        with pytest.raises(SystemExit):
            main(["run-md", "--backend", "threads"])

    def test_count_arguments_rejected_at_parse_time(self, capsys, tmp_path):
        # each used to end in a traceback, or (a frame cadence of 0) in
        # a header-only trajectory and exit 0
        traj = tmp_path / "t.trj"
        for argv in (["run-md", "--steps", "-1"],
                     ["run-md", "--natoms", "0"],
                     ["run-md", "--traj", str(traj), "--traj-every", "0"],
                     ["run-md", "--traj", str(traj), "--traj-every", "-2"],
                     ["run-md", "--observe", "thermo",
                      "--observe-every", "0"],
                     ["parsplice-serve", "--natoms", "0"],
                     ["parsplice-serve", "--sessions", "0"],
                     ["parsplice-serve", "--quanta", "0"],
                     ["parsplice-serve", "--nsteps", "0"],
                     ["parsplice-serve", "--nstates", "0"]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2, argv
            assert f"argument {argv[-2]}: must be >= " \
                in capsys.readouterr().err, argv
        assert not traj.exists()
        assert main(["run-md", "--natoms", "16", "--steps", "0"]) == 0

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


class TestParSpliceServe:
    """The ``parsplice-serve`` command, end to end over worker processes."""

    def test_campaign_reports_throughput_and_sessions(self, capsys):
        assert main(["parsplice-serve", "--natoms", "16", "--nstates", "2",
                     "--sessions", "2", "--quanta", "2",
                     "--nsteps", "4"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert re.match(r"2 sessions x 2 quanta: \S+ ps spliced from "
                        r"\S+ ps generated in \S+ s -> \S+ ns/s ", lines[0])
        rows = [re.match(r"  session \d \[SerialEngine, pid \d+\]: "
                         r"(\d+) segments, (\d+) binds, (\d+) steps",
                         line) for line in lines[1:]]
        assert len(rows) == 2 and all(rows)
        segments = [int(row.group(1)) for row in rows]
        assert sum(segments) == 2 * 2  # every segment run, none cached
        assert [int(row.group(3)) for row in rows] \
            == [4 * n for n in segments]
