"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``info``
    Library/model summary (component counts, machines, FLOP model).
``headline``
    Print the Section-7 headline reproduction block.
``scaling``
    Print the strong/weak scaling and breakdown tables (Figs. 3-5).
``machines``
    Print the machine-comparison table (Fig. 6).
``production``
    Simulate the 24 h production trace (Fig. 7) and print summary rows.
``run-md``
    Run real MD on either execution backend (serial / multiprocess)
    through the shared engine layer and print the
    :class:`repro.md.RunSummary`.
``parsplice-serve``
    Serve batched real-MD ParSplice segments from a pool of persistent
    engine sessions (:class:`repro.parsplice.SegmentScheduler`) and
    print the spliced-trajectory throughput plus per-session reuse.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import nullcontext

import numpy as np


def _cmd_info(args) -> int:
    from . import __version__
    from .core.flops import PAPER_FLOPS_PER_ATOM_STEP
    from .core.indexing import num_bispectrum
    from .perfmodel import MACHINES

    print(f"repro {__version__} - SC'21 billion-atom SNAP MD reproduction")
    print(f"bispectrum components: 2J=8 -> {num_bispectrum(8)}, "
          f"2J=14 -> {num_bispectrum(14)}")
    print(f"FLOPs per atom-step (2J=8, 26 nbrs): "
          f"{PAPER_FLOPS_PER_ATOM_STEP / 1e6:.2f} M")
    print("machines:", ", ".join(m.name for m in MACHINES.values()))
    return 0


def _cmd_headline(args) -> int:
    from .core.flops import PAPER_FLOPS_PER_ATOM_STEP
    from .perfmodel import MACHINES, PAPER, md_performance, pflops

    n20, nodes = 19_683_000_000, 4650
    perf = md_performance("summit", n20, nodes) / 1e6
    pf = pflops("summit", n20, nodes, PAPER_FLOPS_PER_ATOM_STEP)
    frac = pf * 1e15 / (nodes * MACHINES["summit"].peak_flops_node)
    h = PAPER["headline"]
    print(f"{'quantity':34s} {'model':>8s} {'paper':>8s}")
    for name, got, want in [
            ("Matom-steps/node-s (20B atoms)", perf,
             h["md_performance_matom_steps_node_s"]),
            ("PFLOPS (fp64)", pf, h["peak_pflops"]),
            ("fraction of peak", frac, h["fraction_of_peak"]),
            ("speedup vs DeepMD", perf / h["deepmd_matom_steps_node_s"],
             h["speedup_vs_deepmd"])]:
        print(f"{name:34s} {got:8.3f} {want:8.3f}")
    return 0


def _cmd_scaling(args) -> int:
    from .perfmodel import PAPER, breakdown, strong_scaling, weak_scaling

    nodes = [64, 256, 972, 2048, 4650]
    print("strong scaling (Matom-steps/node-s):")
    print(f"{'atoms':>15s}  " + "".join(f"{n:>9d}" for n in nodes))
    for natoms in PAPER["strong_scaling_sizes"]:
        sweep = strong_scaling("summit", natoms, nodes)
        print(f"{natoms:15,d}  " + "".join(
            f"{p:9.2f}" for p in sweep["matom_steps_node_s"]))
    print("\nweak scaling at 373,248 atoms/node:")
    ws = weak_scaling("summit", 373_248, [1, 8, 64, 512, 4096])
    print("  " + "  ".join(f"{n}n:{p:.2f}" for n, p in
                           zip(ws["nodes"], ws["matom_steps_node_s"])))
    print("\nbreakdown at 4650 nodes (SNAP/MPI/Other):")
    for natoms in PAPER["breakdown"]:
        b = breakdown("summit", natoms, 4650)
        print(f"{natoms:15,d}  {b['SNAP']*100:4.0f}% / "
              f"{b['MPI Comm']*100:4.0f}% / {b['Other']*100:4.0f}%")
    return 0


def _cmd_machines(args) -> int:
    from .perfmodel import MACHINES, md_performance

    n1b = 1_024_192_512
    print(f"{'machine':12s} {'Matom-steps/node-s (1B atoms, 256 nodes)':>42s}")
    for key, spec in MACHINES.items():
        print(f"{spec.name:12s} {md_performance(key, n1b, 256) / 1e6:42.2f}")
    return 0


def _cmd_production(args) -> int:
    from .perfmodel import ProductionRun, production_trace

    trace = production_trace(ProductionRun(wall_hours=args.hours))
    perf = trace["perf"]
    print(f"simulated {trace['wall_hours'][-1]:.1f} h, "
          f"{trace['sim_time_ns'][-1]:.2f} ns of physics")
    print(f"median rate {np.median(perf):.2f} Matom-steps/node-s, "
          f"I/O dip floor {perf.min():.2f}")
    return 0


def _cmd_run_md(args) -> int:
    from .core import SNAP, SNAPParams
    from .md import MDLoop, TrajectoryFile, build_engine
    from .potentials import LennardJones, SNAPPotential
    from .structures import random_packed

    density = 0.1
    s = random_packed(args.natoms, density=density, seed=1)
    s.seed_velocities(args.temp, rng=np.random.default_rng(2))
    if args.potential == "lj":
        pot = LennardJones(epsilon=0.1, sigma=2.0,
                           cutoff=(26 / (4 / 3 * np.pi * density)) ** (1 / 3))
    else:
        rcut = (26 / (4 / 3 * np.pi * density)) ** (1 / 3)
        params = SNAPParams(twojmax=args.twojmax, rcut=rcut)
        pot = SNAPPotential(params, beta=np.random.default_rng(0).normal(
            size=SNAP(params).index.ncoeff))
    observers = []
    for name in (n.strip() for n in (args.observe or "").split(",") if n.strip()):
        if name == "rdf":
            from .analysis import RDFObserver
            rmax = (26 / (4 / 3 * np.pi * density)) ** (1 / 3)
            observers.append(RDFObserver(rmax=rmax,
                                         every=args.observe_every))
        elif name == "phase":
            from .analysis import PhaseFractionObserver
            observers.append(PhaseFractionObserver(every=args.observe_every))
        elif name == "thermo":
            from .analysis import ThermoObserver
            observers.append(ThermoObserver(every=args.observe_every))
        else:
            print(f"unknown observer: {name} (choose rdf, phase, thermo)")
            return 2
    try:
        engine = build_engine(s, pot, backend=args.backend,
                              nprocs=args.nprocs)
    except ValueError as exc:
        print(f"run-md: {exc}")
        return 2
    with engine, (TrajectoryFile(args.traj, natoms=s.natoms) if args.traj
                  else nullcontext()) as writer:
        summary = MDLoop(engine, dt=args.dt, trajectory=writer,
                         trajectory_every=args.traj_every,
                         observers=observers).run(args.steps)
    backend = type(engine).__name__
    layout = "" if summary.nprocs is None else f" [{summary.nprocs} procs]"
    print(f"{backend}{layout}: {summary.natoms} atoms x {summary.steps} steps "
          f"in {summary.wall_s:.3f} s "
          f"-> {summary.atom_steps_per_s / 1e3:.2f} Katom-steps/s")
    for phase, frac in sorted(summary.phase_fractions.items()):
        print(f"  {phase:8s} {frac * 100:5.1f}%")
        sub = summary.phase_breakdown[phase].get("sub", {})
        for name, seconds in sorted(sub.items()):
            print(f"    {name:20s} {seconds * 1e3:9.2f} ms")
    if writer is not None and summary.io_bytes is not None:
        rate = summary.io_bytes_per_s or 0.0
        print(f"  trajectory: {summary.io_frames} frames, "
              f"{summary.io_bytes} bytes -> {args.traj} "
              f"({rate / 1e6:.1f} MB/s)")
    for obs in observers:
        print(f"  observer {type(obs).__name__}: "
              f"{_observer_samples(obs)} samples")
    return 0


def _observer_samples(obs) -> int:
    for attr in ("nsamples",):
        if hasattr(obs, attr):
            return int(getattr(obs, attr))
    for attr in ("rows", "steps"):
        if hasattr(obs, attr):
            return len(getattr(obs, attr))
    return 0


def _cmd_parsplice_serve(args) -> int:
    from .parsplice import SegmentScheduler, run_parsplice
    from .potentials import LennardJones
    from .structures import random_packed

    density = 0.1
    cutoff = (26 / (4 / 3 * np.pi * density)) ** (1 / 3)
    base = random_packed(args.natoms, density=density, seed=1)
    rng = np.random.default_rng(3)
    states = []
    for i in range(args.nstates):
        s = base.copy()
        if i:  # distinct metastable templates: jittered copies of the base
            s.positions += rng.normal(scale=0.02, size=s.positions.shape)
        states.append(s)
    pot = LennardJones(epsilon=0.1, sigma=2.0, cutoff=cutoff)
    engine_kwargs = {}
    if args.backend is not None:
        engine_kwargs["backend"] = args.backend
    if args.nprocs is not None:
        engine_kwargs["nprocs"] = args.nprocs
    with SegmentScheduler(states, pot, nworkers=args.sessions,
                          nsteps=args.nsteps, dt=args.dt,
                          temperature=args.temp, seed=args.seed,
                          **engine_kwargs) as sched:
        run = run_parsplice(sched, nworkers=args.sessions,
                            quanta=args.quanta)
        sessions = sched.session_stats()
    print(f"{run.nworkers} sessions x {run.quanta} quanta: "
          f"{run.trajectory_time:.2f} ps spliced from "
          f"{run.generated_time:.2f} ps generated in {run.wall_s:.2f} s -> "
          f"{run.spliced_ns_per_s:.3g} ns/s "
          f"({sched.stats.cache_hits} cache hits, "
          f"{sched.stats.reschedules} reschedules)")
    for i, row in enumerate(sessions):
        print(f"  session {i} [{row['backend']}, pid {row['pid']}]: "
              f"{row['segments']} segments, {row['binds']} binds, "
              f"{row['steps']} steps, {row['md_wall_s']:.2f} s MD")
    return 0


def _at_least(floor: int):
    """An argparse ``type``: an integer no smaller than ``floor``."""
    def parse(text: str) -> int:
        value = int(text)
        if value < floor:
            raise argparse.ArgumentTypeError(
                f"must be >= {floor}, got {value}")
        return value
    parse.__name__ = "int"  # argparse's "invalid int value" message
    return parse


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro", description="SC'21 SNAP MD reproduction toolkit")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("info").set_defaults(fn=_cmd_info)
    sub.add_parser("headline").set_defaults(fn=_cmd_headline)
    sub.add_parser("scaling").set_defaults(fn=_cmd_scaling)
    sub.add_parser("machines").set_defaults(fn=_cmd_machines)
    p = sub.add_parser("production")
    p.add_argument("--hours", type=float, default=24.0)
    p.set_defaults(fn=_cmd_production)
    p = sub.add_parser("run-md")
    p.add_argument("--natoms", type=_at_least(1), default=128)
    p.add_argument("--steps", type=_at_least(0), default=10)
    p.add_argument("--dt", type=float, default=1.0e-3)
    p.add_argument("--temp", type=float, default=300.0)
    p.add_argument("--backend", choices=("serial", "process"),
                   default=None,
                   help="force backend; default infers from --nprocs")
    p.add_argument("--nprocs", type=int, default=None,
                   help="worker processes for the process backend")
    p.add_argument("--traj", default=None,
                   help="stream a binary trajectory to this path")
    p.add_argument("--traj-every", type=_at_least(1), default=1,
                   help="trajectory frame cadence in steps")
    p.add_argument("--observe", default=None,
                   help="comma list of in-situ observers: rdf,phase,thermo")
    p.add_argument("--observe-every", type=_at_least(1), default=1,
                   help="observer cadence in steps")
    p.add_argument("--potential", choices=("lj", "snap"), default="lj")
    p.add_argument("--twojmax", type=int, default=4)
    p.set_defaults(fn=_cmd_run_md)
    p = sub.add_parser(
        "parsplice-serve",
        help="batched real-MD ParSplice segments over persistent "
             "engine sessions")
    p.add_argument("--natoms", type=_at_least(1), default=64)
    p.add_argument("--nstates", type=_at_least(1), default=3,
                   help="size of the jittered state library")
    p.add_argument("--sessions", type=_at_least(1), default=2,
                   help="persistent engine sessions (concurrent segments)")
    p.add_argument("--quanta", type=_at_least(1), default=4,
                   help="scheduling quanta (one batch per quantum)")
    p.add_argument("--nsteps", type=_at_least(1), default=50,
                   help="MD steps per segment")
    p.add_argument("--dt", type=float, default=1.0e-3)
    p.add_argument("--temp", type=float, default=300.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--backend", choices=("serial", "process"),
                   default=None, help="engine backend for every session")
    p.add_argument("--nprocs", type=int, default=None,
                   help="worker processes per session (process backend)")
    p.set_defaults(fn=_cmd_parsplice_serve)
    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
