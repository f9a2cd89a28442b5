"""Carbon at extreme conditions: the paper's science workflow in miniature.

Reproduces the scientific pipeline of the billion-atom runs at tractable
scale:

1. cold equations of state for diamond and BC8 over a compression sweep
   (energy and pressure in Mbar; the paper's regime is ~12 Mbar),
2. an amorphous-carbon sample by melt-quench,
3. Steinhardt-fingerprint phase analysis (amorphous / diamond / BC8) -
   the same detector that would flag BC8 emergence in a production run,
4. coupling of a crystallization curve into the Fig. 7 production-trace
   model.

Labels come from the Stillinger-Weber carbon stand-in (see DESIGN.md,
substitution #2); what matters here is that every analysis code path of
the paper's campaign is exercised end-to-end.

Run:  python examples/carbon_extreme_conditions.py
"""

import numpy as np

from repro.analysis import PhaseClassifier, pressure_bar, rdf
from repro.constants import MBAR
from repro.md import build_pairs
from repro.md.system import ParticleSystem
from repro.perfmodel import ProductionRun, production_trace
from repro.potentials import StillingerWeber
from repro.structures import lattice_system, melt_quench


def cold_curve(pot, kind, a0, scales):
    """Energy/volume/pressure along an isotropic compression path."""
    rows = []
    for s in scales:
        system = lattice_system(kind, a=a0 * s, reps=(2, 2, 2))
        nbr = build_pairs(system.positions, system.box, pot.cutoff)
        res = pot.compute(system.natoms, nbr)
        p_mbar = pressure_bar(system, res) / MBAR
        rows.append((system.box.volume / system.natoms,
                     res.energy / system.natoms, p_mbar))
    return rows


def main() -> None:
    pot = StillingerWeber()

    print("=== 1. Cold curves: diamond vs BC8 under compression ===")
    scales = np.linspace(1.02, 0.78, 9)
    curves = {kind: cold_curve(pot, kind, a0, scales)
              for kind, a0 in (("diamond", 3.567), ("bc8", 4.44))}
    print(f"{'V/atom [A^3]':>14s} {'E_dia [eV]':>12s} {'E_bc8 [eV]':>12s} "
          f"{'P_dia [Mbar]':>13s} {'P_bc8 [Mbar]':>13s}")
    for (vd, ed, pd), (vb, eb, pb) in zip(curves["diamond"], curves["bc8"]):
        print(f"{vd:14.3f} {ed:12.4f} {eb:12.4f} {pd:13.2f} {pb:13.2f}")
    print("note: with the SW stand-in, diamond stays the classical ground "
          "state; the DFT-level diamond->BC8 crossover near 12 Mbar needs "
          "the paper's quantum-accurate training data.")

    print("\n=== 2. Melt-quench amorphous carbon ===")
    ac = melt_quench(pot, natoms=216, density=0.18, melt_temp=9000.0,
                     quench_temp=300.0, melt_steps=120, quench_steps=120,
                     dt=2.5e-4, seed=11)
    r, g = rdf(ac.positions, ac.box, rmax=4.0, nbins=60)
    first_peak = r[np.argmax(g)]
    print(f"  a-C sample: {ac.natoms} atoms at {ac.density():.3f} /A^3, "
          f"g(r) first peak at {first_peak:.2f} A")

    print("\n=== 3. Phase analysis (the BC8 detector) ===")
    pc = PhaseClassifier()
    for label, system in (
            ("a-C (quench)", ac),
            ("diamond", lattice_system("diamond", a=3.57, reps=(3, 3, 3))),
            ("BC8", lattice_system("bc8", a=4.44, reps=(3, 3, 3)))):
        frac = pc.fractions(system.positions, system.box)
        print(f"  {label:14s} " + "  ".join(
            f"{k}: {v * 100:5.1f}%" for k, v in frac.items()))

    print("\n=== 4. Coupling crystallization into the Fig. 7 trace ===")
    # toy crystallization curve: none early, sigmoidal growth later
    bc8_curve = lambda f: 1.0 / (1.0 + np.exp(-10.0 * (f - 0.5)))
    trace = production_trace(ProductionRun(wall_hours=6.0), bc8_curve)
    q = len(trace["perf"]) // 4
    print(f"  early rate: {np.median(trace['perf'][:q]):.2f} "
          f"-> late rate: {np.median(trace['perf'][-q:]):.2f} "
          "Matom-steps/node-s (BC8 load-balance gain)")


if __name__ == "__main__":
    main()
