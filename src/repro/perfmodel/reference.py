"""Paper-reported values, verbatim, for side-by-side comparison.

The ``repro headline | scaling | machines | production`` tables print
the relevant entries from here next to the reproduced numbers and
``tests/test_perfmodel.py`` asserts against the same data.
"""

from __future__ import annotations

__all__ = ["PAPER"]

PAPER: dict = {
    # Section 7 headline numbers
    "headline": {
        "peak_pflops": 50.0,
        "fraction_of_peak": 0.249,
        "md_performance_matom_steps_node_s": 6.21,
        "steps_per_s_20b": 1.47,
        "natoms_20b": 19_683_000_000,
        "nodes": 4650,
        "gpus": 27900,
        "deepmd_matom_steps_node_s": 0.271,
        "speedup_vs_deepmd": 22.9,
    },
    # Fig. 3 strong scaling sample sizes (atoms)
    "strong_scaling_sizes": [1_259_712, 10_077_696, 102_503_232,
                             1_024_192_512, 4_251_528_000, 19_683_000_000],
    "strong_scaling_efficiency": {
        # (natoms, nodes_hi, nodes_lo) : parallel efficiency
        (19_683_000_000, 4650, 972): 0.97,
        (1_024_192_512, 4650, 64): 0.82,
        (10_077_696, 512, 1): 0.41,
    },
    # Fig. 4 time-fraction pies at full machine (SNAP, MPI Comm, Other)
    "breakdown": {
        19_683_000_000: {"SNAP": 0.95, "MPI Comm": 0.04, "Other": 0.01},
        1_024_192_512: {"SNAP": 0.86, "MPI Comm": 0.12, "Other": 0.02},
        102_503_232: {"SNAP": 0.60, "MPI Comm": 0.35, "Other": 0.05},
    },
    # Fig. 5 weak scaling
    "weak_scaling": {
        "atoms_per_node": 373_248,
        "efficiency_4096_vs_1": 0.90,
        "rack_size": 18,
        "rate_at_full_machine_ns_per_day": 1.0,
    },
    # Fig. 6 machine comparison (1,024,192,512-atom sample)
    "machines": {
        "summit_over_frontera_per_node": 52.0,
        "selene_over_summit_per_node": 1.9,
        "selene_20b_512_matom": 12.72,
        "selene_20b_pflops": 11.14,
        "perlmutter_20b_1024_matom": 6.42,
        "perlmutter_20b_pflops": 11.24,
    },
    # Fig. 7 production run
    "production": {
        "natoms": 1_024_192_512,
        "nodes": 4650,
        "wall_hours": 24.0,
        "sim_time_ns": 1.0,
        "temperatures": [5000.0, 5300.0, 5500.0, 5500.0, 5500.0],
        "mean_perf_matom": 5.0,
    },
    # Gayatri et al. Table I (2000 atoms, 26 neighbors, 2J=8): speed in
    # Katom-steps/s, nominal peak TFLOPs, fraction-of-peak normalized to
    # SandyBridge.
    "table1": [
        ("Intel SandyBridge", 2012, 17.7, 0.332, 1.0),
        ("IBM PowerPC", 2012, 2.52, 0.205, 0.23),
        ("AMD CPU", 2013, 5.35, 0.141, 0.71),
        ("NVIDIA K20X", 2013, 2.60, 1.31, 0.037),
        ("Intel Haswell", 2016, 29.4, 1.18, 0.47),
        ("Intel KNL", 2016, 11.1, 2.61, 0.080),
        ("NVIDIA P100", 2016, 21.8, 5.30, 0.077),
        ("Intel Broadwell", 2017, 25.4, 1.21, 0.39),
        ("NVIDIA V100", 2018, 32.8, 7.8, 0.079),
    ],
    # TestSNAP optimization ladder (Gayatri et al. Figs. 2-3): speedup
    # relative to the baseline Kokkos implementation on V100.
    "testsnap": {
        "2J8_final_speedup": 22.0,   # "~22x performance increase"
        "2J14_final_speedup": 8.0,   # Fig. 3 top bar
        "problem": {"natoms": 2000, "nnbor": 26},
    },
    # Bispectrum component counts quoted in the text
    "ncomponents": {8: 55, 14: 204},
}
