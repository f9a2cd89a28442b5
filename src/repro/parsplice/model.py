"""State-to-state dynamics models for Parallel Trajectory Splicing.

The lecture's ParSplice section (extension scope, see DESIGN.md) builds
on a key result: after a decorrelation time in a state, the next escape
is Markovian from the quasi-stationary distribution.  State-to-state
dynamics is therefore exactly a continuous-time Markov chain, which we
implement directly; landscapes with superbasin structure reproduce the
"revisits are extremely common" regime that gives ParSplice its largest
speedups.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..constants import KB

__all__ = ["MarkovStateModel", "arrhenius_msm", "nanoparticle_landscape"]


@dataclass
class MarkovStateModel:
    """Continuous-time Markov chain over discrete states.

    ``rates[i, j]`` is the transition rate i -> j [1/ps]; diagonal
    entries are ignored.
    """

    rates: np.ndarray

    def __post_init__(self) -> None:
        self.rates = np.asarray(self.rates, dtype=float)
        n = self.rates.shape[0]
        if self.rates.shape != (n, n):
            raise ValueError("rates must be square")
        if np.any(self.rates < 0):
            raise ValueError("rates must be non-negative")
        self.rates = self.rates.copy()
        np.fill_diagonal(self.rates, 0.0)
        self._exit = self.rates.sum(axis=1)

    @property
    def nstates(self) -> int:
        return self.rates.shape[0]

    def evolve(self, state: int, duration: float,
               rng: np.random.Generator) -> tuple[int, int]:
        """Exact (Gillespie) evolution for ``duration``; returns
        ``(end_state, n_transitions)``."""
        t = 0.0
        ntrans = 0
        while True:
            k = self._exit[state]
            if k <= 0:
                return state, ntrans
            dt = rng.exponential(1.0 / k)
            if t + dt > duration:
                return state, ntrans
            t += dt
            p = self.rates[state] / k
            state = int(rng.choice(self.nstates, p=p))
            ntrans += 1

    def trajectory(self, state: int, duration: float,
                   rng: np.random.Generator) -> list[tuple[float, int]]:
        """Full event list ``[(time, new_state), ...]`` over ``duration``."""
        t = 0.0
        events = []
        while True:
            k = self._exit[state]
            if k <= 0:
                return events
            dt = rng.exponential(1.0 / k)
            if t + dt > duration:
                return events
            t += dt
            p = self.rates[state] / k
            state = int(rng.choice(self.nstates, p=p))
            events.append((t, state))

    def stationary_distribution(self) -> np.ndarray:
        """Stationary distribution of the chain (via the generator kernel)."""
        q = self.rates.copy()
        np.fill_diagonal(q, -self._exit)
        a = np.vstack([q.T, np.ones(self.nstates)])
        b = np.zeros(self.nstates + 1)
        b[-1] = 1.0
        pi, *_ = np.linalg.lstsq(a, b, rcond=None)
        return np.clip(pi, 0.0, None) / np.clip(pi, 0.0, None).sum()


def arrhenius_msm(energies: np.ndarray, barriers: np.ndarray,
                  temperature: float, prefactor: float = 1.0) -> MarkovStateModel:
    """Rates from an energy landscape: ``k_ij = nu exp(-(B_ij - E_i)/kT)``.

    ``barriers[i, j]`` is the saddle energy between i and j (symmetric;
    ``inf`` disables the pathway), guaranteeing detailed balance.
    """
    energies = np.asarray(energies, dtype=float)
    barriers = np.asarray(barriers, dtype=float)
    n = energies.size
    if barriers.shape != (n, n):
        raise ValueError("barriers must be (n, n)")
    if not np.allclose(barriers, barriers.T, equal_nan=True):
        raise ValueError("barriers must be symmetric (detailed balance)")
    kt = KB * temperature
    with np.errstate(over="ignore"):
        rates = prefactor * np.exp(-(barriers - energies[:, None]) / kt)
    rates[~np.isfinite(rates)] = 0.0
    np.fill_diagonal(rates, 0.0)
    return MarkovStateModel(rates=rates)


def nanoparticle_landscape(n_basins: int = 4, states_per_basin: int = 5,
                           intra_barrier: float = 0.25, inter_barrier: float = 0.8,
                           energy_spread: float = 0.10, seed: int = 0
                           ) -> tuple[np.ndarray, np.ndarray]:
    """Superbasin landscape like the metallic-nanoparticle benchmarks.

    Low barriers inside each basin (fast revisits) and high barriers
    between basins (rare escapes) - the regime where ParSplice's
    caching of revisited states pays off most.
    """
    rng = np.random.default_rng(seed)
    n = n_basins * states_per_basin
    energies = rng.uniform(0.0, energy_spread, size=n)
    barriers = np.full((n, n), np.inf)
    for b in range(n_basins):
        lo, hi = b * states_per_basin, (b + 1) * states_per_basin
        for i in range(lo, hi):
            for j in range(i + 1, hi):
                bar = max(energies[i], energies[j]) + \
                    intra_barrier * rng.uniform(0.8, 1.2)
                barriers[i, j] = barriers[j, i] = bar
        # one gateway to the next basin (ring topology)
        nxt = ((b + 1) % n_basins) * states_per_basin
        bar = max(energies[hi - 1], energies[nxt]) + \
            inter_barrier * rng.uniform(0.9, 1.1)
        barriers[hi - 1, nxt] = barriers[nxt, hi - 1] = bar
    return energies, barriers
