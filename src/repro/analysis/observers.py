"""In-situ observers for :class:`repro.md.engine.MDLoop`.

Billion-atom runs cannot afford post-hoc analysis over full-position
dumps - the paper's science output (RDF curves, BC8 phase fractions,
thermo traces) is a few kilobytes per sample against gigabytes of
positions.  These observers compute those reductions *inside* the MD
loop so production runs stream compact observables instead.

Protocol (duck-typed, checked by the loop at call time)::

    observe(step, system, result)   # called when step % every == 0
    every                           # int cadence >= 1, default 1

``result`` is the :class:`repro.core.snap.EnergyForces` of the step's
force evaluation (may be ``None`` for observers attached outside a
run).  Observer wall time is accounted under the loop's "analysis"
phase, so its cost is visible in the same phase breakdown the paper's
Fig. 4 uses.
"""

from __future__ import annotations

import numpy as np

from .phase import PhaseClassifier
from .rdf import bond_histogram, length_histogram
from .thermo import pressure

__all__ = ["RDFObserver", "PhaseFractionObserver", "ThermoObserver"]


def _cadence(every) -> int:
    every = int(every)
    if every < 1:
        raise ValueError(f"every must be >= 1, got {every}")
    return every


class RDFObserver:
    """Accumulate a radial distribution function over the run.

    Same normalization as :func:`repro.analysis.rdf.rdf` averaged over
    the sampled frames (each sample carries its own ideal-gas
    normalization, so a cell changed between samples averages right).

    The pair search is the step's own when it can be: a result that
    carries its engine's neighbour list (``EnergyForces.neighbors``, a
    serial engine's half list) yields the bonds within ``rmax`` from
    that list's pairs (:meth:`repro.md.NeighborList.bond_lengths`),
    with the counts :func:`~repro.analysis.rdf.bond_histogram` would
    give to the bit.  Otherwise - no result, a full list, ``rmax``
    beyond the list's cutoff, a small box, or a process engine - the
    observer runs that search itself.
    """

    def __init__(self, rmax: float, nbins: int = 100, every: int = 1) -> None:
        if rmax <= 0:
            raise ValueError("rmax must be positive")
        self.rmax = float(rmax)
        self.nbins = int(nbins)
        self.every = _cadence(every)
        self.hist = np.zeros(self.nbins)
        #: accumulated ``n_atoms * rho`` over samples (the per-sample
        #: ideal-gas normalization, summed so result() averages g(r))
        self.norm = 0.0
        self.nsamples = 0

    def observe(self, step, system, result) -> None:
        nlist = getattr(result, "neighbors", None)
        lengths = None if nlist is None else nlist.bond_lengths(
            system.positions, system.box, self.rmax)
        if lengths is None:
            hist, _edges = bond_histogram(system.positions, system.box,
                                          self.rmax, self.nbins)
        else:
            hist, _edges = length_histogram(lengths, self.rmax, self.nbins)
        self.hist += hist
        self.norm += system.natoms * (system.natoms / system.box.volume)
        self.nsamples += 1

    def result(self) -> tuple[np.ndarray, np.ndarray]:
        """``(r_centers, g)`` averaged over the sampled frames."""
        if self.nsamples == 0:
            raise RuntimeError("RDFObserver has no samples yet")
        edges = np.linspace(0.0, self.rmax, self.nbins + 1)
        rc = 0.5 * (edges[1:] + edges[:-1])
        shell = 4.0 * np.pi * rc**2 * np.diff(edges)
        return rc, self.hist / (shell * self.norm)


class PhaseFractionObserver:
    """Track phase fractions (diamond / BC8 / liquid ...) vs step.

    Wraps :class:`repro.analysis.phase.PhaseClassifier` - the quantity
    behind the paper's Fig. 7 BC8-crystallization curve.
    """

    def __init__(self, classifier: PhaseClassifier | None = None,
                 every: int = 1) -> None:
        self.classifier = classifier if classifier is not None \
            else PhaseClassifier()
        self.every = _cadence(every)
        self.steps: list[int] = []
        self.fractions: list[dict] = []

    def observe(self, step, system, result) -> None:
        self.steps.append(int(step))
        self.fractions.append(
            self.classifier.fractions(system.positions, system.box))

    def series(self) -> dict[str, np.ndarray]:
        """Columnar view: ``{"steps": ..., "<phase>": fraction array}``."""
        out: dict[str, np.ndarray] = {"steps": np.array(self.steps)}
        for name in (self.fractions[0] if self.fractions else {}):
            out[name] = np.array([f[name] for f in self.fractions])
        return out


class ThermoObserver:
    """Stream reduced thermo scalars - the cheapest in-situ observable.

    Records step, temperature, potential/kinetic/total energy and (when
    the backend provides an exact virial) pressure.
    """

    def __init__(self, every: int = 1) -> None:
        self.every = _cadence(every)
        self.rows: list[dict] = []

    def observe(self, step, system, result) -> None:
        ke = float(system.kinetic_energy())
        pe = float(result.energy) if result is not None else 0.0
        row = {
            "step": int(step),
            "temperature": float(system.temperature()),
            "potential_energy": pe,
            "kinetic_energy": ke,
            "total_energy": pe + ke,
        }
        if result is not None and result.virial is not None:
            row["pressure"] = float(pressure(system, result))
        self.rows.append(row)

    def table(self) -> dict[str, np.ndarray]:
        """Columnar view of every recorded row (ragged keys zero-fill)."""
        if not self.rows:
            return {}
        keys: list[str] = []
        for row in self.rows:
            for k in row:
                if k not in keys:
                    keys.append(k)
        return {k: np.array([row.get(k, 0.0) for row in self.rows])
                for k in keys}
