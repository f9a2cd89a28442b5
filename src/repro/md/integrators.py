"""Time integration and thermostats.

Velocity-Verlet NVE plus the Langevin thermostat used by the paper's
production runs ("time spent in ... the Langevin thermostat, Verlet time
integration" - Fig. 4 caption).  Units are LAMMPS *metal* (see
:mod:`repro.constants`), so accelerations are ``F / (m * MVV2E)``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from ..constants import KB, MVV2E
from .system import ParticleSystem

__all__ = ["VelocityVerlet", "LangevinThermostat", "BerendsenThermostat"]


@dataclass
class VelocityVerlet:
    """Velocity-Verlet integrator, split into the two half-kicks.

    ``dt`` in ps (the paper's production step is ~1 fs = 1e-3 ps).
    """

    dt: float = 1.0e-3

    def __post_init__(self) -> None:
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        self._key: tuple | None = None

    def _kick(self, system: ParticleSystem, forces: np.ndarray) -> None:
        """``v += 0.5 dt F / (m MVV2E)``, the same products in the same
        order, with ``1 / (m MVV2E)`` formed once per masses array and
        ``dt`` (restore and bind install new arrays, so the key is the
        array object, not its values)."""
        masses = system.masses
        key = self._key
        if key is None or key[0] is not masses or key[1] != self.dt:
            inv_m = 1.0 / (masses * MVV2E)
            self._key = key = (masses, self.dt, 0.5 * self.dt,
                               inv_m[:, None])
        kick = np.multiply(forces, key[2])
        kick *= key[3]
        system.velocities += kick

    def first_half(self, system: ParticleSystem, forces: np.ndarray) -> None:
        """Half kick + full drift."""
        self._kick(system, forces)
        system.positions = system.positions + self.dt * system.velocities

    def second_half(self, system: ParticleSystem, forces: np.ndarray) -> None:
        """Second half kick with the new forces."""
        self._kick(system, forces)


@dataclass
class LangevinThermostat:
    """Langevin thermostat as a force modifier (LAMMPS ``fix langevin``).

    Adds a drag ``-m v / damp`` and a random kick with variance chosen
    to satisfy fluctuation-dissipation at temperature ``temp`` [K];
    ``damp`` is the relaxation time [ps].
    """

    temp: float
    damp: float = 0.1
    seed: int = 2021

    def __post_init__(self) -> None:
        if self.temp < 0:
            raise ValueError("temperature must be non-negative")
        if self.damp <= 0:
            raise ValueError("damp must be positive")
        self._rng = np.random.default_rng(self.seed)
        self._key: tuple | None = None

    def add_forces(self, system: ParticleSystem, forces: np.ndarray, dt: float) -> None:
        # the per-atom factors -m/damp and the noise amplitude, formed
        # once per masses array (by object, as in VelocityVerlet) and
        # (dt, temp, damp)
        masses = system.masses
        key = self._key
        if (key is None or key[0] is not masses
                or key[1] != (dt, self.temp, self.damp)):
            m = masses * MVV2E
            amp = np.sqrt(2.0 * KB * self.temp * m / (dt * self.damp))
            self._key = key = (masses, (dt, self.temp, self.damp),
                               -(m / self.damp)[:, None], amp[:, None])
        drag = key[2] * system.velocities
        noise = self._rng.normal(size=(system.natoms, 3))
        drag += np.multiply(key[3], noise, out=noise)
        forces += drag

    # ------------------------------------------------------------------
    # checkpointable RNG state
    # ------------------------------------------------------------------
    def rng_state(self) -> np.ndarray:
        """Current bit-generator state (i.e. *after* the last draw),
        encoded as a uint8 JSON buffer so it embeds in an ``.npz``
        checkpoint (and compares clean under ``np.allclose`` in
        cross-backend tests).  A resumed run's next draw continues the
        stream exactly where the interrupted run left it."""
        encoded = json.dumps(self._rng.bit_generator.state,
                             sort_keys=True).encode("ascii")
        return np.frombuffer(encoded, dtype=np.uint8).copy()

    def set_rng_state(self, encoded: np.ndarray) -> None:
        """Restore a state captured by :meth:`rng_state`."""
        self._rng.bit_generator.state = json.loads(
            np.asarray(encoded, dtype=np.uint8).tobytes().decode("ascii"))


@dataclass
class BerendsenThermostat:
    """Weak-coupling velocity rescale (cheap equilibration aid)."""

    temp: float
    tau: float = 0.1

    def apply(self, system: ParticleSystem, dt: float) -> None:
        t_now = system.temperature()
        if t_now <= 0:
            return
        lam = np.sqrt(1.0 + dt / self.tau * (self.temp / t_now - 1.0))
        system.velocities *= lam
