"""Free-particle propagator, two-step slit propagator, and stationary crossing time.

The 1-D free propagator between space-time events a and b is

    K(b; a) = sqrt(m / (2 pi i hbar dt)) * exp(i m dx^2 / (2 hbar dt)),

with dt = t_b - t_a and dx = x_b - x_a; the square root is the principal
branch, which puts a fixed exp(-i pi/4) in the prefactor.  A path that
crosses a slit is the product of two such factors, one per leg, evaluated
with the geometric leg lengths in place of the collinear coordinate
differences.  The slit-crossing time is not measured, so the slit phase

    phi(t_slit) = (m / 2 hbar) * (L1^2/t_slit + L2^2/(tau - t_slit))

is a function of it; the phase is stationary (and minimal) at the crossing
time that makes the leg speeds equal, t* = tau * L1/(L1 + L2), where it
equals m (L1+L2)^2 / (2 hbar tau) -- exactly the single-path matter phase
pi L_path / lambda at the uniform speed (L1+L2)/tau.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .kinematics import HBAR, ParticleSpecies, PhaseValue

#: unit tags for ComplexAmplitude; propagator_1d covers propagator-chain
#: objects (single factors, two-leg products, time-summed kernels), relative
#: marks dimensionless per-path weights used only up to a common scale.
UNIT_PROPAGATOR_1D = "propagator_1d"
UNIT_RELATIVE = "relative"


@dataclass(frozen=True)
class SpaceTimeEvent:
    """A 1-D event: position (m) along the relevant axis and time (s)."""

    position: float
    time: float

    def __post_init__(self):
        if not (math.isfinite(self.position) and math.isfinite(self.time)):
            raise ValueError("event coordinates must be finite")


@dataclass(frozen=True)
class ComplexAmplitude:
    """A complex probability amplitude with an explicit unit tag."""

    re: float
    im: float
    unit_note: str = UNIT_PROPAGATOR_1D

    def __post_init__(self):
        if not (math.isfinite(self.re) and math.isfinite(self.im)):
            raise ValueError("amplitude components must be finite")

    @classmethod
    def from_complex(cls, z: complex, unit_note: str = UNIT_PROPAGATOR_1D):
        return cls(z.real, z.imag, unit_note)

    def as_complex(self) -> complex:
        return complex(self.re, self.im)

    def magnitude(self) -> float:
        return math.hypot(self.re, self.im)

    def argument(self) -> float:
        return math.atan2(self.im, self.re)


@dataclass(frozen=True)
class TwoLegPath:
    """A slit-crossing path: leg lengths (m) and total duration tau (s)."""

    l1: float
    l2: float
    tau: float

    def __post_init__(self):
        if not (self.l1 > 0.0 and self.l2 > 0.0 and self.tau > 0.0):
            raise ValueError("leg lengths and duration must be positive")

    @property
    def total_length(self) -> float:
        return self.l1 + self.l2


def time_sum_prefactor(species: ParticleSpecies) -> complex:
    """The two-step product prefactor m / (2 pi i hbar), argument -pi/2."""
    return species.mass / (2j * math.pi * HBAR)


def free_propagator(
    a: SpaceTimeEvent, b: SpaceTimeEvent, species: ParticleSpecies
) -> ComplexAmplitude:
    """Free 1-D propagator K(b; a); requires b strictly later than a."""
    dt = b.time - a.time
    if dt <= 0.0:
        raise ValueError(f"propagation must run forward in time, got dt={dt}")
    dx = b.position - a.position
    m = species.mass
    pref = cmath.sqrt(m / (2j * math.pi * HBAR * dt))  # principal branch
    phase = m * dx * dx / (2.0 * HBAR * dt)
    z = pref * cmath.exp(1j * phase)
    return ComplexAmplitude.from_complex(z, UNIT_PROPAGATOR_1D)


def path_phase(length: float, duration: float, species: ParticleSpecies) -> PhaseValue:
    """Constant-velocity path phase m L^2 / (2 hbar dt)."""
    if not duration > 0.0:
        raise ValueError(f"duration must be positive, got {duration}")
    if length < 0.0:
        raise ValueError(f"length must be non-negative, got {length}")
    return PhaseValue(species.mass * length * length / (2.0 * HBAR * duration))


def two_step_amplitude(
    path: TwoLegPath, t_slit: float, species: ParticleSpecies
) -> ComplexAmplitude:
    """Product propagator for one slit crossing at time ``t_slit``.

    Leg lengths stand in for the coordinate differences, so the amplitude is
    built from events at path positions 0, L1, L1+L2.  The magnitude is
    (m / 2 pi hbar) / sqrt(t_slit (tau - t_slit)), independent of the legs.
    """
    if not 0.0 < t_slit < path.tau:
        raise ValueError(
            f"t_slit must lie strictly inside (0, tau), got {t_slit} vs tau={path.tau}"
        )
    source = SpaceTimeEvent(0.0, 0.0)
    slit = SpaceTimeEvent(path.l1, t_slit)
    screen = SpaceTimeEvent(path.l1 + path.l2, path.tau)
    k1 = free_propagator(source, slit, species)
    k2 = free_propagator(slit, screen, species)
    return ComplexAmplitude.from_complex(
        k2.as_complex() * k1.as_complex(), UNIT_PROPAGATOR_1D
    )


def slit_phase(path: TwoLegPath, t_slit: float, species: ParticleSpecies) -> PhaseValue:
    """Accumulated phase of a slit crossing: (m/2 hbar)(L1^2/t + L2^2/(tau-t))."""
    if not 0.0 < t_slit < path.tau:
        raise ValueError(
            f"t_slit must lie strictly inside (0, tau), got {t_slit} vs tau={path.tau}"
        )
    m = species.mass
    raw = (m / (2.0 * HBAR)) * (
        path.l1 * path.l1 / t_slit + path.l2 * path.l2 / (path.tau - t_slit)
    )
    return PhaseValue(raw)


def stationary_slit_time(path: TwoLegPath) -> float:
    """Crossing time t* = tau L1/(L1+L2) at which the slit phase is stationary.

    At t* the speeds before and after the slit are equal: L1/t* = L2/(tau-t*).
    """
    return path.tau * path.l1 / (path.l1 + path.l2)


def stationary_phase(path: TwoLegPath, species: ParticleSpecies) -> PhaseValue:
    """Slit phase at the stationary crossing time: m (L1+L2)^2 / (2 hbar tau).

    This is the minimum of the slit phase over crossing times, and equals the
    single-path matter phase pi (L1+L2)/lambda at the uniform speed
    (L1+L2)/tau, which is what makes it the right single-path weight.
    Raises OverflowError when the phase exceeds the float range.
    """
    lp = path.total_length
    denominator = 2.0 * HBAR * path.tau
    raw = species.mass * lp * lp / denominator if denominator > 0.0 else math.inf
    if not math.isfinite(raw):
        raise OverflowError(f"the stationary phase of {path} is not finite")
    return PhaseValue(raw)
