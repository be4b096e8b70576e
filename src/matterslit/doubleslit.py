"""Two-slit screen patterns by three methods, and the near-field phase records.

Geometry (all lengths in m, y transverse, z longitudinal):

    source (z=0, y=source_y)
       |<-- dist_source_slits -->|  slits (centers slit1_y, slit2_y)
                                 |<-- dist_slits_screen -->|  screen

Per-path amplitudes at a screen point are summed coherently over one or
more transit points per slit and over both slits, in a fixed order, then
squared and normalized to a unit maximum.  Three methods are supported:

intuitive
    unit-magnitude wavefront counting exp(i 2 pi L_path / lambda) at a
    single wavelength fixed by the convention speed; correct for light,
    approximate for matter.

stationary_phase
    the leading large-phi0 weight sqrt(pi/phi0) exp(i (phi0 + pi/4)) with
    phi0 = m L_path^2 / (2 hbar tau) and tau fixed for all paths (equal
    total time, as the propagator sum requires).

time_summed
    the windowed slit-time integral centered on each path's stationary
    crossing time.

The two timing conventions are connected by v = (D1 + D2) / tau over the
straight-through path.  In the near field the methods genuinely disagree:
with the source and detection point in line with one slit, the equal-time
phase difference between the two center paths is exactly 2 m d^2 / (hbar tau)
independent of the propagation distance, while wavefront counting picks up
an extra -m d^4 / (2 hbar tau L^2); when that correction reaches order pi,
the two methods predict opposite fringe types at the same point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import NodeBudgetError
from .kinematics import (
    HBAR,
    ParticleSpecies,
    PhaseValue,
    de_broglie_wavelength,
)
from .propagator import TwoLegPath
from .timesum import TimeSumConfig, evaluate_window

#: |difference| above this threshold is reported as physically significant
_SIGNIFICANCE_THRESHOLD = math.pi / 10.0


class Method(str, Enum):
    INTUITIVE = "intuitive"
    STATIONARY_PHASE = "stationary_phase"
    TIME_SUMMED = "time_summed"


class TimingConvention(str, Enum):
    EQUAL_TOTAL_TIME = "equal_total_time"  # one tau shared by all paths
    EQUAL_SPEED = "equal_speed"  # one speed, times follow lengths


@dataclass(frozen=True)
class Timing:
    """A timing convention plus its value (duration in s, or speed in m/s)."""

    convention: TimingConvention
    value: float

    def __post_init__(self):
        object.__setattr__(self, "convention", TimingConvention(self.convention))
        if not (self.value > 0.0 and math.isfinite(self.value)):
            raise ValueError(f"timing value must be positive and finite, got {self.value}")

    def duration(self, geometry: "SlitGeometry") -> float:
        if self.convention is TimingConvention.EQUAL_TOTAL_TIME:
            return self.value
        return geometry.straight_length / self.value

    def speed(self, geometry: "SlitGeometry") -> float:
        if self.convention is TimingConvention.EQUAL_SPEED:
            return self.value
        return geometry.straight_length / self.value


@dataclass(frozen=True)
class SlitGeometry:
    """Full 2-D layout of source, two slits (centers and widths), and screen."""

    source_y: float
    slit1_y: float
    slit2_y: float
    slit1_width: float
    slit2_width: float
    dist_source_slits: float
    dist_slits_screen: float

    def __post_init__(self):
        if not (self.dist_source_slits > 0.0 and self.dist_slits_screen > 0.0):
            raise ValueError("source-slit and slit-screen distances must be positive")
        if not (self.slit1_width > 0.0 and self.slit2_width > 0.0):
            raise ValueError("slit widths must be positive")
        if self.separation <= 0.5 * (self.slit1_width + self.slit2_width):
            raise ValueError(
                "slit intervals overlap: separation must exceed the mean width"
            )

    @property
    def separation(self) -> float:
        return abs(self.slit2_y - self.slit1_y)

    @property
    def straight_length(self) -> float:
        """Length of the straight-through path, source plane to screen plane."""
        return self.dist_source_slits + self.dist_slits_screen

    def slit_interval(self, index: int) -> tuple[float, float]:
        center = self.slit1_y if index == 1 else self.slit2_y
        width = self.slit1_width if index == 1 else self.slit2_width
        return center - 0.5 * width, center + 0.5 * width


@dataclass(frozen=True)
class ScreenPattern:
    """Screen coordinates with per-method probabilities normalized to max 1."""

    screen_y: tuple
    probability: tuple
    method: Method

    def __post_init__(self):
        if len(self.screen_y) != len(self.probability):
            raise ValueError("screen_y and probability must have equal length")
        p = np.asarray(self.probability)
        if len(p) and p.max() > 0 and abs(p.max() - 1.0) > 1e-12:
            raise ValueError("probabilities must be normalized to a unit maximum")


@dataclass(frozen=True)
class IntuitivePhaseDiff:
    """Wavefront-counting phase difference: exact form and its d^2/L expansion."""

    exact: PhaseValue
    expanded: PhaseValue


@dataclass(frozen=True)
class DiscrepancyReport:
    """Side-by-side near-field phase records for the two methods."""

    pi_value: PhaseValue  # equal-total-time (propagator) prediction
    intuitive_exact: PhaseValue
    intuitive_expanded: PhaseValue
    difference: PhaseValue  # intuitive_exact - pi_value
    significant: bool


def leg_lengths(
    geometry: SlitGeometry, slit_point_y: float, screen_y: float
) -> tuple[float, float]:
    """Euclidean leg lengths source -> transit point -> screen point."""
    lo1, hi1 = geometry.slit_interval(1)
    lo2, hi2 = geometry.slit_interval(2)
    if not (lo1 < slit_point_y < hi1 or lo2 < slit_point_y < hi2):
        raise ValueError(
            f"transit point y={slit_point_y} lies outside both slit openings"
        )
    l1 = math.hypot(geometry.dist_source_slits, slit_point_y - geometry.source_y)
    l2 = math.hypot(geometry.dist_slits_screen, screen_y - slit_point_y)
    return l1, l2


def transit_points(geometry: SlitGeometry, samples_per_slit: int) -> np.ndarray:
    """Midpoint-spaced transit points across both slit openings, slit 1 first."""
    if samples_per_slit < 1:
        raise ValueError(f"samples_per_slit must be >= 1, got {samples_per_slit}")
    offsets = (np.arange(samples_per_slit) + 0.5) / samples_per_slit - 0.5
    pts1 = geometry.slit1_y + offsets * geometry.slit1_width
    pts2 = geometry.slit2_y + offsets * geometry.slit2_width
    return np.concatenate([pts1, pts2])


def pattern_from_amplitudes(screen_y, amplitudes, method: Method) -> ScreenPattern:
    """Square coherent sums and normalize to a unit maximum."""
    p = np.abs(np.asarray(amplitudes)) ** 2
    peak = p.max()
    if peak > 0.0:
        p = p / peak
    return ScreenPattern(tuple(np.asarray(screen_y)), tuple(p), Method(method))


def pattern(
    geometry: SlitGeometry,
    timing: Timing,
    screen_points,
    method: Method,
    samples_per_slit: int,
    species: ParticleSpecies,
    timesum_config: TimeSumConfig | None = None,
) -> ScreenPattern:
    """Normalized screen pattern for one method.

    Transit points are summed coherently in a fixed order (slit 1 samples,
    then slit 2 samples), so results do not depend on any evaluation
    schedule.  The stationary-phase and time-summed methods require the
    equal-total-time convention; the time-summed method additionally needs a
    window configuration.
    """
    method = Method(method)
    screen_y = np.asarray(list(screen_points), dtype=float)
    if screen_y.size == 0:
        raise ValueError("screen_points must be non-empty")
    pts = transit_points(geometry, samples_per_slit)

    needs_fixed_tau = method in (Method.STATIONARY_PHASE, Method.TIME_SUMMED)
    if needs_fixed_tau and timing.convention is not TimingConvention.EQUAL_TOTAL_TIME:
        raise ValueError(
            f"method {method.value} requires the equal_total_time convention; "
            "the slit-time sum is defined at fixed total duration"
        )
    if method is Method.TIME_SUMMED and timesum_config is None:
        raise ValueError("time_summed patterns require a timesum_config")

    l1 = np.hypot(geometry.dist_source_slits, pts - geometry.source_y)
    l2 = np.hypot(
        geometry.dist_slits_screen, screen_y[:, None] - pts[None, :]
    )  # (n_screen, n_transit)
    path_lengths = l1[None, :] + l2

    if method is Method.INTUITIVE:
        lam = de_broglie_wavelength(species, timing.speed(geometry))
        amps = np.exp(2j * math.pi * path_lengths / lam)
        summed = amps.sum(axis=1)
    elif method is Method.STATIONARY_PHASE:
        tau = timing.duration(geometry)
        phi0 = species.mass * path_lengths**2 / (2.0 * HBAR * tau)
        amps = np.sqrt(math.pi / phi0) * np.exp(1j * (phi0 + 0.25 * math.pi))
        summed = amps.sum(axis=1)
    else:
        tau = timing.duration(geometry)
        summed = np.zeros(len(screen_y), dtype=complex)
        for i in range(len(screen_y)):
            acc = 0.0 + 0.0j
            for j in range(len(pts)):
                path = TwoLegPath(l1[j], float(l2[i, j]), tau)
                try:
                    amp, _ = evaluate_window(path, timesum_config, species)
                except NodeBudgetError as exc:
                    raise NodeBudgetError(
                        f"screen point y={screen_y[i]:.6e} m, transit y={pts[j]:.6e} m: {exc}",
                        achieved=exc.achieved,
                        error_estimate=exc.error_estimate,
                    ) from exc
                acc += amp.as_complex()
            summed[i] = acc
    return pattern_from_amplitudes(screen_y, summed, method)


def near_field_phase_diff_path_integral(
    d: float, duration: float, species: ParticleSpecies
) -> PhaseValue:
    """Equal-total-time phase difference 2 m d^2 / (hbar tau) for the in-line layout.

    Independent of the propagation distance: the two center paths have
    squared lengths differing by exactly 4 d^2.
    """
    if not (d > 0.0 and duration > 0.0):
        raise ValueError("slit separation and duration must be positive")
    return PhaseValue(2.0 * species.mass * d * d / (HBAR * duration))


def near_field_phase_diff_intuitive(
    d: float, length: float, duration: float, species: ParticleSpecies
) -> IntuitivePhaseDiff:
    """Wavefront-counting phase difference for the in-line layout.

    The speed is tied to the duration by v = 2 L / tau over the straight
    path.  The exact value is (2 pi / lambda(v)) * 2 (sqrt(L^2 + d^2) - L);
    expanding in d/L gives the equal-time value minus m d^4 / (2 hbar tau L^2),
    which is the term that makes the prediction distance-dependent.
    """
    if not (d > 0.0 and length > 0.0 and duration > 0.0):
        raise ValueError("d, length and duration must be positive")
    m = species.mass
    speed = 2.0 * length / duration
    wavenumber = m * speed / HBAR  # 2 pi / lambda_dB(v)
    # sqrt(L^2+d^2) - L written cancellation-free for d << L
    excess = d * d / (math.hypot(length, d) + length)
    exact = wavenumber * 2.0 * excess
    expanded = (
        2.0 * m * d * d / (HBAR * duration)
        - m * d**4 / (2.0 * HBAR * duration * length * length)
    )
    return IntuitivePhaseDiff(PhaseValue(exact), PhaseValue(expanded))


def discrepancy_report(
    d: float, length: float, duration: float, species: ParticleSpecies
) -> DiscrepancyReport:
    """Compare the two methods' near-field phase differences at one geometry."""
    pi_value = near_field_phase_diff_path_integral(d, duration, species)
    intuitive = near_field_phase_diff_intuitive(d, length, duration, species)
    difference = intuitive.exact - pi_value
    return DiscrepancyReport(
        pi_value=pi_value,
        intuitive_exact=intuitive.exact,
        intuitive_expanded=intuitive.expanded,
        difference=difference,
        significant=abs(difference.principal) >= _SIGNIFICANCE_THRESHOLD,
    )
