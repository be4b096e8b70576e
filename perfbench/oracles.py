"""Reference values computed apart from matterslit, used to check its outputs.

Nothing here imports the program.  Constants are CODATA 2018, the values the
program documents.  The windowed slit-time integral uses a uniform mesh with
a 10-point Gauss-Legendre rule per panel, sized so that the phase turns by at
most pi/8 across any panel; the program meshes by inverting the phase instead
and uses 5 points per panel at up to pi/4.  Closed forms go through mpmath at
30 significant digits.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

HBAR = 1.054571817e-34
PLANCK_H = 6.62607015e-34
ELECTRON_MASS = 9.1093837015e-31

_GL_X, _GL_W = np.polynomial.legendre.leggauss(10)
_PANEL_PHASE = math.pi / 8.0
# Every oracle array stays under glibc's 128 KiB mmap threshold.  Freeing a
# larger one raises that threshold for the rest of the process and changes
# whether the program's own arrays page-fault, and with it the program's speed.
_CHUNK_PANELS = 512


def path_lengths(geometry: dict, y: float) -> list[tuple[float, float]]:
    """(L1, L2) through each slit center, slit 1 first."""
    d1, d2 = geometry["dist_source_slits_m"], geometry["dist_slits_screen_m"]
    src = geometry["source_y_m"]
    legs = []
    for slit in (geometry["slit1_y_m"], geometry["slit2_y_m"]):
        legs.append(
            (math.sqrt(d1 * d1 + (slit - src) ** 2), math.sqrt(d2 * d2 + (y - slit) ** 2))
        )
    return legs


def _normalized(values: list[float]) -> list[float]:
    peak = max(values)
    return [v / peak for v in values]


def intuitive_pattern(geometry: dict, tau: float, ys) -> list[float]:
    """Wavefront counting at the wavelength of the straight-path speed."""
    speed = (geometry["dist_source_slits_m"] + geometry["dist_slits_screen_m"]) / tau
    wavelength = PLANCK_H / (ELECTRON_MASS * speed)
    probs = []
    for y in ys:
        amp = sum(
            cmath.exp(2j * math.pi * ((l1 + l2) / wavelength))
            for l1, l2 in path_lengths(geometry, y)
        )
        probs.append(abs(amp) ** 2)
    return _normalized(probs)


def stationary_pattern(geometry: dict, tau: float, ys) -> list[float]:
    """Stationary-phase weights sqrt(pi/phi0) exp(i (phi0 + pi/4))."""
    probs = []
    for y in ys:
        amp = 0j
        for l1, l2 in path_lengths(geometry, y):
            phi0 = ELECTRON_MASS * (l1 + l2) ** 2 / (2.0 * HBAR * tau)
            amp += math.sqrt(math.pi / phi0) * cmath.exp(1j * (phi0 + 0.25 * math.pi))
        probs.append(abs(amp) ** 2)
    return _normalized(probs)


def window_integral(l1: float, l2: float, tau: float, window: float) -> complex:
    """int dt (t (tau - t))^(-1/2) exp(i m (l1^2/t + l2^2/(tau - t)) / 2 hbar).

    Over a window of total width ``window`` centered on the stationary time
    tau l1 / (l1 + l2), without the m / (2 pi i hbar) prefactor.
    """
    a = ELECTRON_MASS * l1 * l1 / (2.0 * HBAR)
    b = ELECTRON_MASS * l2 * l2 / (2.0 * HBAR)
    t_star = tau * l1 / (l1 + l2)
    lo, hi = t_star - 0.5 * window, t_star + 0.5 * window

    def slope(t):
        return -a / (t * t) + b / ((tau - t) * (tau - t))

    # the phase is convex, so its steepest slope sits at a window edge
    steepest = max(abs(slope(lo)), abs(slope(hi)))
    n_panels = int(math.ceil(window * steepest / _PANEL_PHASE)) + 16
    width = window / n_panels
    total = 0j
    for start in range(0, n_panels, _CHUNK_PANELS):
        idx = np.arange(start, min(start + _CHUNK_PANELS, n_panels))
        mid = lo + (idx + 0.5) * width
        t = mid[:, None] + (0.5 * width) * _GL_X[None, :]
        phase = a / t + b / (tau - t)
        f = np.exp(1j * phase) / np.sqrt(t * (tau - t))
        total += complex(np.sum(f @ _GL_W)) * (0.5 * width)
    return total


def prefactor() -> complex:
    return ELECTRON_MASS / (2j * math.pi * HBAR)


def _mp():
    import mpmath

    mpmath.mp.dps = 30
    return mpmath


def full_timesum(phi0) -> complex:
    """(m / 2 pi i hbar) pi erfc(-i sqrt(i phi0)): the slit-time integral over (0, tau).

    ``phi0`` may be a float or an mpmath number.
    """
    mp = _mp()
    phi0 = mp.mpf(phi0)
    pref = mp.mpf(ELECTRON_MASS) / (2j * mp.pi * mp.mpf(HBAR))
    value = pref * mp.pi * mp.erfc(-1j * mp.sqrt(1j * phi0))
    return complex(value)


def symmetric_phi0(leg: float, tau: float):
    """m (2 L)^2 / (2 hbar tau) in mpmath precision."""
    mp = _mp()
    return mp.mpf(ELECTRON_MASS) * (2 * mp.mpf(leg)) ** 2 / (2 * mp.mpf(HBAR) * mp.mpf(tau))


def asymptotic_timesum(phi0: float, n_terms: int) -> complex:
    """Leading stationary-phase amplitude times sum_k (2k-1)!! / (2 i phi0)^k."""
    bracket = 0j
    for k in range(n_terms):
        double_factorial = math.prod(range(1, 2 * k, 2))
        bracket += double_factorial / (2j * phi0) ** k
    lead = prefactor() * math.sqrt(math.pi / phi0) * cmath.exp(1j * (phi0 + 0.25 * math.pi))
    return lead * bracket


def pi_phase(d: float, tau: float) -> float:
    """Equal-total-time phase difference 2 m d^2 / (hbar tau)."""
    return 2.0 * ELECTRON_MASS * d * d / (HBAR * tau)


def intuitive_phase_exact(d: float, length: float, tau: float) -> float:
    """(m v / hbar) 2 (sqrt(L^2 + d^2) - L) with v = 2 L / tau, in mpmath."""
    mp = _mp()
    d, length, tau = mp.mpf(d), mp.mpf(length), mp.mpf(tau)
    wavenumber = mp.mpf(ELECTRON_MASS) * (2 * length / tau) / mp.mpf(HBAR)
    return float(wavenumber * 2 * (mp.sqrt(length * length + d * d) - length))


def intuitive_phase_expanded(d: float, length: float, tau: float) -> float:
    """The d/L expansion 2 m d^2/(hbar tau) - m d^4 / (2 hbar tau L^2)."""
    return pi_phase(d, tau) - ELECTRON_MASS * d**4 / (2.0 * HBAR * tau * length * length)
