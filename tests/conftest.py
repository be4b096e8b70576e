"""Shared fixtures and independent numerical oracles.

The oracles here deliberately avoid the library's own evaluation paths:
w(z) comes from adaptive quadrature of its defining integral, the
slit-time integral from phase-graded panels on the real line, and the
propagator composition check integrates the product kernel with a tapered
Simpson rule.
"""

import cmath
import math

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad, simpson

from matterslit import (
    ELECTRON,
    HBAR,
    SpaceTimeEvent,
    TwoLegPath,
    free_propagator,
    time_sum_prefactor,
)


@pytest.fixture
def electron():
    return ELECTRON


def symmetric_path(phi0, leg=1e-6):
    """A symmetric two-leg path whose stationary phase is exactly phi0."""
    tau = 2.0 * ELECTRON.mass * leg * leg / (HBAR * phi0)
    return TwoLegPath(leg, leg, tau)


_ORACLE_X, _ORACLE_W = np.polynomial.legendre.leggauss(10)


def timesum_oracle(path, window=None, cap=math.pi / 16, rise_cut=4096.0):
    """The time sum of an electron over a centred window, or over all of (0, tau).

    With t = tau x^2/(1 + x^2) and y = (b x - a/x)/sqrt(tau), where a, b are
    sqrt(m L_k^2 / 2 hbar), the phase is phi* + y^2 and

        int dt (t (tau - t))^{-1/2} e^{i phi} = 2 e^{i phi*} int dy e^{i y^2} g(y),

        g = (dx/dy) / (1 + x^2),

    a smooth integrand without endpoint singularities.  Panels are
    phase-graded, edges at y = +-sqrt(k cap), 10 Gauss-Legendre points each.
    Beyond a rise of ``rise_cut`` the tails are two terms of integration by
    parts, good to about 5e-10 of the full integral; the carrier e^{i phi*}
    comes from mpmath.
    """
    scale = math.sqrt(ELECTRON.mass / (2.0 * HBAR))
    a, b, tau = scale * path.l1, scale * path.l2, path.tau
    root_tau = math.sqrt(tau)

    def g_and_slope(y):
        s = np.sqrt(tau * y * y + 4.0 * a * b)
        x = np.where(y >= 0, (root_tau * y + s) / (2.0 * b), 2.0 * a / (s - root_tau * y))
        g = root_tau * x / (s * (1.0 + x * x))
        return g, g * (root_tau * (1.0 - x * x) / (s * (1.0 + x * x)) - tau * y / (s * s))

    def tail(y):
        """int from y away from 0 to infinity, by parts."""
        if math.isinf(y):
            return 0.0
        g, slope = g_and_slope(np.array(y))
        big = abs(y)
        return cmath.exp(1j * y * y) * (1j * g / (2 * big) + (g - y * slope) / (4 * big**3))

    def y_of(t):
        x = math.sqrt(t / (tau - t))
        return (b * x - a / x) / root_tau

    if window is None:
        y_lo, y_hi = -math.inf, math.inf
    else:
        t_star = tau * path.l1 / (path.l1 + path.l2)
        y_lo, y_hi = y_of(t_star - 0.5 * window), y_of(t_star + 0.5 * window)
    cut = math.sqrt(rise_cut)
    lo, hi = max(y_lo, -cut), min(y_hi, cut)
    ladder = np.sqrt(cap * np.arange(1, math.ceil(max(lo * lo, hi * hi) / cap) + 1))
    edges = np.concatenate([-ladder[::-1], [0.0], ladder])
    edges = np.concatenate([[lo], edges[(edges > lo) & (edges < hi)], [hi]])
    mid, half = 0.5 * (edges[1:] + edges[:-1]), 0.5 * (edges[1:] - edges[:-1])
    y = mid[:, None] + half[:, None] * _ORACLE_X
    total = complex(np.sum((np.exp(1j * y * y) * g_and_slope(y)[0]) @ _ORACLE_W * half))
    total += tail(lo) - tail(y_lo) + tail(hi) - tail(y_hi)
    mpmath.mp.dps = 30
    phi_star = (
        ELECTRON.mass * (mpmath.mpf(path.l1) + path.l2) ** 2 / (2 * mpmath.mpf(HBAR) * tau)
    )
    return 2.0 * time_sum_prefactor(ELECTRON) * complex(mpmath.expj(phi_star)) * total


def faddeeva_quadrature_oracle(z: complex) -> complex:
    """w(z) by adaptive quadrature of (2iz/pi) int_0^inf exp(-t^2)/(z^2-t^2) dt.

    The defining integral holds for Im z >= 0.  Inside the closed first
    quadrant the path is rotated down to t = s exp(-i pi/8): the pole at +z
    then keeps an angular distance of at least pi/8 from the path, the pole
    at -z stays in the third quadrant, and the Gaussian still decays like
    exp(-0.707 s^2).  The second quadrant maps to the first through
    w(z) = conj(w(-conj(z))); the lower half-plane uses the reflection
    w(z) = 2 exp(-z^2) - w(-z).
    """
    z = complex(z)
    if z.imag < 0:
        return 2.0 * np.exp(-(z * z)) - faddeeva_quadrature_oracle(-z)
    if z.real < 0:
        return np.conj(_faddeeva_quad_first_quadrant(complex(-z.real, z.imag)))
    return _faddeeva_quad_first_quadrant(z)


def _faddeeva_quad_first_quadrant(z: complex) -> complex:
    rot = complex(np.cos(np.pi / 8), -np.sin(np.pi / 8))
    z2 = z * z

    def f(s):
        t = s * rot
        return rot * np.exp(-t * t) / (z2 - t * t)

    pts = [abs(z)] if abs(z) < 40.0 else None
    re = quad(lambda s: f(s).real, 0.0, 40.0, limit=500, points=pts,
              epsabs=1e-13, epsrel=1e-12)[0]
    im = quad(lambda s: f(s).imag, 0.0, 40.0, limit=500, points=pts,
              epsabs=1e-13, epsrel=1e-12)[0]
    return (2j * z / np.pi) * complex(re, im)


def faddeeva_oracle_grid():
    """The 100-point comparison grid: |z| log-spaced in [0.1, 50], arg in [-pi/2, 0]."""
    radii = np.logspace(np.log10(0.1), np.log10(50.0), 10)
    angles = np.linspace(-np.pi / 2, 0.0, 10)
    return [r * np.exp(1j * th) for r in radii for th in angles]


def compose_free_propagators(a, b, species, zones=30, n_points=240_001):
    """Position integral of K(b; mid) K(mid; a) over the intermediate plane.

    The product kernel has a quadratic phase around the classical midpoint;
    the window spans ``zones`` half-period Fresnel zones on each side, plus
    an equally wide cos^2 taper that suppresses the truncated-tail error of
    the sharp cutoff by two extra orders.
    """
    t_mid = 0.5 * (a.time + b.time)
    t1 = t_mid - a.time
    t2 = b.time - t_mid
    curvature = (species.mass / (2.0 * 1.054571817e-34)) * (1.0 / t1 + 1.0 / t2)
    x_star = a.position + (b.position - a.position) * t1 / (t1 + t2)
    u_inner = np.sqrt(zones * np.pi / curvature)
    u = np.linspace(-2.0 * u_inner, 2.0 * u_inner, n_points)
    x = x_star + u
    values = np.empty(n_points, dtype=complex)
    for i, xi in enumerate(x):
        mid = SpaceTimeEvent(xi, t_mid)
        values[i] = (
            free_propagator(a, mid, species).as_complex()
            * free_propagator(mid, b, species).as_complex()
        )
    taper = np.ones(n_points)
    outer = np.abs(u) > u_inner
    taper[outer] = np.cos(np.pi * (np.abs(u[outer]) - u_inner) / (2.0 * u_inner)) ** 2
    return simpson(values * taper, x=u)
