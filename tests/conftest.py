"""Shared fixtures and independent numerical oracles.

The oracles here deliberately avoid the library's own evaluation paths:
w(z) comes from adaptive quadrature of its defining integral, and the
propagator composition check integrates the product kernel with a tapered
Simpson rule.
"""

import numpy as np
import pytest
from scipy.integrate import quad, simpson

from matterslit import ELECTRON, HBAR, TwoLegPath, free_propagator, SpaceTimeEvent


@pytest.fixture
def electron():
    return ELECTRON


def symmetric_path(phi0, leg=1e-6):
    """A symmetric two-leg path whose stationary phase is exactly phi0."""
    tau = 2.0 * ELECTRON.mass * leg * leg / (HBAR * phi0)
    return TwoLegPath(leg, leg, tau)


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
