"""The slit-time integral over a window of crossing times.

The amplitude to cross a slit sums the two-step propagator over every
crossing time t in (0, tau):

    I = (m / 2 pi i hbar) int dt (t (tau - t))^{-1/2} e^{i phi(t)},
    phi(t) = c1/t + c2/(tau - t),   c_k = m L_k^2 / 2 hbar.

The phase is least, phi* = (sqrt(c1) + sqrt(c2))^2 / tau, at the stationary
time t*.  Over all of (0, tau) the integral is pi e^{i phi*} w(sqrt(phi*)
e^{i pi/4}) for any legs: the Laplace transforms of the legs' factors
t^{-1/2} e^{-c/t} are sqrt(pi/s) e^{-2 sqrt(c s)}, whose product transforms
back to pi erfc.  A window centred on t* is that closed form minus the two
tails beyond its edges, each integrated along its steepest-descent path
phi(h(p)) = phi(t_e) + i p, p >= 0, by 20 Gauss-Laguerre nodes:

    e^{i phi(t_e)} int_0^inf i / (phi'(h) sqrt(h (tau - h))) e^{-p} dp

(Huybrechs & Vandewalle, SIAM J. Numer. Anal. 44 (2006) 1026).  Near t* the
path bends sharply, so a tail whose edge rises less than 2 pi above phi*
starts where the rise is 2 pi, and one 40-point Gauss-Legendre panel
bridges the gap; a window whose edges both rise less than 2 pi is one such
panel.  The rule is fixed, so reruns are bit-identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NodeBudgetError, NonFiniteResultError
from .faddeeva import timesum_closed_form
from .kinematics import HBAR, ParticleSpecies
from .propagator import UNIT_PROPAGATOR_1D, ComplexAmplitude, TwoLegPath, time_sum_prefactor
from .propagator import stationary_phase, stationary_slit_time

#: the rise above phi* below which an edge is too near t* for its tail path
_SADDLE_RISE = 2.0 * math.pi
#: rounding floor of the error estimate, per radian of each piece's phase
_ROUNDING = 8.0 * float(np.finfo(float).eps)


def _rule(points, n):
    """Nodes and weights of an n-point rule and its n/2-point partner, stacked."""
    (x1, w1), (x2, w2) = points(n), points(n // 2)
    weights = np.zeros((2, n + n // 2))
    weights[0, :n], weights[1, n:] = w1, w2
    return np.concatenate([x1, x2]), weights


_GL_X, _GL_W = _rule(np.polynomial.legendre.leggauss, 40)
_LAG_P, _LAG_W = _rule(np.polynomial.laguerre.laggauss, 20)

DOMAINS = ("t_domain", "u_domain")


@dataclass(frozen=True)
class TimeSumConfig:
    """Integration window and node budget.

    ``window`` is the total width (s) of the integration interval, centred
    on the stationary crossing time; it may not exceed the path duration.
    ``domain`` is the route an older config named: every window takes the
    one route, so it steers nothing, but callers may label windows by it.
    """

    window: float
    max_nodes: int = 2_000_000
    domain: str = "t_domain"

    def __post_init__(self):
        if not (self.window > 0.0 and math.isfinite(self.window)):
            raise ValueError(f"window must be positive and finite, got {self.window}")
        if self.max_nodes < 16:
            raise ValueError(f"max_nodes must be at least 16, got {self.max_nodes}")
        if self.domain not in DOMAINS:
            raise ValueError(f"domain must be one of {DOMAINS}, got {self.domain!r}")


@dataclass(frozen=True)
class QuadratureInfo:
    """Integrand evaluations plus w(z) calls, and the absolute error estimate.

    The estimate adds each rule's distance from its half-size partner and a
    rounding floor of 8 eps times each piece's phase times its magnitude.
    """

    nodes: int
    error_estimate: float


def _slit_phase_roots(a, b, tau, rise):
    """The roots t of phi(t) = phi* + rise, for real or complex rise.

    ``a``, ``b`` are sqrt(c1), sqrt(c2).  Phi t^2 + (c2 - c1 - Phi tau) t
    + c1 tau = 0, Phi = phi* + rise, has the discriminant s^2 = u (u + 4ab),
    u = rise tau, and each root and its distance to tau is written without a
    difference of large terms.  With the principal s the roots differ by
    s/Phi, whose argument lies in [0, pi/2): the upper root has the larger
    real part.  Returns t, t (tau - t) and d = 2 Phi t + c2 - c1 - Phi tau,
    each stacked lower, upper.
    """
    u = rise * tau
    s = np.sqrt(u * (u + 4.0 * a * b))
    big_a, big_b = 2.0 * a * (a + b) + u + s, 2.0 * b * (a + b) + u + s
    two_phi_tau = 2.0 * ((a + b) ** 2 + u)
    lower, upper = 2.0 * a * a * tau / big_a, tau * big_a / two_phi_tau
    rests = [lower * tau * big_b / two_phi_tau, upper * 2.0 * b * b * tau / big_b]
    return np.array([lower, upper]), np.array(rests), np.array([-s, s])


def _tails(a, b, tau, rises):
    """Tails [0, t_lo] and [t_hi, tau] from the edges with phase rises ``rises``.

    Each path starts at the rise itself, or at 2 pi when the edge lies
    nearer the saddle.  Returns the two tails without the e^{i phi*}
    carrier, their estimates |Q20 - Q10| and the rises they start at.
    """
    starts = np.maximum(rises, _SADDLE_RISE)
    _, rests, ds = _slit_phase_roots(a, b, tau, starts[:, None] + 1j * _LAG_P)
    # the lower tail follows the lower root, the upper tail the upper one
    q = (1j * np.sqrt(rests[[0, 1], [0, 1]]) / ds[[0, 1], [0, 1]]) @ _LAG_W.T
    # the lower path runs from the edge down to 0, against the window's sense
    q *= (np.exp(1j * starts) * np.array([-1.0, 1.0]))[:, None]
    return q[:, 0], np.abs(q[:, 0] - q[:, 1]), starts


def _panel(a, b, tau, lo, hi):
    """One Gauss-Legendre panel over [lo, hi]: value without carrier, |Q40 - Q20|.

    It runs in theta, t = tau sin^2(theta), where the measure is 2 d(theta)
    and the rise (a/x - b x)^2 / tau, x = tan(theta): the map keeps the
    endpoint singularities away from the panel.
    """
    theta_lo, theta_hi = np.arctan2(np.sqrt([lo, hi]), np.sqrt([tau - lo, tau - hi]))
    half = theta_hi - theta_lo  # half the width, times the factor 2
    x = np.tan(0.5 * (theta_lo + theta_hi) + 0.5 * (theta_hi - theta_lo) * _GL_X)
    q = half * np.exp(1j * (a / x - b * x) ** 2 / tau) @ _GL_W.T
    return q[0], abs(q[0] - q[1])


def _window_part(a, b, tau, edges, phi_star, full):
    """The window over ``edges`` in units of the prefactor times e^{i phi*}.

    ``full`` is the closed form in the same units.  Returns the value, the
    node count and the absolute error estimate.
    """
    rises = (a * (tau - edges) - b * edges) ** 2 / (edges * tau * (tau - edges))
    if rises.max() <= _SADDLE_RISE:
        pieces = [(*_panel(a, b, tau, *edges), rises.max(), _GL_X.size)]
    else:  # (value, rule estimate, rise of its phase, nodes) of each piece
        tails, errors, starts = _tails(a, b, tau, rises)
        pieces = [(full, 0.0, 0.0, 1), *zip(-tails, errors, starts, [_LAG_P.size] * 2)]
        for side in np.flatnonzero(rises < _SADDLE_RISE):
            start = _slit_phase_roots(a, b, tau, _SADDLE_RISE)[0][side]
            bridge, error = _panel(a, b, tau, *sorted((edges[side], start)))
            pieces.append((-bridge, error, _SADDLE_RISE, _GL_X.size))
    # an edge rounded by eps t moves the value by eps t / sqrt(t (tau - t))
    error = _ROUNDING * np.sum(np.sqrt(edges / (tau - edges)))
    error += sum(e + _ROUNDING * (phi_star + rise) * abs(v) for v, e, rise, _ in pieces)
    return sum(p[0] for p in pieces), sum(p[3] for p in pieces), error


def evaluate_window(
    path: TwoLegPath,
    config: TimeSumConfig,
    species: ParticleSpecies,
) -> tuple[ComplexAmplitude, QuadratureInfo]:
    """The time sum over a window centred on t*, for any window in (0, tau] and legs.

    The one entry point of the time sum; the whole duration is the closed
    form, one w(z) call.  When the fixed rule needs more nodes than
    ``max_nodes``, ``NodeBudgetError`` carries its value and estimate.
    """
    tau, t_star, half = path.tau, stationary_slit_time(path), 0.5 * config.window
    full = config.window >= tau * (1.0 - 1e-12)
    edges = np.array([t_star - half, t_star + half])
    if config.window > tau * (1.0 + 1e-12) or not (full or 0.0 < edges[0] and edges[1] < tau):
        raise ValueError(f"window {config.window} around t* does not fit in (0, {tau})")
    phi_star = stationary_phase(path, species).raw
    value = timesum_closed_form(phi_star, species).as_complex()
    nodes, error = 1, _ROUNDING * phi_star * abs(value)
    if not full:
        a, b = math.sqrt(species.mass / (2.0 * HBAR)) * np.array([path.l1, path.l2])
        unit = time_sum_prefactor(species) * complex(math.cos(phi_star), math.sin(phi_star))
        with np.errstate(all="ignore"):
            part, nodes, error = _window_part(a, b, tau, edges, phi_star, value / unit)
        value, error = complex(unit * part), abs(unit) * float(error)
    if not (math.isfinite(value.real) and math.isfinite(value.imag) and math.isfinite(error)):
        raise NonFiniteResultError(f"the time sum over {path} is not finite")
    amplitude = ComplexAmplitude.from_complex(value, UNIT_PROPAGATOR_1D)
    if nodes > config.max_nodes:
        message = f"node budget {config.max_nodes} below the {nodes} nodes of the fixed rule"
        raise NodeBudgetError(message, achieved=amplitude, error_estimate=error)
    return amplitude, QuadratureInfo(nodes, error)
