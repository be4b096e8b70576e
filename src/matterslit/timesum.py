"""Direct numerical evaluation of the slit-time integral.

The total amplitude to cross a slit is the coherent sum of two-step
propagator products over every slit-crossing time,

    I = int dt  (m / 2 pi i hbar) (t (tau - t))^{-1/2}
                exp{ i (m/2 hbar) (L1^2/t + L2^2/(tau - t)) }.

The integrand oscillates ever faster away from the stationary crossing
time and diverges integrably at t = 0 and t = tau, so plain uniform grids
are useless.  ``evaluate_window`` takes one of two routes; both mesh
their interval with phase-graded panels and share one budgeted quadrature
driver:

t-domain (partial windows)
    A window centered on the stationary time, meshed so that the analytic
    phase changes by at most ``phase_step_cap`` per panel (panel edges come
    from solving phi(t) = phi* + k*cap in closed form -- phi is a quadratic
    in t after clearing denominators), with a fixed Gauss-Legendre rule per
    panel.  Windows touching the endpoint singularities are refused.

u-domain (symmetric paths)
    The substitution chain t -> x = 2 t/tau - 1 -> x = sin(theta)
    -> u = tan(theta) maps the full integral to

        I = (m / 2 pi i hbar) e^{i phi0} int du e^{i phi0 u^2} / (1 + u^2),

    which has no endpoint singularities; finite windows map to finite
    u-intervals, and the infinite tail of the full integral is truncated at
    a point U where the remainder after two explicit integrations by parts
    (bounded by 1.19 / (phi0^2 U^5) per side) is negligible, with the two
    boundary terms added back analytically.

Both meshes are streamed: each domain yields its panel edges straight from
the closed-form ladder in blocks of at most ``_BLOCK_PANELS`` ladder steps,
and the quadrature reduces one block at a time.  Memory is therefore
bounded by the block size, whatever the node count, and the partial sums
are grouped by block.  Node placement and grouping are deterministic, so
repeated runs are bit-identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import NodeBudgetError, SingularWindowError
from .faddeeva import time_sum_prefactor
from .kinematics import HBAR, ParticleSpecies
from .propagator import (
    UNIT_PROPAGATOR_1D,
    ComplexAmplitude,
    TwoLegPath,
    stationary_phase,
    stationary_slit_time,
)

_GL5_X, _GL5_W = np.polynomial.legendre.leggauss(5)
_GL3_X, _GL3_W = np.polynomial.legendre.leggauss(3)
#: ladder steps per edge block: a 5-point integrand array of a block stays
#: near 40 KB, below glibc's 128 KiB mmap threshold, so the per-block
#: temporaries are reused heap memory rather than fresh page mappings
_BLOCK_PANELS = 1024
#: nodes per panel: GL5, plus the embedded GL3 when the error is estimated
_POINTS_PER_PANEL = {True: 8, False: 5}

#: relative tail tolerance of the truncated full u-integral
_FULL_TAIL_RTOL = 1e-6
#: paths are treated as symmetric when the legs agree to this relative level
_SYMMETRY_RTOL = 1e-9


class IntegrationDomain(str, Enum):
    T_DOMAIN = "t_domain"
    U_DOMAIN = "u_domain"


@dataclass(frozen=True)
class TimeSumConfig:
    """Quadrature window, node budget, domain and phase resolution.

    ``window`` is the total width (s) of the integration interval, centered
    on the stationary crossing time; it may not exceed the path duration.
    ``phase_step_cap`` limits the analytic phase change per quadrature panel.
    """

    window: float
    max_nodes: int = 2_000_000
    domain: IntegrationDomain = IntegrationDomain.T_DOMAIN
    phase_step_cap: float = math.pi / 4.0

    def __post_init__(self):
        if not (self.window > 0.0 and math.isfinite(self.window)):
            raise ValueError(f"window must be positive and finite, got {self.window}")
        if self.max_nodes < 16:
            raise ValueError(f"max_nodes must be at least 16, got {self.max_nodes}")
        if not 0.0 < self.phase_step_cap <= math.pi / 2.0:
            raise ValueError(
                f"phase_step_cap must lie in (0, pi/2], got {self.phase_step_cap}"
            )
        object.__setattr__(self, "domain", IntegrationDomain(self.domain))


@dataclass(frozen=True)
class QuadratureInfo:
    """Diagnostics of one window evaluation."""

    nodes: int
    error_estimate: float  # absolute, embedded GL5-vs-GL3 difference
    tail_bound: float = 0.0  # absolute truncation bound (full u-integral only)


def _panel_integrate(f_parts, blocks, with_estimate=True):
    """Composite fixed-order Gauss-Legendre over a stream of edge blocks.

    ``blocks`` yields consecutive ascending edge arrays; each block's first
    edge is the previous block's last, so together they tile one interval.
    The meshes of this module make blocks of at most ``_BLOCK_PANELS``
    ladder panels plus the few envelope edges that fall among them, so the
    temporaries are bounded by the block size whatever the node count.
    ``f_parts(pts)`` returns the real and imaginary parts of the integrand as
    separate float arrays, which keeps the hot path in real arithmetic.
    Returns the 5-point value, |GL5 - GL3| as an embedded error estimate
    (nan when ``with_estimate`` is off) and the number of panels.  The
    partial sums are grouped by block, and the blocks are fixed by the
    mesh, so the summation order is reproducible.
    """
    sums = np.zeros(4)  # re5, im5, re3, im3
    panels = 0
    for edges in blocks:
        lo = edges[:-1]
        hi = edges[1:]
        mid = 0.5 * (lo + hi)
        half = 0.5 * (hi - lo)
        re, im = f_parts(mid[:, None] + half[:, None] * _GL5_X[None, :])
        sums[0] += (re @ _GL5_W) @ half
        sums[1] += (im @ _GL5_W) @ half
        if with_estimate:
            re, im = f_parts(mid[:, None] + half[:, None] * _GL3_X[None, :])
            sums[2] += (re @ _GL3_W) @ half
            sums[3] += (im @ _GL3_W) @ half
        panels += len(half)
    total5 = complex(sums[0], sums[1])
    if not with_estimate:
        return total5, math.nan, panels
    return total5, abs(total5 - complex(sums[2], sums[3])), panels


def _envelope_edges(lo, hi, scale):
    """Slowly-spaced edges from lo to hi that resolve the non-oscillatory envelope."""
    env = [lo]
    while env[-1] < hi:
        env.append(env[-1] + 0.25 * scale(env[-1]))
    env[-1] = hi
    return np.asarray(env)


def _edge_blocks(n_steps, ladder_edges, envelope):
    """The mesh as edge blocks of at most ``_BLOCK_PANELS`` ladder steps.

    ``ladder_edges(k)`` gives the ascending phase ladder at the indices ``k``
    of 0..n_steps; ``envelope`` is a short ascending array with the same
    first and last edge.  Consecutive blocks share their boundary edge, each
    envelope edge joins the block it falls in, and repeated edges are dropped
    per block, so the panels are those of the sorted union of both ladders.
    """
    taken = 0
    for start in range(0, n_steps, _BLOCK_PANELS):
        ladder = ladder_edges(np.arange(start, min(start + _BLOCK_PANELS, n_steps) + 1))
        end = int(np.searchsorted(envelope, ladder[-1], side="right"))
        yield np.unique(np.concatenate([ladder, envelope[taken:end]]))
        taken = end


def _graded_value(panel_count, mesh, integrand_parts, cap, max_nodes, with_estimate):
    """Panel quadrature over the blocks of ``mesh(cap)`` within a node budget.

    ``panel_count`` is the number of panels the mesh needs at the requested
    phase cap.  When those panels would exceed ``max_nodes``, the cap is
    coarsened to fit and the result is flagged as over budget, so that the
    caller can raise with the best value it achieved.  Returns the value, the
    embedded error estimate, the node count and the over-budget flag.
    """
    points_per_panel = _POINTS_PER_PANEL[with_estimate]
    needed = points_per_panel * panel_count
    exceeded = needed > max_nodes
    if exceeded:
        cap = cap * needed / max_nodes
    value, err, panels = _panel_integrate(integrand_parts, mesh(cap), with_estimate)
    return value, err, points_per_panel * panels, exceeded


def _u_value(phi0, u_max, cap, max_nodes, with_estimate):
    """2 * int_0^U exp(i phi0 u^2)/(1+u^2) du with phase-graded panels."""

    def mesh(cap):
        n_steps = int(math.ceil(phi0 * u_max * u_max / cap))

        def ladder_edges(k):
            edges = np.sqrt(k * (cap / phi0))
            edges[k == n_steps] = u_max
            return edges

        envelope = _envelope_edges(0.0, u_max, lambda u: 1.0 + u)
        return _edge_blocks(n_steps, ladder_edges, envelope)

    def integrand_parts(u):
        envelope = u * u
        phase = phi0 * envelope
        envelope += 1.0
        np.reciprocal(envelope, out=envelope)
        re = np.cos(phase)
        re *= envelope
        im = np.sin(phase)
        im *= envelope
        return re, im

    panel_count = (
        int(math.ceil(phi0 * u_max * u_max / cap)) + int(4.0 * math.log1p(u_max)) + 2
    )
    val, err, nodes, exceeded = _graded_value(
        panel_count, mesh, integrand_parts, cap, max_nodes, with_estimate
    )
    return 2.0 * val, 2.0 * err, nodes, exceeded


def _u_domain_value(path, config, species, with_estimate):
    """Symmetric paths in u; a window of the full duration takes the full line.

    The full-line integral is a truncated core plus analytic tail
    corrections.  When the node budget cannot reach the truncation point that
    meets the tail tolerance, the integral is truncated earlier instead of
    coarsening the mesh: the value stays a faithfully resolved integral and
    the larger tail bound reports the loss honestly.
    """
    if not _is_symmetric(path):
        raise ValueError(
            "u-domain evaluation requires a symmetric path (equal legs); "
            "use the t-domain for asymmetric windows"
        )
    phi0 = stationary_phase(path, species).raw
    cap = config.phase_step_cap
    tail_bound = 0.0
    if config.window < path.tau * (1.0 - 1e-12):
        frac = config.window / path.tau
        u_max = frac / math.sqrt(1.0 - frac * frac)
        j_val, err, nodes, exceeded = _u_value(
            phi0, u_max, cap, config.max_nodes, with_estimate
        )
    else:
        mag_estimate = min(math.pi, math.sqrt(math.pi / phi0))
        tol_abs = _FULL_TAIL_RTOL * mag_estimate
        u_desired = max(2.0, (2.4 / (phi0 * phi0 * tol_abs)) ** 0.2)
        panels_affordable = max(2, config.max_nodes // _POINTS_PER_PANEL[with_estimate] - 8)
        u_affordable = math.sqrt(panels_affordable * cap / phi0)
        exceeded = u_affordable < u_desired
        u_max = min(u_desired, u_affordable)
        # the budget has already set u_max, so the core runs unbudgeted
        core, err, nodes, _ = _u_value(phi0, u_max, cap, 2**62, with_estimate)
        phase_edge = complex(
            math.cos(phi0 * u_max * u_max), math.sin(phi0 * u_max * u_max)
        )
        one_p = 1.0 + u_max * u_max
        tail = phase_edge * (
            1j / (2.0 * phi0 * u_max * one_p)
            + (1.0 + 3.0 * u_max * u_max) / (4.0 * phi0 * phi0 * u_max**3 * one_p * one_p)
        )
        tail_bound = 2.0 * 1.19 / (phi0 * phi0 * u_max**5)
        j_val = core + 2.0 * tail
    pref = time_sum_prefactor(species)
    carrier = complex(math.cos(phi0), math.sin(phi0))
    scale = abs(pref)
    info = QuadratureInfo(nodes, scale * err, scale * tail_bound)
    return pref * carrier * j_val, info, exceeded


def _slit_phase_roots(l1, l2, tau, phases, mass):
    """Solve (m/2 hbar)(L1^2/t + L2^2/(tau-t)) = phase for t; both roots.

    Clearing denominators gives c t^2 + (L2^2 - L1^2 - c tau) t + L1^2 tau = 0
    with c = 2 hbar phase / m; the stable quadratic formula avoids the
    cancellation between -b and the discriminant root.
    """
    c = 2.0 * HBAR * phases / mass
    b = l2 * l2 - l1 * l1 - c * tau
    disc = np.maximum(b * b - 4.0 * c * (l1 * l1 * tau), 0.0)
    q = -0.5 * (b + np.sign(b) * np.sqrt(disc))
    with np.errstate(divide="ignore", invalid="ignore"):
        r1 = q / c
        r2 = (l1 * l1 * tau) / q
    return np.minimum(r1, r2), np.maximum(r1, r2)


def _t_domain_value(path, config, species, with_estimate):
    """Window centered on t*, with analytic phase change <= cap per panel."""
    l1, l2, tau = path.l1, path.l2, path.tau
    t_star = stationary_slit_time(path)
    t_lo = t_star - 0.5 * config.window
    t_hi = t_star + 0.5 * config.window
    clearance = 1e-12 * tau
    if t_lo <= clearance or t_hi >= tau - clearance:
        raise SingularWindowError(
            f"window [{t_lo:.3e}, {t_hi:.3e}] touches the endpoint singularities "
            f"of (0, {tau:.3e}); only the u-domain full integral handles endpoints"
        )
    m = species.mass
    phi_star = (m / (2.0 * HBAR)) * (l1 + l2) ** 2 / tau

    def phase_rise(t):
        return (m / (2.0 * HBAR)) * (l1 * l1 / t + l2 * l2 / (tau - t)) - phi_star

    # each side's ladder phi* + k*cap climbs from t* to the window edge
    rises = (phase_rise(t_lo), phase_rise(t_hi))

    def mesh(cap):
        n_lo, n_hi = (int(math.ceil(rise / cap)) for rise in rises)
        n_steps = n_lo + n_hi + 1

        def ladder_edges(j):
            # j = 0..n_lo runs the lower-root ladder backwards, from t_lo
            # (k = n_lo) to t* (k = 0); j = n_lo+1..n_steps runs the
            # upper-root ladder from t* to t_hi.  t* comes twice, and its
            # block drops the repeat
            k = j - n_lo
            upper = k > 0
            k = np.where(upper, k - 1, -k)
            lower_root, upper_root = _slit_phase_roots(l1, l2, tau, phi_star + k * cap, m)
            edges = np.where(upper, upper_root, lower_root)
            edges[k == 0] = t_star
            edges[j == 0] = t_lo
            edges[j == n_steps] = t_hi
            return edges

        envelope = _envelope_edges(
            t_lo, t_hi, lambda t: max(min(t, tau - t), 1e-3 * tau)
        )
        return _edge_blocks(n_steps, ladder_edges, envelope)

    c1 = m * l1 * l1 / (2.0 * HBAR)
    c2 = m * l2 * l2 / (2.0 * HBAR)

    def integrand_parts(t):
        t_rest = tau - t
        phase = c1 / t
        phase += c2 / t_rest
        weight = t * t_rest
        np.sqrt(weight, out=weight)
        np.reciprocal(weight, out=weight)
        re = np.cos(phase)
        re *= weight
        im = np.sin(phase)
        im *= weight
        return re, im

    panel_count = int(math.ceil((rises[0] + rises[1]) / config.phase_step_cap)) + 64
    val, err, nodes, exceeded = _graded_value(
        panel_count, mesh, integrand_parts, config.phase_step_cap, config.max_nodes,
        with_estimate,
    )
    pref = time_sum_prefactor(species)
    return pref * val, QuadratureInfo(nodes, abs(pref) * err), exceeded


def _is_symmetric(path):
    return abs(path.l1 - path.l2) <= _SYMMETRY_RTOL * (path.l1 + path.l2)


def evaluate_window(
    path: TwoLegPath,
    config: TimeSumConfig,
    species: ParticleSpecies,
    with_error_estimate: bool = True,
) -> tuple[ComplexAmplitude, QuadratureInfo]:
    """Windowed slit-time integral plus quadrature diagnostics.

    The one entry point of the time sum.  The window is centered on the
    stationary crossing time.  In the t-domain the window must keep
    positive clearance from the endpoint singularities.  The u-domain route
    applies to symmetric paths (L1 = L2) only; a window equal to the full
    duration selects the truncated-tail full integral.
    ``with_error_estimate=False`` skips the embedded coarse rule (the
    estimate comes back nan), saving ~40% of the integrand evaluations in
    bulk pattern computations.  A node budget too small for the requested
    accuracy raises ``NodeBudgetError`` carrying the achieved amplitude and
    its error estimate plus tail bound.
    """
    if config.window > path.tau * (1.0 + 1e-12):
        raise ValueError(
            f"window {config.window} exceeds the path duration {path.tau}"
        )
    if config.domain is IntegrationDomain.U_DOMAIN:
        domain_value = _u_domain_value
    else:
        domain_value = _t_domain_value
    value, info, exceeded = domain_value(path, config, species, with_error_estimate)
    amplitude = ComplexAmplitude.from_complex(value, UNIT_PROPAGATOR_1D)
    if exceeded:
        raise NodeBudgetError(
            f"node budget {config.max_nodes} too small for the requested window",
            achieved=amplitude,
            error_estimate=info.error_estimate + info.tail_bound,
        )
    return amplitude, info
