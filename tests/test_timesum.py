import cmath
import math
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from matterslit import (
    ELECTRON,
    HBAR,
    NodeBudgetError,
    TimeSumConfig,
    TwoLegPath,
    evaluate_window,
    stationary_phase,
    stationary_slit_time,
    time_sum_prefactor,
    timesum_closed_form,
    two_step_amplitude,
)
from matterslit.cli import fig4_preset, run_converge
from conftest import symmetric_path, timesum_oracle


def amplitude(path, window, max_nodes=2_000_000):
    return evaluate_window(path, TimeSumConfig(window=window, max_nodes=max_nodes), ELECTRON)[0]


def full_integral(phi0):
    """The full slit-time integral: a window of the whole duration."""
    path = symmetric_path(phi0)
    return amplitude(path, path.tau)


def path_with(phi0, ratio, leg=1e-6):
    """A path with legs L and ratio * L whose stationary phase is phi0."""
    return TwoLegPath(leg, ratio * leg, ELECTRON.mass * (leg + ratio * leg) ** 2 / (2 * HBAR * phi0))


def window_with_edge_rise(path, rise):
    """The centred window whose larger edge rise above phi* is ``rise``.

    With x = tan(theta), t = tau sin^2(theta), the rise is (a/x - b x)^2 / tau,
    so each side's edge solves a quadratic in x.
    """
    scale = math.sqrt(ELECTRON.mass / (2 * HBAR))
    a, b, tau = scale * path.l1, scale * path.l2, path.tau
    s, root = math.sqrt(rise * tau), math.sqrt(rise * tau + 4 * a * b)
    x_hi, x_lo = (s + root) / (2 * b), 2 * a / (s + root)
    t_star = stationary_slit_time(path)
    return 2 * min(t_star - tau * x_lo**2 / (1 + x_lo**2), tau * x_hi**2 / (1 + x_hi**2) - t_star)


def converge_config(path, windows):
    """A ``converge`` config for one path, windows and defaults as in fig4."""
    cfg = fig4_preset()
    cfg["path"] = {"leg1_m": path.l1, "leg2_m": path.l2, "duration_s": path.tau}
    cfg["windows_s"] = windows
    return cfg


def converge_series(path, windows):
    rows = run_converge(converge_config(path, windows))["results"]["series"]
    return [complex(r["re"], r["im"]) for r in rows]


class TestConfigValidation:
    def test_window_positive(self):
        with pytest.raises(ValueError):
            TimeSumConfig(window=0.0)

    def test_node_floor(self):
        with pytest.raises(ValueError):
            TimeSumConfig(window=1e-13, max_nodes=8)

    def test_phase_cap_range(self):
        # the cap steers nothing now, but configs that give one are still checked
        path = symmetric_path(400.0)
        for cap in (0.0, -0.1, 2.0):
            cfg = converge_config(path, [0.4 * path.tau])
            cfg["phase_step_cap_rad"] = cap
            with pytest.raises(ValueError, match="phase_step_cap_rad"):
                run_converge(cfg)

    def test_domain_coercion(self):
        # the domain is a label of older configs, kept as given and checked
        assert TimeSumConfig(window=1e-13, domain="u_domain").domain == "u_domain"
        with pytest.raises(ValueError):
            TimeSumConfig(window=1e-13, domain="v_domain")

    def test_window_exceeding_duration(self):
        path = symmetric_path(100.0)
        with pytest.raises(ValueError):
            evaluate_window(path, TimeSumConfig(window=1.5 * path.tau), ELECTRON)
        # centred on t* = tau/6, a window of 0.9 tau reaches below t = 0
        path = path_with(100.0, 5.0)
        with pytest.raises(ValueError):
            evaluate_window(path, TimeSumConfig(window=0.9 * path.tau), ELECTRON)


class TestFullUDomain:
    """The full window: the closed form, checked against the panel oracle."""

    @pytest.mark.parametrize("phi0", [50.0, 200.0, 1000.0, 5000.0])
    def test_against_closed_form(self, phi0):
        # the closed form holds for unequal legs too
        for ratio in (1.0, 0.3, 4.0):
            path = path_with(phi0, ratio)
            summed, info = evaluate_window(path, TimeSumConfig(window=path.tau), ELECTRON)
            closed = timesum_closed_form(stationary_phase(path, ELECTRON).raw, ELECTRON)
            assert (summed, info.nodes) == (closed, 1)
            oracle = timesum_oracle(path)
            assert abs(summed.as_complex() - oracle) / abs(oracle) < 1e-8

    def test_windowed_value_against_adaptive_quadrature(self):
        # independent check at modest phi0: brute-force adaptive quadrature
        # of the windowed integrand in u = tan(arcsin(2 t/tau - 1)), prefactor
        # and carrier attached after
        phi0 = 12.5
        path = symmetric_path(phi0)
        u_edge = 2.0
        fraction = u_edge / math.sqrt(1 + u_edge * u_edge)
        ours = amplitude(path, fraction * path.tau).as_complex()
        re = quad(lambda u: math.cos(phi0 * u * u) / (1 + u * u), 0, u_edge,
                  limit=400, epsabs=1e-13)[0]
        im = quad(lambda u: math.sin(phi0 * u * u) / (1 + u * u), 0, u_edge,
                  limit=400, epsabs=1e-13)[0]
        brute = 2.0 * time_sum_prefactor(ELECTRON) * cmath.exp(1j * phi0) * complex(re, im)
        assert abs(ours - brute) / abs(brute) < 1e-10

    def test_gaussian_fresnel_limit(self):
        # phi0 -> inf: integral -> sqrt(pi/phi0) exp(i pi/4), on top of the
        # prefactor and carrier
        phi0 = 1e5
        ours = full_integral(phi0).as_complex()
        pref = time_sum_prefactor(ELECTRON)
        limit = pref * cmath.exp(1j * phi0) * math.sqrt(math.pi / phi0) * cmath.exp(1j * math.pi / 4)
        assert abs(ours - limit) / abs(limit) < 1.0 / phi0**0.5

    def test_domain_validation(self):
        # a non-positive duration (phi0 <= 0) and a budget under 16 nodes
        # are refused before any quadrature runs
        with pytest.raises(ValueError):
            TwoLegPath(1e-6, 1e-6, -1e-12)
        with pytest.raises(ValueError):
            TimeSumConfig(window=symmetric_path(100.0).tau, max_nodes=4)

    def test_budget_error_carries_achieved_estimate(self):
        # a budget below the fixed rule still gets the rule's value, within
        # its own carried estimate of the true value
        path = path_with(1.0e4, 0.7)
        window = 0.3 * path.tau
        with pytest.raises(NodeBudgetError) as excinfo:
            amplitude(path, window, max_nodes=16)
        err = excinfo.value
        assert err.achieved is not None
        assert err.error_estimate > 0.0
        oracle = timesum_oracle(path, window)
        assert abs(err.achieved.as_complex() - oracle) <= err.error_estimate


class TestWindowedEvaluation:
    @pytest.mark.parametrize("phi0", [50.0, 5000.0])
    @pytest.mark.parametrize("fraction", [0.3, 0.8])
    def test_t_and_u_domains_agree(self, phi0, fraction):
        # the domain label no longer steers the route: both give the same bits
        path = symmetric_path(phi0)
        values = [
            evaluate_window(path, TimeSumConfig(window=fraction * path.tau, domain=d), ELECTRON)
            for d in ("t_domain", "u_domain")
        ]
        assert values[0] == values[1]

    def test_windowed_value_against_brute_quadrature(self):
        # moderate-oscillation case checked against scipy adaptive quadrature
        # of the two-step amplitude itself
        path = symmetric_path(40.0)
        window = 0.5 * path.tau
        ours = amplitude(path, window).as_complex()

        t_star = stationary_slit_time(path)
        lo, hi = t_star - window / 2, t_star + window / 2

        def f(t):
            return two_step_amplitude(path, t, ELECTRON).as_complex()

        re = quad(lambda t: f(t).real, lo, hi, limit=2000, epsrel=1e-12)[0]
        im = quad(lambda t: f(t).imag, lo, hi, limit=2000, epsrel=1e-12)[0]
        brute = complex(re, im)
        assert abs(ours - brute) / abs(brute) < 1e-8

    def test_vanishing_window_matches_stationary_integrand(self):
        path = symmetric_path(500.0)
        amp = amplitude(path, 1e-7 * path.tau)
        at_star = two_step_amplitude(path, stationary_slit_time(path), ELECTRON)
        assert amp.argument() == pytest.approx(at_star.argument(), abs=1e-6)

    def test_asymmetric_t_domain_window(self):
        # asymmetric path against brute quadrature
        path = TwoLegPath(0.8e-6, 1.3e-6, 1.1e-12)
        window = 0.25 * path.tau
        ours = amplitude(path, window).as_complex()
        t_star = stationary_slit_time(path)

        def f(t):
            return two_step_amplitude(path, t, ELECTRON).as_complex()

        re = quad(lambda t: f(t).real, t_star - window / 2, t_star + window / 2,
                  limit=4000, epsrel=1e-12)[0]
        im = quad(lambda t: f(t).imag, t_star - window / 2, t_star + window / 2,
                  limit=4000, epsrel=1e-12)[0]
        brute = complex(re, im)
        assert abs(ours - brute) / abs(brute) < 1e-7

    def test_doubling_budget_within_reported_estimate(self):
        path = symmetric_path(300.0)
        amp1, info1 = evaluate_window(
            path, TimeSumConfig(window=0.6 * path.tau, max_nodes=1_000_000), ELECTRON
        )
        amp2, _ = evaluate_window(
            path, TimeSumConfig(window=0.6 * path.tau, max_nodes=2_000_000), ELECTRON
        )
        change = abs(amp1.as_complex() - amp2.as_complex())
        assert change <= max(info1.error_estimate, 1e-300)

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(
        log_ratio=st.floats(math.log(0.2), math.log(5.0)),
        log_phi0=st.floats(math.log(10.0), math.log(1e4)),
        log_rise=st.floats(math.log(0.1), math.log(1e3)),
    )
    def test_estimate_bounds_the_oracle_distance(self, log_ratio, log_phi0, log_rise):
        # edge rises from 0.1 to 1e3 rad take the single panel, the bridged
        # tails and the plain tails; legs from 1:5 to 5:1
        path = path_with(math.exp(log_phi0), math.exp(log_ratio))
        window = window_with_edge_rise(path, math.exp(log_rise))
        amp, info = evaluate_window(path, TimeSumConfig(window=window), ELECTRON)
        oracle = timesum_oracle(path, window)
        assert abs(amp.as_complex() - oracle) <= info.error_estimate
        assert info.error_estimate <= 1e-8 * abs(oracle)


class TestStreamedMesh:
    """No time-sum array grows with the phase: the rule is fixed."""

    def test_full_fig4_window_memory_is_bounded(self):
        # the panel mesh held ~119 MB of temporaries for this window; the
        # closed form holds none
        cfg = fig4_preset()
        p = cfg["path"]
        path = TwoLegPath(p["leg1_m"], p["leg2_m"], p["duration_s"])
        ts = TimeSumConfig(window=cfg["windows_s"][-1], max_nodes=cfg["max_nodes"])
        tracemalloc.start()
        try:
            _, info = evaluate_window(path, ts, ELECTRON)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert info.nodes == 1
        assert peak < 8_000_000

    def test_node_counts_follow_the_fixed_rule(self):
        # one w(z) call for the full window; 60 for one Gauss-Legendre 40+20
        # panel; one w(z) call and 30 Gauss-Laguerre 20+10 nodes per tail,
        # plus a panel per bridged tail
        node_counts = run_converge(fig4_preset())["provenance"]["node_counts"]
        assert node_counts == [61] * 15 + [1]
        path = path_with(100.0, 0.3)
        counts = {
            rise: evaluate_window(
                path, TimeSumConfig(window=window_with_edge_rise(path, rise)), ELECTRON
            )[1].nodes
            for rise in (1.0, 10.0, 100.0)
        }
        assert counts == {1.0: 60, 10.0: 121, 100.0: 61}
        with pytest.raises(NodeBudgetError):
            amplitude(path, window_with_edge_rise(path, 1.0), max_nodes=59)


class TestConvergenceStudy:
    """The window loop of ``converge`` over ``evaluate_window``."""

    def test_single_window_matches_direct_call(self):
        path = symmetric_path(400.0)
        direct = amplitude(path, 0.4 * path.tau, 30_000_000)
        (series,) = converge_series(path, [0.4 * path.tau])
        assert series == direct.as_complex()

    def test_requires_increasing_windows(self):
        path = symmetric_path(400.0)
        with pytest.raises(ValueError, match="windows_s"):
            run_converge(converge_config(path, [0.4 * path.tau, 0.2 * path.tau]))
        with pytest.raises(ValueError, match="windows_s"):
            run_converge(converge_config(path, []))

    def test_refinement_approaches_closed_form(self):
        # beyond the first Fresnel zone the deviation from the closed form
        # decreases with the window
        phi0 = 2000.0
        path = symmetric_path(phi0)
        # first zone: phase change of pi at the window edge -> u ~ sqrt(pi/phi0)
        u_zone = math.sqrt(math.pi / phi0)
        w_zone = path.tau * u_zone / math.sqrt(1 + u_zone * u_zone)
        windows = [min(w * w_zone, 0.95 * path.tau) for w in (2.0, 4.0, 8.0, 16.0, 32.0)]
        closed = timesum_closed_form(phi0, ELECTRON).as_complex()
        deviations = [abs(a - closed) for a in converge_series(path, windows)]
        assert all(b < a for a, b in zip(deviations, deviations[1:]))

    def test_order_independence_of_results(self):
        # evaluating windows separately gives the same amplitudes as the study
        path = symmetric_path(600.0)
        windows = [0.2 * path.tau, 0.5 * path.tau, 0.8 * path.tau]
        series = converge_series(path, windows)
        for w, amp in zip(reversed(windows), reversed(series)):
            alone = amplitude(path, w, 30_000_000)
            assert alone.as_complex() == amp

    def test_series_invariants(self):
        # windows must be a strictly increasing list of finite numbers
        path = symmetric_path(400.0)
        for windows in ([2e-13, 2e-13], [2e-13, 1e-13], [None], 1e-13):
            with pytest.raises(ValueError, match="windows_s"):
                run_converge(converge_config(path, windows))
