import cmath
import math
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad

from matterslit import (
    ELECTRON,
    IntegrationDomain,
    NodeBudgetError,
    SingularWindowError,
    TimeSumConfig,
    TwoLegPath,
    evaluate_window,
    stationary_slit_time,
    time_sum_prefactor,
    timesum_closed_form,
    two_step_amplitude,
)
from matterslit.cli import fig4_preset, run_converge
from matterslit.timesum import _panel_integrate
from conftest import symmetric_path


def amplitude(path, window, domain, max_nodes=2_000_000):
    cfg = TimeSumConfig(window=window, domain=domain, max_nodes=max_nodes)
    return evaluate_window(path, cfg, ELECTRON)[0]


def full_integral(phi0, max_nodes):
    """The full slit-time integral: a u-domain window of the whole duration."""
    path = symmetric_path(phi0)
    return amplitude(path, path.tau, "u_domain", max_nodes)


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
        for cap in (0.0, -0.1, 2.0):
            with pytest.raises(ValueError):
                TimeSumConfig(window=1e-13, phase_step_cap=cap)

    def test_domain_coercion(self):
        cfg = TimeSumConfig(window=1e-13, domain="u_domain")
        assert cfg.domain is IntegrationDomain.U_DOMAIN

    def test_window_exceeding_duration(self):
        path = symmetric_path(100.0)
        cfg = TimeSumConfig(window=1.5 * path.tau, domain="u_domain")
        with pytest.raises(ValueError):
            evaluate_window(path, cfg, ELECTRON)


class TestFullUDomain:
    @pytest.mark.parametrize("phi0", [50.0, 200.0, 1000.0, 5000.0])
    def test_against_closed_form(self, phi0):
        summed = full_integral(phi0, 10_000_000).as_complex()
        closed = timesum_closed_form(phi0, ELECTRON).as_complex()
        assert abs(summed - closed) / abs(closed) < 1e-4

    def test_windowed_value_against_adaptive_quadrature(self):
        # independent check at modest phi0: brute-force adaptive quadrature
        # of the windowed integrand, prefactor and carrier attached after
        phi0 = 12.5
        path = symmetric_path(phi0)
        u_edge = 2.0
        fraction = u_edge / math.sqrt(1 + u_edge * u_edge)
        cfg = TimeSumConfig(window=fraction * path.tau, domain="u_domain")
        ours = evaluate_window(path, cfg, ELECTRON)[0].as_complex()
        re = quad(lambda u: math.cos(phi0 * u * u) / (1 + u * u), 0, u_edge,
                  limit=400, epsabs=1e-13)[0]
        im = quad(lambda u: math.sin(phi0 * u * u) / (1 + u * u), 0, u_edge,
                  limit=400, epsabs=1e-13)[0]
        brute = 2.0 * time_sum_prefactor(ELECTRON) * cmath.exp(1j * phi0) * complex(re, im)
        # the fixed-order panel rule at a pi/4 phase cap floors near 1e-8
        assert abs(ours - brute) / abs(brute) < 5e-8

    def test_gaussian_fresnel_limit(self):
        # phi0 -> inf: integral -> sqrt(pi/phi0) exp(i pi/4), on top of the
        # prefactor and carrier
        phi0 = 1e5
        ours = full_integral(phi0, 30_000_000).as_complex()
        pref = time_sum_prefactor(ELECTRON)
        limit = pref * cmath.exp(1j * phi0) * math.sqrt(math.pi / phi0) * cmath.exp(1j * math.pi / 4)
        assert abs(ours - limit) / abs(limit) < 1.0 / phi0**0.5

    def test_domain_validation(self):
        # a non-positive duration (phi0 <= 0) and a budget under 16 nodes
        # are refused before any quadrature runs
        with pytest.raises(ValueError):
            TwoLegPath(1e-6, 1e-6, -1e-12)
        with pytest.raises(ValueError):
            TimeSumConfig(window=symmetric_path(100.0).tau, domain="u_domain", max_nodes=4)

    def test_budget_error_carries_achieved_estimate(self):
        # the early-truncated best effort must stay within its own carried
        # error bound of the true value
        with pytest.raises(NodeBudgetError) as excinfo:
            full_integral(5.0e4, 1000)
        err = excinfo.value
        assert err.achieved is not None
        assert err.error_estimate > 0.0
        closed = timesum_closed_form(5.0e4, ELECTRON).as_complex()
        assert abs(err.achieved.as_complex() - closed) <= 1.05 * err.error_estimate


    @pytest.mark.parametrize("domain", ["u_domain", "t_domain"])
    def test_skipped_estimate_stays_nan_over_budget(self, domain):
        # without the embedded rule there is no estimate to report, in
        # either domain; a zero would claim an exact result
        path = symmetric_path(400.0)
        cfg = TimeSumConfig(window=0.3 * path.tau, domain=domain, max_nodes=16)
        with pytest.raises(NodeBudgetError) as excinfo:
            evaluate_window(path, cfg, ELECTRON, with_error_estimate=False)
        assert math.isnan(excinfo.value.error_estimate)


class TestWindowedEvaluation:
    @pytest.mark.parametrize("phi0", [50.0, 5000.0])
    @pytest.mark.parametrize("fraction", [0.3, 0.8])
    def test_t_and_u_domains_agree(self, phi0, fraction):
        path = symmetric_path(phi0)
        t_cfg = TimeSumConfig(window=fraction * path.tau, domain="t_domain",
                              max_nodes=20_000_000)
        u_cfg = TimeSumConfig(window=fraction * path.tau, domain="u_domain",
                              max_nodes=20_000_000)
        t_val = evaluate_window(path, t_cfg, ELECTRON)[0].as_complex()
        u_val = evaluate_window(path, u_cfg, ELECTRON)[0].as_complex()
        assert abs(t_val - u_val) / abs(u_val) < 1e-4

    def test_windowed_value_against_brute_quadrature(self):
        # moderate-oscillation case checked against scipy adaptive quadrature
        # of the two-step amplitude itself
        path = symmetric_path(40.0)
        window = 0.5 * path.tau
        cfg = TimeSumConfig(window=window, domain="t_domain")
        ours = evaluate_window(path, cfg, ELECTRON)[0].as_complex()

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
        cfg = TimeSumConfig(window=1e-7 * path.tau, domain="t_domain")
        amp = evaluate_window(path, cfg, ELECTRON)[0]
        at_star = two_step_amplitude(path, stationary_slit_time(path), ELECTRON)
        assert amp.argument() == pytest.approx(at_star.argument(), abs=1e-6)

    def test_full_window_requires_u_domain(self):
        path = symmetric_path(200.0)
        cfg = TimeSumConfig(window=path.tau, domain="t_domain")
        with pytest.raises(SingularWindowError):
            evaluate_window(path, cfg, ELECTRON)
        u_cfg = TimeSumConfig(window=path.tau, domain="u_domain")
        closed = timesum_closed_form(200.0, ELECTRON).as_complex()
        val = evaluate_window(path, u_cfg, ELECTRON)[0].as_complex()
        assert abs(val - closed) / abs(closed) < 1e-4

    def test_u_domain_rejects_asymmetric_paths(self):
        path = TwoLegPath(1e-6, 1.5e-6, 1e-12)
        cfg = TimeSumConfig(window=0.5 * path.tau, domain="u_domain")
        with pytest.raises(ValueError):
            evaluate_window(path, cfg, ELECTRON)

    def test_asymmetric_t_domain_window(self):
        # asymmetric path against brute quadrature
        path = TwoLegPath(0.8e-6, 1.3e-6, 1.1e-12)
        window = 0.25 * path.tau
        cfg = TimeSumConfig(window=window, domain="t_domain")
        ours = evaluate_window(path, cfg, ELECTRON)[0].as_complex()
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
        cfg1 = TimeSumConfig(window=0.6 * path.tau, domain="t_domain",
                             max_nodes=1_000_000)
        cfg2 = TimeSumConfig(window=0.6 * path.tau, domain="t_domain",
                             max_nodes=2_000_000)
        amp1, info1 = evaluate_window(path, cfg1, ELECTRON)
        amp2, _ = evaluate_window(path, cfg2, ELECTRON)
        change = abs(amp1.as_complex() - amp2.as_complex())
        assert change <= max(info1.error_estimate, 1e-300)

    def test_quadrature_linearity(self):
        # scaling the integrand by a complex constant scales the result exactly
        edges = np.linspace(0.0, 2.0, 17)
        c = complex(1.3, -0.7)

        def f(u):
            return np.cos(3.0 * u), np.sin(3.0 * u)

        def cf(u):
            re, im = f(u)
            scaled = c * (re + 1j * im)
            return scaled.real, scaled.imag

        base, _, _ = _panel_integrate(f, [edges])
        scaled, _, _ = _panel_integrate(cf, [edges])
        assert scaled == pytest.approx(c * base, rel=1e-14)


class TestStreamedMesh:
    """The panel quadrature streams its mesh in blocks of bounded size."""

    # node counts of the whole-array mesh the blocks replaced
    FIG4_NODE_COUNTS = [
        1192, 7456, 19160, 43456, 78136, 123920, 198272, 294136,
        442816, 636968, 991328, 1507592, 2295272, 3823640, 7742944, 11895712,
    ]

    def test_full_fig4_window_memory_is_bounded(self):
        # the whole-array mesh held ~119 MB of temporaries for this window;
        # the blocks keep the traced peak independent of the node count
        cfg = fig4_preset()
        p = cfg["path"]
        path = TwoLegPath(p["leg1_m"], p["leg2_m"], p["duration_s"])
        ts = TimeSumConfig(window=cfg["windows_s"][-1], domain="u_domain",
                           max_nodes=cfg["max_nodes"])
        tracemalloc.start()
        try:
            _, info = evaluate_window(path, ts, ELECTRON)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert info.nodes == self.FIG4_NODE_COUNTS[-1]
        assert peak < 8_000_000

    def test_node_counts_match_whole_array_mesh(self):
        node_counts = run_converge(fig4_preset())["provenance"]["node_counts"]
        assert node_counts == self.FIG4_NODE_COUNTS
        # the fig6 pattern probe: a nearly symmetric t-domain window
        path = TwoLegPath(3.37e-6, 3.3700000000010286e-06, 6.74e-13)
        _, info = evaluate_window(path, TimeSumConfig(window=6.88e-14), ELECTRON)
        assert info.nodes == 62448


class TestConvergenceStudy:
    """The window loop of ``converge`` over ``evaluate_window``."""

    def test_single_window_matches_direct_call(self):
        path = symmetric_path(400.0)
        direct = amplitude(path, 0.4 * path.tau, "u_domain", 30_000_000)
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
            alone = amplitude(path, w, "u_domain", 30_000_000)
            assert alone.as_complex() == amp

    def test_series_invariants(self):
        # windows must be a strictly increasing list of finite numbers
        path = symmetric_path(400.0)
        for windows in ([2e-13, 2e-13], [2e-13, 1e-13], [None], 1e-13):
            with pytest.raises(ValueError, match="windows_s"):
                run_converge(converge_config(path, windows))
