"""Acceptance suite: the seven headline checks, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria complete.  Tolerances are fixed here, not calibrated elsewhere.
"""

import math
import time

import numpy as np
import pytest

from matterslit import (
    ELECTRON,
    HBAR,
    Method,
    SlitGeometry,
    SpaceTimeEvent,
    TimeSumConfig,
    Timing,
    TimingConvention,
    TwoLegPath,
    de_broglie_wavelength,
    far_field_maxima,
    free_propagator,
    group_velocity,
    matter_phase,
    optical_phase,
    packet_carrier_phase,
    path_phase,
    pattern,
    pattern_from_amplitudes,
    phase_velocity,
    slit_phase,
    stationary_phase,
    stationary_slit_time,
    timesum_asymptotic,
    timesum_closed_form,
    two_path_phase_difference,
    faddeeva_w,
)
from matterslit.cli import fig4_preset, fig6_preset, run_converge, run_pattern, run_phasediff
from matterslit.wavepacket import WavePacketParams
from conftest import (
    compose_free_propagators,
    faddeeva_oracle_grid,
    faddeeva_quadrature_oracle,
    timesum_oracle,
)

SPEED = 1.0e7
THREE_QUARTER_TURN = -3 * math.pi / 4


def _report(number, name, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {number} ({name}): {status} -- {detail}")
    assert ok, f"criterion {number} ({name}): {detail}"


@pytest.fixture(scope="module")
def fig6_run():
    preset = fig6_preset()
    start = time.perf_counter()
    envelope = run_pattern(preset)
    elapsed = time.perf_counter() - start
    return preset, envelope, elapsed


def test_criterion_1_single_slit_convergence():
    preset = fig4_preset()
    start = time.perf_counter()
    envelope = run_converge(preset)
    elapsed = time.perf_counter() - start

    rows = envelope["results"]["series"]
    settled_arg = rows[-1]["argument_over_prefactor_rad"]
    arg_dev = abs(settled_arg - THREE_QUARTER_TURN)

    # the full window is the closed form itself, so it is checked against
    # the independent panel quadrature of the tests
    leg = preset["path"]["leg1_m"]
    tau = preset["path"]["duration_s"]
    reference = timesum_oracle(TwoLegPath(leg, leg, tau))
    re_dev = abs(rows[-1]["re"] - reference.real) / abs(reference.real)

    ok = arg_dev <= 0.01 and re_dev <= 5e-3 and elapsed <= 10.0
    _report(
        1, "single-slit time-sum convergence", ok,
        f"settled argument -3pi/4 {settled_arg:+.5f} (|dev| {arg_dev:.2e} <= 0.01), "
        f"Re vs panel quadrature rel dev {re_dev:.2e} <= 5e-3, runtime {elapsed:.1f}s <= 10s",
    )


def _nearest_index(values, target):
    values = np.asarray(values)
    return int(np.argmin(np.abs(values - target)))


def _has_local_extremum(p, center, half_width, kind):
    lo, hi = max(1, center - half_width), min(len(p) - 1, center + half_width)
    for i in range(lo, hi):
        if kind == "max" and p[i] >= p[i - 1] and p[i] >= p[i + 1]:
            return True
        if kind == "min" and p[i] <= p[i - 1] and p[i] <= p[i + 1]:
            return True
    return False


def test_criterion_2_near_field_discrepancy(fig6_run):
    preset, envelope, elapsed = fig6_run
    screen = np.asarray(envelope["results"]["screen_y_m"])
    patterns = envelope["results"]["patterns"]
    inline_y = preset["geometry"]["source_y_m"]
    idx = _nearest_index(screen, inline_y)
    fringe_points = round(len(screen) / 6)  # grid spans three fringes each side

    p_sp = np.asarray(patterns["stationary_phase"])
    p_int = np.asarray(patterns["intuitive"])
    sp_value, int_value = p_sp[idx], p_int[idx]
    sp_is_max = _has_local_extremum(p_sp, idx, fringe_points // 2, "max")
    int_is_min = _has_local_extremum(p_int, idx, fringe_points // 2, "min")

    records = run_phasediff(preset)["results"]["records"]
    phase_gap = abs(records[0]["difference_raw_rad"])
    gap_dev = abs(phase_gap - math.pi)

    ok = (
        sp_value >= 0.9 and sp_is_max
        and int_value <= 0.1 and int_is_min
        and gap_dev <= 0.05
        and elapsed <= 30.0
    )
    _report(
        2, "near-field in-line discrepancy", ok,
        f"stationary {sp_value:.3f} >= 0.9 at the in-line point (local max: {sp_is_max}), "
        f"intuitive {int_value:.3f} <= 0.1 (local min: {int_is_min}), "
        f"|phase gap - pi| = {gap_dev:.3f} <= 0.05, runtime {elapsed:.1f}s <= 30s",
    )


def test_criterion_3_time_sum_matches_stationary_curve(fig6_run):
    preset, envelope, _ = fig6_run
    screen = np.asarray(envelope["results"]["screen_y_m"])
    p_sp = np.asarray(envelope["results"]["patterns"]["stationary_phase"])
    p_ts = np.asarray(envelope["results"]["patterns"]["time_summed"])
    assert preset["timesum"]["window_s"] == 6.88e-14

    inline_y = preset["geometry"]["source_y_m"]
    wavelength = de_broglie_wavelength(ELECTRON, SPEED)
    fringe = wavelength * preset["geometry"]["dist_slits_screen_m"] / (
        preset["geometry"]["slit1_y_m"] - preset["geometry"]["slit2_y_m"]
    )
    five_points = [inline_y + k * fringe / 2 for k in (-2, -1, 0, 1, 2)]
    gaps = []
    for y in five_points:
        i = _nearest_index(screen, y)
        gaps.append(abs(p_ts[i] - p_sp[i]))
    worst = max(gaps)
    ok = worst <= 0.02
    _report(
        3, "time-summed points on the stationary curve", ok,
        f"five windowed time-sum points, worst gap {worst:.4f} <= 0.02 of peak",
    )


def test_criterion_4_integer_turn_count():
    preset = fig6_preset()["phasediff"]
    d = preset["slit_separation_m"]
    duration = preset["duration_s"]
    value = 2 * ELECTRON.mass * d * d / (HBAR * duration)
    target = 304 * 2 * math.pi
    rel = abs(value - target) / target
    ok = rel <= 1e-3
    _report(
        4, "equal-time phase gap is 304 full turns", ok,
        f"2 m d^2/(hbar tau) = {value:.2f} rad vs 304*2pi = {target:.2f} "
        f"(rel dev {rel:.2e} <= 1e-3)",
    )


def test_criterion_5_faddeeva_oracle_suite():
    start = time.perf_counter()
    worst = 0.0
    compared = 0
    overflowed = 0
    for z in faddeeva_oracle_grid():
        if z.imag * z.imag - z.real * z.real > 708.0:
            with pytest.raises(OverflowError):
                faddeeva_w(z)
            overflowed += 1
            continue
        oracle = faddeeva_quadrature_oracle(z)
        worst = max(worst, abs(faddeeva_w(z) - oracle) / abs(oracle))
        compared += 1

    closed = timesum_closed_form(100.0, ELECTRON).as_complex()
    asym = timesum_asymptotic(100.0, 4, ELECTRON).amplitude.as_complex()
    asym_rel = abs(asym - closed) / abs(closed)
    elapsed = time.perf_counter() - start

    ok = worst <= 1e-8 and asym_rel <= 1e-5 and compared + overflowed == 100 and elapsed <= 60.0
    _report(
        5, "faddeeva oracle suite", ok,
        f"w(z) vs quadrature oracle: worst rel {worst:.2e} <= 1e-8 over {compared} points "
        f"({overflowed} overflow points raise), 4-term asymptotic vs closed form "
        f"rel {asym_rel:.2e} <= 1e-5, runtime {elapsed:.1f}s <= 60s",
    )


def test_criterion_6_property_suite():
    checks = []

    # optical phase is exactly twice the matter phase
    rng = np.random.default_rng(2)
    ok_twice = all(
        optical_phase(L, lam).raw == 2 * matter_phase(L, lam).raw
        for L, lam in zip(rng.uniform(1e-9, 1e-3, 25), rng.uniform(1e-12, 1e-6, 25))
    )
    checks.append(("optical = 2 x matter", ok_twice))

    # finite-difference derivative of the slit phase vanishes at t*
    path = TwoLegPath(2.7e-6, 3.3e-6, 5e-13)
    t_star = stationary_slit_time(path)
    h = path.tau * 1e-7
    derivative = (
        slit_phase(path, t_star + h, ELECTRON).raw
        - slit_phase(path, t_star - h, ELECTRON).raw
    ) / (2 * h)
    curvature = (ELECTRON.mass / HBAR) * (
        path.l1**2 / t_star**3 + path.l2**2 / (path.tau - t_star) ** 3
    )
    checks.append(("stationary-point derivative ~ 0", abs(derivative) < curvature * h))

    # equal-duration residual scales as (dL/L)^2
    ratios = np.logspace(-4, -2, 7)
    residuals = [
        abs(
            two_path_phase_difference(2e-6, 2e-6 * (1 + r), 5e-13, ELECTRON).exact.raw
            - two_path_phase_difference(2e-6, 2e-6 * (1 + r), 5e-13, ELECTRON).first_order.raw
        )
        for r in ratios
    ]
    slope = np.polyfit(np.log(ratios), np.log(residuals), 1)[0]
    checks.append(("residual slope 2", abs(slope - 2.0) < 0.01))

    # propagator composition over an intermediate plane
    a = SpaceTimeEvent(0.0, 0.0)
    b = SpaceTimeEvent(3.37e-6, 6.72e-13)
    direct = free_propagator(a, b, ELECTRON).as_complex()
    composed = compose_free_propagators(a, b, ELECTRON, zones=30)
    comp_ok = (
        abs(composed.real - direct.real) / abs(direct) <= 1e-3
        and abs(composed.imag - direct.imag) / abs(direct) <= 1e-3
    )
    checks.append(("propagator composition <= 1e-3", comp_ok))

    # mirror symmetry of a symmetric pattern
    geom = SlitGeometry(0.0, 1.365e-7, -1.365e-7, 63e-9, 63e-9, 3.37e-6, 3.37e-6)
    timing = Timing(TimingConvention.EQUAL_TOTAL_TIME, 6.74e-13)
    screen = np.linspace(-2e-9, 2e-9, 129)
    p = np.asarray(
        pattern(geom, timing, screen, Method.STATIONARY_PHASE, 8, ELECTRON).probability
    )
    checks.append(("mirror symmetry", bool(np.allclose(p, p[::-1], rtol=1e-10))))

    # global phase invariance of the normalized pattern
    amps = rng.normal(size=32) + 1j * rng.normal(size=32)
    base = pattern_from_amplitudes(np.arange(32.0), amps, Method.INTUITIVE).probability
    spun = pattern_from_amplitudes(
        np.arange(32.0), amps * np.exp(0.7j), Method.INTUITIVE
    ).probability
    checks.append(("global phase invariance", bool(np.allclose(base, spun, rtol=1e-12))))

    # group velocity is exactly twice the phase velocity
    params = WavePacketParams(k0=8.64e10, delta_k=1e8, species=ELECTRON)
    checks.append(("group = 2 x phase velocity", group_velocity(params) == 2 * phase_velocity(params)))

    # carrier phase equals the straight-path action phase
    distance = 2.2e-6
    travel = distance * ELECTRON.mass / (HBAR * params.k0)
    carrier = packet_carrier_phase(params, distance).raw
    action = path_phase(distance, travel, ELECTRON).raw
    checks.append(("carrier = path phase", abs(carrier - action) / action < 1e-12))

    failed = [name for name, good in checks if not good]
    _report(
        6, "property suite", not failed,
        f"{len(checks)} properties checked" + (f", failed: {failed}" if failed else ""),
    )


def test_criterion_7_far_field_consistency():
    wavelength = de_broglie_wavelength(ELECTRON, SPEED)
    d = 2.73e-7
    distance = 1e4 * d * d / wavelength
    geom = SlitGeometry(0.0, d / 2, -d / 2, 63e-9, 63e-9, distance, distance)
    duration = 2 * distance / SPEED
    timing = Timing(TimingConvention.EQUAL_TOTAL_TIME, duration)

    theta = far_field_maxima(d, wavelength, 1)
    predicted = distance * math.tan(theta)
    fringe = wavelength * distance / d

    offsets = {}
    fine = np.linspace(predicted - 0.6 * fringe, predicted + 0.6 * fringe, 3001)
    for method in (Method.INTUITIVE, Method.STATIONARY_PHASE):
        p = np.asarray(pattern(geom, timing, fine, method, 1, ELECTRON).probability)
        offsets[method.value] = abs(fine[int(np.argmax(p))] - predicted) / fringe

    # time-summed on a coarser grid; window sized for ~400 rad at the edges
    phi0 = stationary_phase(
        TwoLegPath(math.hypot(distance, d / 2), math.hypot(distance, predicted - d / 2),
                   duration),
        ELECTRON,
    ).raw
    u_edge = math.sqrt(400.0 / phi0)
    window = duration * u_edge / math.sqrt(1 + u_edge * u_edge)
    cfg = TimeSumConfig(window=window, max_nodes=4_000_000)
    coarse = np.linspace(predicted - 0.6 * fringe, predicted + 0.6 * fringe, 161)
    p_ts = np.asarray(
        pattern(geom, timing, coarse, Method.TIME_SUMMED, 1, ELECTRON,
                timesum_config=cfg).probability
    )
    i = int(np.argmax(p_ts))
    a, b, c = p_ts[i - 1], p_ts[i], p_ts[i + 1]
    refined = coarse[i] + 0.5 * (a - c) / (a - 2 * b + c) * (coarse[1] - coarse[0])
    offsets["time_summed"] = abs(refined - predicted) / fringe

    worst = max(offsets.values())
    ok = worst <= 0.01
    _report(
        7, "far-field grating consistency", ok,
        "first-order peak offsets vs arcsin(lambda/d): "
        + ", ".join(f"{k} {v:.4f}" for k, v in offsets.items())
        + " (all <= 0.01 fringe)",
    )
