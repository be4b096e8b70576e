import math

import numpy as np
import pytest

from matterslit import (
    ELECTRON,
    HBAR,
    Method,
    SlitGeometry,
    TimeSumConfig,
    Timing,
    TimingConvention,
    de_broglie_wavelength,
    discrepancy_report,
    far_field_maxima,
    leg_lengths,
    near_field_phase_diff_intuitive,
    near_field_phase_diff_path_integral,
    pattern,
    pattern_from_amplitudes,
    transit_points,
    two_path_phase_difference,
)

ARM = 3.37e-6
SEPARATION = 2.73e-7
WIDTH = 63e-9
SPEED = 1.0e7
DURATION = 2 * ARM / SPEED  # 6.74e-13 s over the straight path


def inline_geometry():
    """Source and detection region in line with slit 1."""
    return SlitGeometry(
        source_y=SEPARATION / 2,
        slit1_y=SEPARATION / 2,
        slit2_y=-SEPARATION / 2,
        slit1_width=WIDTH,
        slit2_width=WIDTH,
        dist_source_slits=ARM,
        dist_slits_screen=ARM,
    )


def symmetric_geometry():
    return SlitGeometry(
        source_y=0.0,
        slit1_y=SEPARATION / 2,
        slit2_y=-SEPARATION / 2,
        slit1_width=WIDTH,
        slit2_width=WIDTH,
        dist_source_slits=ARM,
        dist_slits_screen=ARM,
    )


class TestGeometry:
    def test_overlapping_slits_rejected(self):
        with pytest.raises(ValueError):
            SlitGeometry(0.0, 50e-9, -50e-9, 120e-9, 120e-9, 1e-6, 1e-6)

    def test_nonpositive_distances_rejected(self):
        with pytest.raises(ValueError):
            SlitGeometry(0.0, 1e-7, -1e-7, 5e-8, 5e-8, 0.0, 1e-6)

    def test_separation(self):
        assert inline_geometry().separation == pytest.approx(SEPARATION, rel=1e-15)


class TestLegLengths:
    def test_straight_through(self):
        geom = inline_geometry()
        l1, l2 = leg_lengths(geom, geom.slit1_y, geom.slit1_y)
        assert l1 == ARM
        assert l2 == ARM

    def test_off_slit_path(self):
        # source in line with slit 1, transit through slit 2 center
        geom = inline_geometry()
        l1, l2 = leg_lengths(geom, geom.slit2_y, geom.source_y)
        assert l1 == pytest.approx(3.3810396330123074e-6, rel=1e-12)
        assert l2 == pytest.approx(3.3810396330123074e-6, rel=1e-12)

    def test_mirror_swap(self):
        geom = symmetric_geometry()
        l1, l2 = leg_lengths(geom, geom.slit1_y, 4.2e-7)
        m1, m2 = leg_lengths(geom, geom.slit2_y, -4.2e-7)
        assert (l1, l2) == (m1, m2)

    def test_outside_both_slits(self):
        geom = inline_geometry()
        with pytest.raises(ValueError):
            leg_lengths(geom, 0.0, 0.0)  # midway between the slits


class TestTransitPoints:
    def test_single_sample_is_center(self):
        geom = inline_geometry()
        pts = transit_points(geom, 1)
        np.testing.assert_allclose(pts, [geom.slit1_y, geom.slit2_y])

    def test_midpoint_sampling_symmetric(self):
        geom = inline_geometry()
        pts = transit_points(geom, 8)
        slit1 = pts[:8]
        assert slit1.mean() == pytest.approx(geom.slit1_y, abs=1e-20)
        assert slit1.max() < geom.slit1_y + WIDTH / 2
        assert slit1.min() > geom.slit1_y - WIDTH / 2

    def test_sample_count_validated(self):
        with pytest.raises(ValueError):
            transit_points(inline_geometry(), 0)


class TestTiming:
    def test_speed_duration_connection(self):
        geom = inline_geometry()
        by_time = Timing(TimingConvention.EQUAL_TOTAL_TIME, DURATION)
        by_speed = Timing(TimingConvention.EQUAL_SPEED, SPEED)
        assert by_time.speed(geom) == pytest.approx(SPEED, rel=1e-15)
        assert by_speed.duration(geom) == pytest.approx(DURATION, rel=1e-15)

    def test_value_validated(self):
        with pytest.raises(ValueError):
            Timing(TimingConvention.EQUAL_SPEED, 0.0)


class TestPattern:
    TIMING = Timing(TimingConvention.EQUAL_TOTAL_TIME, DURATION)

    def screen(self, count=257):
        fringe = de_broglie_wavelength(ELECTRON, SPEED) * ARM / SEPARATION
        return np.linspace(-2 * fringe, 2 * fringe, count)

    @pytest.mark.parametrize("method", [Method.INTUITIVE, Method.STATIONARY_PHASE])
    def test_mirror_symmetry(self, method):
        geom = symmetric_geometry()
        result = pattern(geom, self.TIMING, self.screen(), method, 16, ELECTRON)
        p = np.asarray(result.probability)
        np.testing.assert_allclose(p, p[::-1], rtol=1e-10, atol=1e-12)

    def test_mirror_symmetry_time_summed(self):
        geom = symmetric_geometry()
        cfg = TimeSumConfig(window=6.88e-14)
        fringe = de_broglie_wavelength(ELECTRON, SPEED) * ARM / SEPARATION
        pts = np.array([-fringe, -fringe / 2, 0.0, fringe / 2, fringe])
        result = pattern(
            geom, self.TIMING, pts, Method.TIME_SUMMED, 2, ELECTRON, timesum_config=cfg
        )
        p = np.asarray(result.probability)
        np.testing.assert_allclose(p, p[::-1], rtol=1e-10, atol=1e-12)

    def test_normalization_is_exact(self):
        geom = symmetric_geometry()
        result = pattern(geom, self.TIMING, self.screen(), Method.INTUITIVE, 4, ELECTRON)
        assert max(result.probability) == 1.0
        assert min(result.probability) >= 0.0

    def test_global_phase_invariance(self):
        rng = np.random.default_rng(13)
        amplitudes = rng.normal(size=64) + 1j * rng.normal(size=64)
        screen = np.arange(64, dtype=float)
        base = pattern_from_amplitudes(screen, amplitudes, Method.INTUITIVE)
        for theta in (0.3, 1.7, -2.9):
            rotated = pattern_from_amplitudes(
                screen, amplitudes * np.exp(1j * theta), Method.INTUITIVE
            )
            np.testing.assert_allclose(
                rotated.probability, base.probability, rtol=1e-12, atol=1e-15
            )

    def test_translation_invariance(self):
        # shifting the whole apparatus transversely relabels nothing physical
        geom = symmetric_geometry()
        shift = 5.5e-7
        shifted = SlitGeometry(
            geom.source_y + shift, geom.slit1_y + shift, geom.slit2_y + shift,
            geom.slit1_width, geom.slit2_width,
            geom.dist_source_slits, geom.dist_slits_screen,
        )
        screen = self.screen(129)
        base = pattern(geom, self.TIMING, screen, Method.STATIONARY_PHASE, 4, ELECTRON)
        moved = pattern(
            shifted, self.TIMING, screen + shift, Method.STATIONARY_PHASE, 4, ELECTRON
        )
        np.testing.assert_allclose(
            moved.probability, base.probability, rtol=1e-9, atol=1e-12
        )

    def test_equal_speed_convention_rejected_for_fixed_time_methods(self):
        geom = symmetric_geometry()
        by_speed = Timing(TimingConvention.EQUAL_SPEED, SPEED)
        for method in (Method.STATIONARY_PHASE, Method.TIME_SUMMED):
            with pytest.raises(ValueError):
                pattern(geom, by_speed, self.screen(5), method, 1, ELECTRON,
                        timesum_config=TimeSumConfig(window=6.88e-14))

    def test_time_summed_requires_config(self):
        geom = symmetric_geometry()
        with pytest.raises(ValueError):
            pattern(geom, self.TIMING, self.screen(5), Method.TIME_SUMMED, 1, ELECTRON)

    def test_empty_screen_rejected(self):
        with pytest.raises(ValueError):
            pattern(symmetric_geometry(), self.TIMING, [], Method.INTUITIVE, 1, ELECTRON)

    def test_doubling_slit_samples_changes_little_when_resolved(self):
        # where the midpoint sampling resolves the phase sweep across the
        # openings (~10 rad here), doubling the sample count moves the
        # pattern by well under half a percent
        d, w = 40e-9, 10e-9
        geom = SlitGeometry(0.0, d / 2, -d / 2, w, w, ARM, ARM)
        fringe = de_broglie_wavelength(ELECTRON, SPEED) * ARM / d
        screen = np.linspace(-2 * fringe, 2 * fringe, 193)
        coarse = pattern(geom, self.TIMING, screen, Method.STATIONARY_PHASE, 32, ELECTRON)
        fine = pattern(geom, self.TIMING, screen, Method.STATIONARY_PHASE, 64, ELECTRON)
        gap = np.max(np.abs(np.asarray(coarse.probability) - np.asarray(fine.probability)))
        assert gap < 5e-3

    def test_inline_width_sampling_washes_out_far_slit(self):
        # in the in-line layout the path phase sweeps ~9e2 radians across the
        # off-axis slit opening, so converged coherent width sampling
        # suppresses that slit's contribution and with it the fringes; the
        # two-path (single transit point) picture is the one the in-line
        # phase records describe
        geom = inline_geometry()
        screen = geom.source_y + self.screen(65)
        converged = pattern(geom, self.TIMING, screen, Method.STATIONARY_PHASE, 4096, ELECTRON)
        assert min(converged.probability) > 0.85  # visibility down to a few percent
        two_path = pattern(geom, self.TIMING, screen, Method.STATIONARY_PHASE, 1, ELECTRON)
        assert min(two_path.probability) < 0.1  # full-contrast fringes

    def test_far_field_peaks_match_grating_equation(self):
        lam = de_broglie_wavelength(ELECTRON, SPEED)
        distance = 1e4 * SEPARATION**2 / lam
        geom = SlitGeometry(
            0.0, SEPARATION / 2, -SEPARATION / 2, WIDTH, WIDTH, distance, distance
        )
        timing = Timing(TimingConvention.EQUAL_TOTAL_TIME, 2 * distance / SPEED)
        theta1 = far_field_maxima(SEPARATION, lam, 1)
        y_predicted = distance * math.tan(theta1)
        fringe = lam * distance / SEPARATION
        screen = np.linspace(y_predicted - 0.6 * fringe, y_predicted + 0.6 * fringe, 1501)
        for method in (Method.INTUITIVE, Method.STATIONARY_PHASE):
            result = pattern(geom, timing, screen, method, 1, ELECTRON)
            peak = screen[int(np.argmax(result.probability))]
            assert abs(peak - y_predicted) < 0.01 * fringe


class TestNearFieldRecords:
    def test_frozen_value_and_quoted_round_number(self):
        val = near_field_phase_diff_path_integral(SEPARATION, DURATION, ELECTRON).raw
        assert val == pytest.approx(1910.3292614014292, rel=1e-12)
        assert val == pytest.approx(1910.1, rel=2e-4)

    def test_quadratic_scaling_in_separation(self):
        one = near_field_phase_diff_path_integral(SEPARATION, DURATION, ELECTRON).raw
        four = near_field_phase_diff_path_integral(2 * SEPARATION, DURATION, ELECTRON).raw
        assert four == pytest.approx(4 * one, rel=1e-14)

    def test_matches_two_path_difference(self):
        # the in-line layout realizes exactly the 2 m d^2/(hbar tau) difference
        l_a = 2 * ARM
        l_b = 2 * math.hypot(ARM, SEPARATION)
        exact = two_path_phase_difference(l_a, l_b, DURATION, ELECTRON).exact.raw
        record = near_field_phase_diff_path_integral(SEPARATION, DURATION, ELECTRON).raw
        assert exact == pytest.approx(record, rel=1e-12)

    def test_length_independence(self):
        # the equal-duration two-path value is length-independent to < 0.2%
        reference = near_field_phase_diff_path_integral(SEPARATION, DURATION, ELECTRON).raw
        for arm in np.linspace(3e-6, 30e-6, 12):
            l_a, l_b = 2 * arm, 2 * math.hypot(arm, SEPARATION)
            val = two_path_phase_difference(l_a, l_b, DURATION, ELECTRON).exact.raw
            assert abs(val - reference) / reference < 2e-3

    def test_intuitive_correction_term(self):
        rec = near_field_phase_diff_intuitive(SEPARATION, ARM, DURATION, ELECTRON)
        pi_val = near_field_phase_diff_path_integral(SEPARATION, DURATION, ELECTRON).raw
        correction = pi_val - rec.expanded.raw
        assert correction == pytest.approx(3.134106347748663, rel=1e-12)
        assert correction == pytest.approx(math.pi, abs=0.01)

    def test_expansion_accuracy_in_far_field(self):
        # exact - expanded is the next order in (d/L)^2: under 1e-3 relative
        # for d/L <= 0.1 and shrinking quadratically from there
        previous = None
        for ratio in (0.1, 0.03, 0.01):
            arm = SEPARATION / ratio
            duration = 2 * arm / SPEED
            rec = near_field_phase_diff_intuitive(SEPARATION, arm, duration, ELECTRON)
            rel = abs(rec.exact.raw - rec.expanded.raw) / rec.exact.raw
            assert rel < 1e-3
            if previous is not None:
                assert rel < previous
            previous = rel
        wide = near_field_phase_diff_intuitive(SEPARATION, 1e-3, 2e-10, ELECTRON)
        assert wide.exact.raw == pytest.approx(wide.expanded.raw, rel=1e-9)

    def test_exact_form_is_the_wavefront_count(self):
        # the exact record is optical bookkeeping: 2 pi / lambda(v) per unit
        # of extra round-trip length (h and hbar routes agree to ~6e-10)
        from matterslit import optical_phase

        speed = 2 * ARM / DURATION
        lam = de_broglie_wavelength(ELECTRON, speed)
        extra = 2 * (math.hypot(ARM, SEPARATION) - ARM)
        rec = near_field_phase_diff_intuitive(SEPARATION, ARM, DURATION, ELECTRON)
        assert rec.exact.raw == pytest.approx(optical_phase(extra, lam).raw, rel=2e-9)

    def test_time_summed_approaches_stationary_with_window_growth(self):
        # the pointwise gap between the windowed time sum and the stationary
        # curve shrinks as the window widens
        geom = inline_geometry()
        timing = Timing(TimingConvention.EQUAL_TOTAL_TIME, DURATION)
        fringe = de_broglie_wavelength(ELECTRON, SPEED) * ARM / SEPARATION
        screen = geom.source_y + np.linspace(-1.5 * fringe, 1.5 * fringe, 49)
        p_sp = np.asarray(
            pattern(geom, timing, screen, Method.STATIONARY_PHASE, 1, ELECTRON).probability
        )
        gaps = []
        for window in (6.88e-14, 2 * 6.88e-14):
            cfg = TimeSumConfig(window=window, max_nodes=4_000_000)
            p_ts = np.asarray(
                pattern(geom, timing, screen, Method.TIME_SUMMED, 1, ELECTRON,
                        timesum_config=cfg).probability
            )
            gaps.append(np.max(np.abs(p_ts - p_sp)))
        assert gaps[0] <= 0.02  # already inside two percent of peak
        assert gaps[1] < gaps[0]

    def test_discrepancy_report_near_field(self):
        report = discrepancy_report(SEPARATION, ARM, DURATION, ELECTRON)
        assert report.significant
        assert report.difference.principal == pytest.approx(-math.pi, abs=0.02)

    def test_discrepancy_vanishes_far_field(self):
        arm = 1e-3  # metre-scale arms at the same separation
        report = discrepancy_report(SEPARATION, arm, 2 * arm / SPEED, ELECTRON)
        assert not report.significant
        assert abs(report.difference.principal) < 1e-3

    def test_significance_boundary_location(self):
        # |difference| crosses pi where d^2/(4 L^2) = pi hbar tau/(2 m d^2);
        # scan lengths at fixed duration and bracket the crossing
        duration = DURATION
        boundary_arm = math.sqrt(
            ELECTRON.mass * SEPARATION**4 / (2 * math.pi * HBAR * duration)
        )
        at_boundary = abs(
            discrepancy_report(SEPARATION, boundary_arm, duration, ELECTRON).difference.raw
        )
        assert math.pi / 2 <= at_boundary <= 2 * math.pi
        assert abs(
            discrepancy_report(SEPARATION, 3 * boundary_arm, duration, ELECTRON).difference.raw
        ) < at_boundary
        assert abs(
            discrepancy_report(SEPARATION, boundary_arm / 3, duration, ELECTRON).difference.raw
        ) > at_boundary
