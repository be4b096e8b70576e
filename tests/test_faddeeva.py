import cmath
import math

import numpy as np
import pytest

from matterslit import (
    ELECTRON,
    faddeeva_w,
    normalized_argument,
    time_sum_prefactor,
    timesum_asymptotic,
    timesum_closed_form,
)
from conftest import (
    faddeeva_oracle_grid,
    faddeeva_quadrature_oracle,
    symmetric_path,
    timesum_oracle,
)

SQRT_PI = math.sqrt(math.pi)


class TestFaddeevaW:
    def test_at_origin(self):
        assert faddeeva_w(0j) == pytest.approx(1.0 + 0j, abs=1e-15)

    def test_against_quadrature_oracle_grid(self):
        overflow_points = 0
        for z in faddeeva_oracle_grid():
            if z.imag * z.imag - z.real * z.real > 708.0:
                with pytest.raises(OverflowError):
                    faddeeva_w(z)
                overflow_points += 1
                continue
            oracle = faddeeva_quadrature_oracle(z)
            assert abs(faddeeva_w(z) - oracle) / abs(oracle) < 1e-10, f"z={z}"
        # the grid reaches into the overflow corner but is mostly comparable
        assert 0 < overflow_points < 10

    def test_reflection_identity(self):
        rng = np.random.default_rng(5)
        for _ in range(60):
            z = complex(rng.uniform(-4, 4), rng.uniform(-4, 4))
            lhs = faddeeva_w(-z)
            rhs = 2.0 * cmath.exp(-z * z) - faddeeva_w(z)
            # forming the difference is ill-conditioned where 2 exp(-z^2) is
            # large; allow the cancellation roundoff of this check itself
            conditioning = 1.0 + abs(2.0 * cmath.exp(-z * z))
            assert abs(lhs - rhs) <= 1e-11 * conditioning + 1e-13

    def test_leading_asymptotic_on_the_upper_diagonal(self):
        z = 10.0 * cmath.exp(1j * math.pi / 4)
        leading = 1j / (SQRT_PI * z)
        assert abs(faddeeva_w(z) - leading) / abs(leading) < 0.02

    def test_lower_diagonal_agrees_with_oracle(self):
        # on exp(-i pi/4) rays the reflection term 2 exp(-z^2) is unimodular
        # and dominates; the oracle must still be reproduced
        for r in (0.5, 3.0, 10.0, 30.0):
            z = r * cmath.exp(-1j * math.pi / 4)
            oracle = faddeeva_quadrature_oracle(z)
            assert abs(faddeeva_w(z) - oracle) / abs(oracle) < 1e-11

    @pytest.mark.parametrize("shell", [3.0, 8.0])
    def test_region_boundary_continuity(self, shell):
        for theta in np.linspace(-math.pi / 2, math.pi / 2, 25):
            inner = faddeeva_w((shell * (1 - 1e-12)) * cmath.exp(1j * theta))
            outer = faddeeva_w((shell * (1 + 1e-12)) * cmath.exp(1j * theta))
            assert abs(inner - outer) / abs(outer) < 1e-9

    def test_overflow_raises(self):
        with pytest.raises(OverflowError):
            faddeeva_w(-50j)
        with pytest.raises(OverflowError):
            faddeeva_w(complex(5.0, -40.0))

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            faddeeva_w(complex(math.nan, 0.0))
        with pytest.raises(ValueError):
            faddeeva_w(complex(0.0, math.inf))


class TestTimesumClosedForm:
    def test_phase_shift_settles_at_quarter_turn(self):
        # arg(I) - (phi0 + arg(prefactor)) -> pi/4, within 1/(2 phi0),
        # settling monotonically
        prefactor_arg = cmath.phase(time_sum_prefactor(ELECTRON))
        deviations = []
        for phi0 in [10.0, 30.0, 100.0, 300.0, 1000.0, 3000.0, 10000.0]:
            amp = timesum_closed_form(phi0, ELECTRON)
            shift = amp.argument() - (phi0 + prefactor_arg)
            shift = (shift + math.pi) % (2 * math.pi) - math.pi
            deviation = shift - math.pi / 4
            assert abs(deviation) <= 1.0 / (2 * phi0)
            deviations.append(abs(deviation))
        assert all(b < a for a, b in zip(deviations, deviations[1:]))

    def test_half_turn_alignment_gives_three_quarter_argument(self):
        # phi0 = pi (mod 2 pi), large: normalized argument -> -3 pi/4
        phi0 = math.pi * (2 * 5000 + 1)
        amp = timesum_closed_form(phi0, ELECTRON)
        assert normalized_argument(amp, ELECTRON) == pytest.approx(
            -3 * math.pi / 4, abs=1e-4
        )

    def test_agrees_with_quadrature(self):
        # the library's full window is this closed form, so the check is
        # against the panel oracle of the tests
        for phi0 in (50.0, 200.0, 1000.0):
            closed = timesum_closed_form(phi0, ELECTRON).as_complex()
            summed = timesum_oracle(symmetric_path(phi0))
            assert abs(summed - closed) / abs(closed) < 1e-8

    def test_no_overflow_at_huge_phase(self):
        # the stable form never exponentiates anything of growing modulus
        amp = timesum_closed_form(1e7, ELECTRON)
        expected_mag = abs(time_sum_prefactor(ELECTRON)) * math.sqrt(math.pi / 1e7)
        assert amp.magnitude() == pytest.approx(expected_mag, rel=1e-3)

    def test_domain(self):
        with pytest.raises(ValueError):
            timesum_closed_form(0.0, ELECTRON)
        with pytest.raises(ValueError):
            timesum_closed_form(-1.0, ELECTRON)


class TestTimesumAsymptotic:
    def test_leading_term_argument(self):
        phi0 = 123.456
        result = timesum_asymptotic(phi0, 1, ELECTRON)
        expected = (phi0 + math.pi / 4 - math.pi / 2) % (2 * math.pi)
        actual = result.amplitude.argument() % (2 * math.pi)
        assert actual == pytest.approx(expected, abs=1e-12)

    def test_four_terms_vs_closed_form(self):
        closed = timesum_closed_form(100.0, ELECTRON).as_complex()
        result = timesum_asymptotic(100.0, 4, ELECTRON)
        assert abs(result.amplitude.as_complex() - closed) / abs(closed) < 1e-5

    def test_error_estimate_is_first_omitted_term(self):
        phi0 = 100.0
        result = timesum_asymptotic(phi0, 4, ELECTRON)
        leading = abs(time_sum_prefactor(ELECTRON)) * math.sqrt(math.pi / phi0)
        expected = leading * 105.0 / (2 * phi0) ** 4
        assert result.error_estimate == pytest.approx(expected, rel=1e-12)

    def test_error_decreases_with_phase(self):
        errors = []
        for phi0 in np.geomspace(50, 5000, 9):
            closed = timesum_closed_form(float(phi0), ELECTRON).as_complex()
            approx = timesum_asymptotic(float(phi0), 2, ELECTRON).amplitude.as_complex()
            errors.append(abs(approx - closed) / abs(closed))
        assert all(b < a for a, b in zip(errors, errors[1:]))

    def test_more_terms_never_worse(self):
        for phi0 in (50.0, 200.0, 1000.0):
            closed = timesum_closed_form(phi0, ELECTRON).as_complex()
            errs = [
                abs(timesum_asymptotic(phi0, n, ELECTRON).amplitude.as_complex() - closed)
                for n in (1, 2, 3, 4)
            ]
            assert all(b <= a for a, b in zip(errs, errs[1:]))

    def test_term_count_validation(self):
        for bad in (0, 5, -1):
            with pytest.raises(ValueError):
                timesum_asymptotic(100.0, bad, ELECTRON)
