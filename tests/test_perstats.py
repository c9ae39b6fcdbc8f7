import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from periodlab.errors import DomainError, ValidationError
from periodlab.perstats import (
    arg_histogram,
    band_limit_score,
    best_k_energy,
    fit_power_law,
    spectrum,
)


class TestSpectrum:
    def test_sorted_descending(self):
        s = spectrum([1.0, 3j, 2.0 + 0j])
        assert s.values == (9.0, 4.0, 1.0)
        assert s.source_count == 3

    def test_accepts_matrix(self):
        s = spectrum(np.eye(2, dtype=complex))
        assert s.values == (1.0, 1.0, 0.0, 0.0)

    def test_validation(self):
        with pytest.raises(ValidationError):
            spectrum([])
        with pytest.raises(ValidationError):
            spectrum([complex(np.inf, 0.0)])
        # finite entries whose squared modulus, or the sum of two, overflows
        for values in ([1e200], [1e154, 1e154]):
            with pytest.raises(ValidationError, match="squared moduli and their sum"):
                spectrum(values)
        # nonzero entries whose largest squared modulus is subnormal or 0.0
        for values in ([1e-160], [1e-200 + 1e-200j, 2e-200j, 3e-200 + 1e-200j], [1e-170, 0.0]):
            with pytest.raises(ValidationError, match="underflows a normal double"):
                spectrum(values)
        # a tiny entry beside a normal one, and all zeros, are still accepted
        assert spectrum([1e-170, 1.0]).values == (1.0, 0.0)
        assert spectrum([0.0, 0j]).values == (0.0, 0.0)


class TestPowerLawFit:
    def test_exact_power_law_recovered(self):
        # s_n = n^{-2}: squared moduli, so feed |v_n| = n^{-1}
        vals = [1.0 / n for n in range(1, 40)]
        fit = fit_power_law(spectrum(vals))
        assert fit.exponent == pytest.approx(2.0, abs=1e-10)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
        assert fit.excluded_zeros == 0

    def test_zeros_excluded(self):
        vals = [1.0, 0.5, 0.25, 0.0, 0.0]
        fit = fit_power_law(spectrum(vals))
        assert fit.excluded_zeros == 2

    def test_too_few_positive(self):
        with pytest.raises(DomainError):
            fit_power_law(spectrum([1.0, 0.0, 0.0]))


class TestBestKEnergy:
    def test_values(self):
        s = spectrum([2.0, 1.0, 1.0])  # squared: 4, 1, 1
        assert best_k_energy(s, 1) == pytest.approx(4.0 / 6.0)
        assert best_k_energy(s, 3) == pytest.approx(1.0)

    def test_domain(self):
        s = spectrum([1.0, 2.0])
        with pytest.raises(DomainError):
            best_k_energy(s, 0)
        with pytest.raises(DomainError):
            best_k_energy(s, 3)

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(
            st.floats(min_value=0.0, max_value=1e6, allow_nan=False), min_size=2, max_size=20
        )
    )
    def test_monotone_in_k(self, mags):
        if max(mags) > 0.0 and max(mags) ** 2 < np.finfo(float).tiny:
            # nonzero entries whose squares underflow are refused, not read as zeros
            with pytest.raises(ValidationError, match="underflows a normal double"):
                spectrum(mags)
            return
        s = spectrum(mags)
        energies = [best_k_energy(s, k) for k in range(1, len(mags) + 1)]
        assert all(b >= a - 1e-12 for a, b in zip(energies, energies[1:]))
        assert energies[-1] == pytest.approx(1.0)


class TestBandLimitScore:
    def test_axis_aligned_scores_zero(self):
        vals = [1.0, -2.0, 3j, -4j, 5.0]
        b = band_limit_score(vals)
        assert b.r4 == pytest.approx(1.0)
        assert b.score == pytest.approx(0.0, abs=1e-12)

    def test_spread_arguments_score_high(self):
        theta = np.linspace(0.0, 2 * np.pi, 64, endpoint=False)
        b = band_limit_score(np.exp(1j * theta))
        assert b.score > 0.999

    def test_zeros_ignored(self):
        assert band_limit_score([0.0, 1.0, 1j]).score == pytest.approx(0.0, abs=1e-12)
        with pytest.raises(ValidationError):
            band_limit_score([0.0, 0.0])

    def test_score_in_unit_interval(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            vals = rng.standard_normal(10) + 1j * rng.standard_normal(10)
            b = band_limit_score(vals)
            assert 0.0 <= b.score <= 1.0


class TestArgHistogram:
    def test_counts_sum_to_nonzero(self):
        vals = [1.0, 1j, -1.0, -1j, 0.0]
        hist = arg_histogram(vals, 8)
        assert sum(c for _, c in hist) == 4
        assert len(hist) == 8

    def test_pi_folds_to_minus_pi(self):
        hist = arg_histogram([-1.0], 4)
        # arg(-1) = pi folds into the first bin at -pi
        assert hist[0][1] == 1
        assert sum(c for _, c in hist) == 1

    def test_centers_cover_range(self):
        hist = arg_histogram([1.0, 1j], 4)
        centers = [c for c, _ in hist]
        assert centers[0] == pytest.approx(-3 * np.pi / 4)
        assert centers[-1] == pytest.approx(3 * np.pi / 4)

    def test_domain(self):
        with pytest.raises(DomainError):
            arg_histogram([1.0], 1)
        with pytest.raises(ValidationError):
            arg_histogram([0.0], 4)
