import numpy as np
import pytest

from periodlab.errors import DomainError, ValidationError
from periodlab.siegel import random_siegel, validate_siegel


def test_diagonal_member():
    m = np.diag([1j, 2j, 0.5j])
    res = validate_siegel(m)
    assert res.is_member
    assert res.symmetry_residual == 0.0
    assert res.min_im_eigenvalue == pytest.approx(0.5)


def test_asymmetric_rejected():
    m = np.array([[1j, 0.5], [0.0, 1j]])
    res = validate_siegel(m, tol=1e-8)
    assert res.symmetry_residual == pytest.approx(0.5)
    assert not res.is_member


def test_indefinite_imag_rejected():
    m = np.array([[1j, 0.0], [0.0, -1j]])
    res = validate_siegel(m)
    assert res.min_im_eigenvalue == pytest.approx(-1.0)
    assert not res.is_member


def test_real_symmetric_on_boundary_rejected():
    # Im = 0 is not positive definite
    m = np.array([[1.0, 2.0], [2.0, 3.0]], dtype=complex)
    assert not validate_siegel(m).is_member


def test_tolerance_gates_symmetry():
    m = np.array([[1j, 1e-10], [0.0, 1j]])
    assert validate_siegel(m, tol=1e-8).is_member
    assert not validate_siegel(m, tol=1e-12).is_member


def test_input_validation():
    with pytest.raises(ValidationError):
        validate_siegel(np.zeros((2, 3)))
    for tol in (0.0, float("nan"), float("inf")):
        with pytest.raises(DomainError):
            validate_siegel(np.eye(2) * 1j, tol=tol)
    with pytest.raises(ValidationError):
        validate_siegel(np.array([[complex(np.nan, 1.0)]]))


def test_empty_matrix_refused():
    # H_g needs g >= 1; a 0 x 0 matrix has no smallest eigenvalue to report
    with pytest.raises(ValidationError, match="g >= 1"):
        validate_siegel(np.zeros((0, 0)))


@pytest.mark.parametrize(
    "m",
    [
        np.full((2, 2), 1e308j),  # symmetric; Im m + Im m^T overflows
        np.array([[1e308 + 1j, 1e308], [-1e308, 1j]]),  # m - m^T overflows
        np.array([[1j, 1.2e308 + 1.2e308j], [-0.5e308 - 0.5e308j, 1j]]),  # |m - m^T| does
    ],
    ids=["im-sum", "difference", "modulus"],
)
def test_overflowing_entries_refused(m):
    # finite entries whose sum, difference or its modulus is not: refused, never inf or nan
    with pytest.raises(ValidationError, match="too large for the Siegel check"):
        validate_siegel(m)


def test_random_siegel_members():
    for g in (1, 2, 6):
        for seed in (0, 1, 12345):
            m = random_siegel(g, seed)
            assert m.shape == (g, g)
            assert validate_siegel(m, tol=1e-12).is_member


def test_random_siegel_deterministic():
    a = random_siegel(4, 7)
    b = random_siegel(4, 7)
    assert np.array_equal(a, b)
    c = random_siegel(4, 8)
    assert not np.array_equal(a, c)


def test_random_siegel_scale():
    m = random_siegel(3, 5, scale=10.0)
    assert np.max(np.abs(m.real)) <= 10.0
    for scale in (0.0, float("nan"), float("inf"), 1e308):  # 2 * 1e308 overflows
        with pytest.raises(DomainError):
            random_siegel(3, 5, scale=scale)
    with pytest.raises(DomainError):
        random_siegel(0, 5)
    with pytest.raises(DomainError):
        random_siegel(3, -1)
