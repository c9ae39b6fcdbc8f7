"""Siegel upper half-space membership checks and random samples.

A g x g complex matrix belongs to the Siegel upper half-space H_g when it
is symmetric and its imaginary part is positive definite.  ``validate_siegel``
measures both conditions; ``random_siegel`` draws matrices that satisfy them
by construction, for use as the non-period baseline in statistics runs.
It draws from numpy's PCG64 ``default_rng``, not splitmix64, and numpy may
change that stream between releases (NEP 19), seeds and code unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .curves import MAX_GENUS
from .errors import DomainError, ValidationError

# Floor added to the imaginary part of random samples; keeps them safely
# inside the positive-definite cone.
IM_EPSILON = 1e-6

DEFAULT_TOL = 1e-8


@dataclass(frozen=True)
class SiegelValidation:
    symmetry_residual: float
    min_im_eigenvalue: float
    tol: float

    @property
    def is_member(self) -> bool:
        return self.symmetry_residual <= self.tol and self.min_im_eigenvalue > 0.0


def validate_siegel(m: np.ndarray, tol: float = DEFAULT_TOL) -> SiegelValidation:
    """Check symmetry and positive-definiteness of the imaginary part.

    The minimum eigenvalue is computed on the symmetrized imaginary part
    (Im m + Im m^T)/2 so the result is well defined even for inputs that
    fail the symmetry check.  Entries whose differences, their moduli or
    sums overflow a double are refused with ``ValidationError`` rather than
    measured as inf or nan.
    """
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or not m.size:
        raise ValidationError("validate_siegel requires a g x g matrix with g >= 1")
    if not (math.isfinite(tol) and tol > 0):
        raise DomainError("tol must be positive and finite")
    if not np.all(np.isfinite(m.real)) or not np.all(np.isfinite(m.imag)):
        raise ValidationError("matrix entries must be finite")
    with np.errstate(over="raise", invalid="raise"):
        try:
            residual = float(np.max(np.abs(m - m.T)))
            im_sym = (m.imag + m.imag.T) / 2.0
        except FloatingPointError as exc:
            raise ValidationError(f"matrix too large for the Siegel check: {exc}") from None
    if math.isinf(residual):  # a finite m - m^T whose modulus is not: np.abs sets no flag
        raise ValidationError("matrix too large for the Siegel check: |m - m^T| overflows")
    min_eig = float(np.linalg.eigvalsh(im_sym)[0])
    return SiegelValidation(symmetry_residual=residual, min_im_eigenvalue=min_eig, tol=tol)


def random_siegel(g: int, seed: int, scale: float = 1.0) -> np.ndarray:
    """Random element of H_g: S + i(LL^T + eps*I), deterministic in the seed.

    S is symmetric with entries uniform in [-scale, scale]; L has standard
    normal entries.  The output passes validate_siegel at tol 1e-12.
    g must be at most ``curves.MAX_GENUS``, the seed non-negative, and
    the width 2*scale of the uniform range a positive finite float.
    """
    if g < 1:
        raise DomainError("g must be >= 1")
    if g > MAX_GENUS:
        raise DomainError(f"g must be <= {MAX_GENUS}")
    if seed < 0:
        raise DomainError("seed must be >= 0")
    if not (scale > 0 and math.isfinite(2.0 * scale)):
        raise DomainError("scale must be positive with 2*scale finite")
    rng = np.random.default_rng(seed)
    upper = rng.uniform(-scale, scale, size=(g, g))
    s = np.triu(upper)
    s = s + np.triu(s, 1).T
    L = rng.standard_normal((g, g))
    im = L @ L.T + IM_EPSILON * np.eye(g)
    return s + 1j * im
