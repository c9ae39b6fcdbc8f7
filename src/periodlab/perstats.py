"""Statistics of period collections: spectra, power laws, band-limiting.

A period collection is just a flat list of complex numbers; which matrix
or table they came from (raw integrals or a normalized period matrix) is
the caller's business and should be carried as a label in output files.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ValidationError

# Largest argument-histogram bin count; each bin becomes a CSV row.
MAX_BINS = 1 << 16


@dataclass(frozen=True)
class Spectrum:
    """Squared moduli sorted in descending order."""

    values: tuple[float, ...]
    source_count: int

    def __len__(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class PowerLawFit:
    exponent: float
    intercept: float
    r_squared: float
    excluded_zeros: int


@dataclass(frozen=True)
class BandLimitScore:
    """Order-4 circular concentration of the arguments.

    r4 is the modulus of the mean of e^(4 i theta) over the nonzero
    values; score = 1 - r4 is 0 when every argument is a multiple of
    pi/2 and approaches 1 for uniformly spread arguments.
    """

    r4: float
    score: float


def spectrum(values) -> Spectrum:
    """Squared moduli of ``values``, largest first; ``ValidationError`` unless every
    entry, every squared modulus and their sum are finite (1e200, or 1e154 twice,
    would make the energy fractions and the power-law fit NaN), and unless the
    largest is a normal double or every entry is 0 (1e-200 would square to 0.0)."""
    vals = np.asarray(values, dtype=complex)
    if vals.size == 0:
        raise ValidationError("spectrum requires a non-empty input")
    if not np.all(np.isfinite(vals.real)) or not np.all(np.isfinite(vals.imag)):
        raise ValidationError("spectrum entries must be finite")
    with np.errstate(over="ignore"):
        sq = np.sort(np.abs(vals.ravel()) ** 2)[::-1]
        if not np.isfinite(sq.sum()):
            raise ValidationError("spectrum squared moduli and their sum must be finite")
    if sq[0] < np.finfo(float).tiny and np.any(vals):
        raise ValidationError("spectrum largest squared modulus underflows a normal double")
    return Spectrum(values=tuple(float(v) for v in sq), source_count=int(vals.size))


def fit_power_law(s: Spectrum) -> PowerLawFit:
    """Least-squares line on (log n, log s_n), exponent = -slope.

    Zero entries have no logarithm and are excluded; their count is
    reported in the fit.
    """
    vals = np.asarray(s.values, dtype=float)
    positive = vals[vals > 0]
    excluded = int(vals.size - positive.size)
    if positive.size < 3:
        raise DomainError("power-law fit requires at least 3 positive entries")
    n = np.arange(1, positive.size + 1, dtype=float)
    x = np.log(n)
    y = np.log(positive)
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_res = float(np.sum(resid**2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else max(0.0, min(1.0, 1.0 - ss_res / ss_tot))
    return PowerLawFit(
        exponent=float(-slope), intercept=float(intercept), r_squared=r2, excluded_zeros=excluded
    )


def best_k_energy(s: Spectrum, k: int) -> float:
    """Fraction of total energy captured by the k largest entries."""
    if not 1 <= k <= s.source_count:
        raise DomainError("k must satisfy 1 <= k <= source_count")
    vals = np.asarray(s.values, dtype=float)
    total = float(vals.sum())
    if total == 0.0:
        return 1.0
    return float(vals[:k].sum() / total)


def band_limit_score(values) -> BandLimitScore:
    vals = np.asarray(values, dtype=complex).ravel()
    nz = vals[vals != 0]
    if nz.size == 0:
        raise ValidationError("band_limit_score requires at least one nonzero value")
    theta = np.angle(nz)
    r4 = float(np.abs(np.mean(np.exp(4j * theta))))
    r4 = min(r4, 1.0)
    return BandLimitScore(r4=r4, score=1.0 - r4)


def arg_histogram(values, bins: int):
    """Histogram of arguments of the nonzero values over [-pi, pi).

    Returns a list of (bin_center, count) pairs; the counts sum to the
    number of nonzero inputs.
    """
    if not 2 <= bins <= MAX_BINS:
        raise DomainError(f"bins must satisfy 2 <= bins <= {MAX_BINS}")
    vals = np.asarray(values, dtype=complex).ravel()
    nz = vals[vals != 0]
    if nz.size == 0:
        raise ValidationError("arg_histogram requires at least one nonzero value")
    theta = np.angle(nz)
    # np.angle returns (-pi, pi]; fold the single point pi onto -pi.
    theta = np.where(theta >= np.pi, theta - 2 * np.pi, theta)
    counts, edges = np.histogram(theta, bins=bins, range=(-np.pi, np.pi))
    centers = (edges[:-1] + edges[1:]) / 2.0
    return [(float(c), int(n)) for c, n in zip(centers, counts)]
