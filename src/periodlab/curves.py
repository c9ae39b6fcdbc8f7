"""Curve models and their holomorphic-differential index bookkeeping.

Three concrete models are supported:

* ``HyperellipticCurve``: y^2 = f(x) given by the roots of f.  The
  differential basis is the standard one, zeta_k = x^(k-1) dx / y for
  k = 1..g.

* ``PlaneCurveModel``: a smooth plane curve of degree d in {4, 5}.  Only
  the combinatorics matter here: the differential basis is identified
  with the monomials of total degree d-3 in three variables, and the
  quadratic-differential space with the monomials of degree 2(d-3).
  For d in {4, 5} the latter space has dimension exactly 3g-3, with no
  quotient by the defining equation, so the model carries no
  coefficients at all, and no curve file describes one: curve files
  hold the curves with period tables (``curve_from_dict``).

* ``FermatCurve``: x^d + y^d = 1 (degree-d Fermat, affine model).  The
  differential basis is indexed by pairs (r, s) with r, s >= 1 and
  r + s <= d - 1, the rows of its period table by the translates ``cycles``.

Monomials are ordered by graded reverse lexicographic order with
x > y > z (for degree 2 this reads x^2, xy, y^2, xz, yz, z^2); the
ordering is fixed so every downstream index is reproducible.
"""

from __future__ import annotations

import cmath
import contextlib
import itertools
import json
import math
from dataclasses import dataclass, field
from typing import Sequence, Union

import numpy as np

from .errors import DomainError, ValidationError

Monomial = tuple[int, int, int]

# Largest genus the commands that allocate g x g arrays accept.
MAX_GENUS = 1024
MAX_FERMAT_DEGREE = 15  # the largest Fermat degree with a period table


def monomials_of_degree(n: int) -> list[Monomial]:
    """Exponent triples (i, j, k) with i+j+k = n, in grevlex order (x>y>z)."""
    out = [(i, j, n - i - j) for i in range(n, -1, -1) for j in range(n - i, -1, -1)]
    out.sort(key=lambda e: (e[2], e[1]))
    return out


@dataclass(frozen=True)
class HyperellipticCurve:
    """y^2 = leading_coefficient * prod (x - e) over the branch points e."""

    branch_points: tuple[complex, ...]
    leading_coefficient: complex = 1.0

    def __init__(self, branch_points: Sequence[complex], leading_coefficient: complex = 1.0):
        pts = tuple(complex(b) for b in branch_points)
        if not all(cmath.isfinite(z) for z in pts + (complex(leading_coefficient),)):
            raise ValidationError("branch points and leading coefficient must be finite")
        if len(pts) < 3:
            raise ValidationError("hyperelliptic curve needs deg f >= 3 (genus >= 1)")
        if len(set(pts)) < len(pts):  # equal complex values hash equal: 0j and -0j collide
            raise ValidationError("branch points must be pairwise distinct (f squarefree)")
        if complex(leading_coefficient) == 0:
            raise ValidationError("leading coefficient must be nonzero")
        object.__setattr__(self, "branch_points", pts)
        object.__setattr__(self, "leading_coefficient", complex(leading_coefficient))

    @property
    def genus(self) -> int:
        return math.ceil(len(self.branch_points) / 2) - 1


@dataclass(frozen=True)
class PlaneCurveModel:
    """Combinatorial model of a smooth plane curve of degree 4 or 5."""

    degree: int
    diff_monomials: tuple[Monomial, ...] = field(init=False)
    quad_monomials: tuple[Monomial, ...] = field(init=False)

    def __post_init__(self):
        d = self.degree
        if d not in (4, 5):
            raise ValidationError("plane model degree must be 4 or 5")
        object.__setattr__(self, "diff_monomials", tuple(monomials_of_degree(d - 3)))
        object.__setattr__(self, "quad_monomials", tuple(monomials_of_degree(2 * (d - 3))))

    @property
    def genus(self) -> int:
        return (self.degree - 1) * (self.degree - 2) // 2


@dataclass(frozen=True)
class FermatCurve:
    """Degree-d Fermat curve, 4 <= d <= ``MAX_FERMAT_DEGREE``."""

    degree: int

    def __post_init__(self):
        if not 4 <= self.degree <= MAX_FERMAT_DEGREE:
            raise ValidationError(f"Fermat degree must satisfy 4 <= d <= {MAX_FERMAT_DEGREE}")

    @property
    def diff_exponents(self) -> tuple[tuple[int, int], ...]:
        d = self.degree
        return tuple((r, s) for r in range(1, d - 1) for s in range(1, d - r))

    @property
    def cycles(self) -> tuple[tuple[int, int], ...]:
        """The path translates (a, b) of the period table's rows, in lexicographic order."""
        return tuple(itertools.product(range(self.degree - 2), range(self.degree - 1)))

    @property
    def genus(self) -> int:
        return (self.degree - 1) * (self.degree - 2) // 2


CurveModel = Union[HyperellipticCurve, FermatCurve]


def moduli_count(g: int) -> int:
    """Dimension 3g-3 of the moduli space, defined for g >= 2."""
    if g < 2:
        raise DomainError("moduli_count requires g >= 2")
    return 3 * g - 3


def period_count(g: int) -> int:
    """Number g(g+1)/2 of independent period-matrix entries."""
    if g < 1:
        raise DomainError("period_count requires g >= 1")
    return g * (g + 1) // 2


# ---------------------------------------------------------------------------
# Curve description files


def curve_to_dict(curve: CurveModel) -> dict:
    if isinstance(curve, HyperellipticCurve):
        return {
            "type": "hyperelliptic",
            "branch_points": [[b.real, b.imag] for b in curve.branch_points],
            "leading": [curve.leading_coefficient.real, curve.leading_coefficient.imag],
        }
    if isinstance(curve, FermatCurve):
        return {"type": "fermat", "degree": curve.degree}
    raise ValidationError(f"unknown curve model: {type(curve).__name__}")


def read_json(path):
    """The JSON value in ``path``; ValidationError for non-UTF-8 bytes, bad
    syntax, an integer beyond Python's digit limit or too deep nesting."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except (ValueError, RecursionError) as exc:
            raise ValidationError(f"malformed JSON input: {exc}") from exc


def json_int(value, name: str) -> int:
    """``value`` if it is a JSON integer; else ValidationError naming ``name``."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(f"{name} must be an integer")
    return value


# The Python types of JSON numbers; bool, an int subclass, is not one.
_JSON_NUMBERS = (int, float)


def json_pairs(values: list, name: str) -> np.ndarray:
    """The complex numbers of a list of JSON pairs [re, im], as one 1-D array.

    Every pair must be a list of two JSON numbers, exactly ``int`` or
    ``float``; anything else is a ValidationError naming ``name``: a list
    of another length, a boolean (which Python counts as an int) or an
    integer beyond the float range.  The numbers are converted in one
    ``np.array`` call, with the rounding of ``complex(re, im)``.
    """
    if all(
        type(z) is list
        and len(z) == 2
        and type(z[0]) in _JSON_NUMBERS
        and type(z[1]) in _JSON_NUMBERS
        for z in values
    ):
        with contextlib.suppress(OverflowError):
            return np.array(values, dtype=float).view(complex).ravel()
    raise ValidationError(f"{name} must be an [re, im] pair")


def curve_from_dict(data: dict) -> CurveModel:
    """Parse a ``hyperelliptic`` or ``fermat`` description, refusing violations by name."""
    if not isinstance(data, dict) or "type" not in data:
        raise ValidationError("curve description must be an object with a 'type' field")
    kind = data["type"]
    if kind == "hyperelliptic":
        if "branch_points" not in data:
            raise ValidationError("hyperelliptic description requires 'branch_points'")
        points = data["branch_points"]
        if not isinstance(points, list):
            raise ValidationError("branch_points must be [re, im] pairs")
        pts = json_pairs(points, "each branch point")
        leading = json_pairs([data.get("leading", [1.0, 0.0])], "leading")[0]
        return HyperellipticCurve(pts, leading)
    if kind == "fermat":
        if "degree" not in data:
            raise ValidationError("fermat description requires 'degree'")
        return FermatCurve(json_int(data["degree"], "degree"))
    raise ValidationError(f"unknown curve type {kind!r}")


def load_curve(path) -> CurveModel:
    return curve_from_dict(read_json(path))


BUNDLED_CURVES = {
    # genus 1, lemniscatic: y^2 = x^3 - x
    "g1_lemniscatic": HyperellipticCurve([-1.0, 0.0, 1.0]),
    # genus 2 with complex branch points: y^2 = x^5 - 1
    "g2_x5_minus_1": HyperellipticCurve(
        [complex(math.cos(2 * math.pi * k / 5), math.sin(2 * math.pi * k / 5)) for k in range(5)]
    ),
    # genus 2, all-real branch points: y^2 = x(x-1)(x-2)(x-3)(x-4)
    "g2_real_quintic": HyperellipticCurve([0.0, 1.0, 2.0, 3.0, 4.0]),
    # genus 3, all-real branch points: y^2 = x(x-1)...(x-6)
    "g3_real_septic": HyperellipticCurve([float(k) for k in range(7)]),
    # Fermat curves x^d + y^d = 1 (genus 3, 6, 45)
    "fermat_d4": FermatCurve(4),
    "fermat_d5": FermatCurve(5),
    "fermat_d11": FermatCurve(11),
}


def bundled_curve(name: str) -> CurveModel:
    try:
        return BUNDLED_CURVES[name]
    except KeyError:
        raise ValidationError(
            f"unknown bundled curve {name!r}; available: {sorted(BUNDLED_CURVES)}"
        ) from None
