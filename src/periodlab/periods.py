"""Period integrals of hyperelliptic curves and Fermat closed forms.

Hyperelliptic periods are computed over a chain of loops: branch points
are sorted (by real part, then imaginary part) and the loop gamma_j
encircles the consecutive pair (b_j, b_j+1).  The period of
x^(k-1) dx / y over such a loop collapses to twice the segment integral

    2 * int_{b_j}^{b_j+1} x^(k-1) / sqrt(f(x)) dx,

evaluated with Gauss-Chebyshev quadrature after the cosine substitution
x = mid + half*cos(theta), which absorbs the inverse-square-root endpoint
singularities exactly.  The square-root branch is tracked continuously
along each segment from an anchor at the left endpoint.

One kernel, ``_chain_moments``, evaluates all 2g segments at once,
bit-identically to integrating them one at a time.  The node count starts
at ``nodes`` and doubles at least once, up to ``MAX_NODES``.

Sorting makes the chain simple: non-adjacent segments never meet (see
``_chain_segments``).  The only geometric refusal is therefore a branch
point closer than 1e-9 times the longest segment to a segment it does
not end, where the integrand would be nearly singular; the one rule,
``_refuse_on_segment``, also guards ``chebyshev_segment_integral``, with
|b - a| as the scale.

Each per-segment branch choice flips the orientation of its loop, so the
chain's intersection matrix E is tridiagonal with a sign s_j on each
off-diagonal.  The signs come from orientation tracking at the chain
junctions.  At the branch point c = b_j = a_j+1 shared by segments j and
j+1, let phi_j(c) be segment j's tracked branch continued to its right
end, phi_j+1(c) segment j+1's anchor value, and Delta the angle in
[0, 2 pi) from the ray toward a_j to the ray toward b_j+1.  Continuing
y ~ sqrt(f'(c) (x - c)) counter-clockwise between the two rays gives

    s_j = sign Re( phi_j+1(c) * conj(phi_j(c)) * exp(i Delta / 2) ),

and the argument is real up to quadrature error.  The Riemann bilinear
relations then certify E once: on the column-equilibrated table P the
identity P^T E^(-1) P = 0 must hold to ``BILINEAR_TOL`` and
-(i/2) P^T E^(-1) conj(P) must be positive definite.  Scaling the
differential basis leaves Omega and definiteness unchanged but keeps
small columns from hiding behind large ones.  An ambiguous junction or a
failed certificate raises NumericError.  Because E is a chain, the
symplectic basis has a closed form (the chain construction of Molin and
Neurohr, arXiv:1707.07249): on the loops c_0 .. c_2g-1,
alpha_i = sum_{k<=i} eps_ik c_2k with eps_ii = 1 and eps_ik the product
of s_2m s_2m+1 over k <= m < i, and beta_i = s_2i c_2i+1.  That change of
basis normalizes the table to a candidate period matrix Omega = B A^(-1).

Fermat periods use the classical closed form: on x^d + y^d = 1 the
integral of x^(r-1) y^(s-d) dx along the path x = t, y = (1-t^d)^(1/d)
from (0,1) to (1,0) equals B(r/d, s/d) / d, and the automorphism
translate (x, y) -> (zeta^a x, zeta^b y) multiplies it by zeta^(a*r+b*s).

A period file is one JSON object: ``entries``, the table as rows of
[re, im] pairs, ``g``, ``kind`` ("raw" or "normalized") and ``meta``.
Its bytes are fixed: the text of ``json.dumps(..., indent=2,
sort_keys=True)`` and a final newline, written without the pure-Python
encoder (``period_json_text``) and read back in one ``np.array`` call
(``curves.json_pairs``).
"""

from __future__ import annotations

import cmath
import contextlib
import itertools
import json
import math
import operator
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .curves import FermatCurve, HyperellipticCurve, json_int, json_pairs, read_json
from .errors import DomainError, NumericError, ValidationError

DEFAULT_NODES = 256
MAX_NODES = 8192
NODE_DOUBLING_TARGET = 1e-10
FERMAT_RANK_TOL = 1e-9
CONDITION_LIMIT = 1e10
# Residual threshold accepted for the bilinear identity on the
# column-equilibrated period table when certifying the intersection form.
BILINEAR_TOL = 1e-6


# ---------------------------------------------------------------------------
# Data types


@dataclass(frozen=True, eq=False)
class RawPeriodTable:
    """2g x g table of unnormalized cycle-by-differential integrals."""

    entries: np.ndarray
    quadrature_nodes: int
    est_error: float

    def __post_init__(self):
        n_cycles, n_diffs = self.entries.shape
        if n_cycles != 2 * n_diffs:
            raise ValidationError("raw period table must be 2g x g")
        if not (math.isfinite(self.est_error) and self.est_error >= 0):
            raise ValidationError("est_error must be finite and non-negative")

    @property
    def g(self) -> int:
        return self.entries.shape[1]

    @property
    def converged(self) -> bool:
        """Whether node doubling reached its target before the node limit."""
        return self.est_error <= NODE_DOUBLING_TARGET


@dataclass(frozen=True, eq=False)
class HomologyBasis:
    """Intersection data of the chain cycles.

    ``symplectic_transform`` T, rows of integers, satisfies T E T^T =
    [[0, I], [-I, 0]] exactly for the int64 intersection matrix E.
    ``bilinear_residual`` and ``positive_form_min_eig`` are the certificate
    of E against the periods (NaN when E was not certified).
    """

    intersection_matrix: np.ndarray
    symplectic_transform: Sequence[Sequence[int]]
    bilinear_residual: float = math.nan
    positive_form_min_eig: float = math.nan


@dataclass(frozen=True, eq=False)
class PeriodMatrix:
    g: int
    entries: np.ndarray
    provenance: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Segment quadrature


@contextlib.contextmanager
def _refuse_overflow():
    """Raise DomainError where float arithmetic overflows, divides by zero or turns invalid."""
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            yield
    except (FloatingPointError, OverflowError) as exc:
        raise DomainError(
            "branch points or leading coefficient too large or too small: "
            "the integrand overflows or underflows"
        ) from exc


def _chain_moments(roots, leading, segs, N: int, count: int):
    """Moments int_a^b x^(k-1) / sqrt(f(x)) dx, k = 1..count, of every segment (a, b).

    The one quadrature kernel, batched over segments: row j of each
    (segments x (N+2)) array is segment j sampled at a, at the N nodes and
    at b, and gets the per-element operations of a segment on its own, in
    the same order, so batching changes no bit.  phi is sqrt(-leading R(x)),
    R over the roots other than a and b in ``roots`` order, principal at a
    and continued sample to sample, as Chebyshev nodes keep consecutive
    roots within a quarter turn.  Returns the moments (pi/N) sum x^(k-1)/phi
    over the nodes and phi at each a and b, which orient the chain
    junctions.  Scratch space is a few complex arrays of segments x (N+2).
    An integrand beyond the float range raises DomainError.
    """
    others = [list(roots) for _ in segs]
    for other, (a, b) in zip(others, segs):
        other.remove(a)
        other.remove(b)
    theta = (2.0 * np.arange(1, N + 1) - 1.0) * np.pi / (2.0 * N)
    u = np.cos(theta)[::-1]  # ascending from near -1 to near +1
    with _refuse_overflow():
        grid = np.empty((len(segs), N + 2), dtype=complex)
        grid[:, 0], grid[:, -1] = zip(*segs)
        x = grid[:, 1:-1]
        np.multiply([[(b - a) / 2.0] for a, b in segs], u, out=x)
        x += [[(a + b) / 2.0] for a, b in segs]
        phi = np.full(grid.shape, -complex(leading))
        scratch = np.empty_like(grid)
        for e in np.array(others, dtype=complex).T:
            phi *= np.subtract(grid, e[:, None], out=scratch)
        # + 0j canonicalizes any -0.0 imaginary parts, which would otherwise
        # flip the principal branch cut of the square root
        phi += 0j
        np.sqrt(phi, out=phi)
        turn = np.conjugate(phi[:, :-1], out=scratch[:, 1:])
        np.multiply(phi[:, 1:], turn, out=turn)
        signs = np.ones(grid.shape)
        np.cumprod(np.where(turn.real < 0.0, -1.0, 1.0), axis=1, out=signs[:, 1:])
        phi *= signs
        inv_phi = np.divide(1.0, phi[:, 1:-1], out=scratch[:, 1:-1])
        moments = np.empty((len(segs), count), dtype=complex)
        for k in range(1, count + 1):
            # x ** 0 and x ** 1 are exactly ones and x, but cost a power each
            if k == 1:
                terms = inv_phi * (1 + 0j)
            elif k == 2:
                terms = x * inv_phi
            else:
                terms = x ** (k - 1)
                terms *= inv_phi
            moments[:, k - 1] = np.sum(terms, axis=-1)
        moments *= np.pi / N
    return moments, phi[:, 0].copy(), phi[:, -1].copy()


def _refuse_on_segment(points, a, b, scale: float) -> None:
    """Refuse a point of ``points`` within 1e-9 * scale of [a, b] that does not end it."""
    ab = b - a
    for e in points:
        if e != a and e != b:
            # complex division gives the projection without squaring |ab|, which could overflow
            t = min(1.0, max(0.0, ((e - a) / ab).real))
            if abs(e - (a + t * ab)) < 1e-9 * scale:
                raise ValidationError(
                    "a branch point lies on a chain segment; this branch-point "
                    "configuration is not supported"
                )


def chebyshev_segment_integral(
    poly_roots: Sequence[complex], k: int, a: complex, b: complex, N: int, leading: complex = 1.0
) -> complex:
    """int_a^b x^(k-1) / sqrt(f(x)) dx for f with the given roots.

    a and b must themselves be roots with no other root within
    1e-9 |b - a| of the segment; the endpoint singularities are absorbed
    by the cosine substitution and the square root uses the principal
    branch continued from x = a.
    """
    if a == b:
        raise DomainError("segment endpoints must differ")
    if k < 1:
        raise DomainError("k must be >= 1")
    if N < 4:
        raise DomainError("N must be >= 4")
    roots = [complex(r) for r in poly_roots]
    a, b = complex(a), complex(b)
    if a not in roots or b not in roots:
        raise DomainError("segment endpoints must be branch points of f")
    with _refuse_overflow():  # abs() overflows on a distance beyond the float range
        _refuse_on_segment(roots, a, b, abs(b - a))
    moments, _, _ = _chain_moments(roots, complex(leading), [(a, b)], N, k)
    return complex(moments[0, k - 1])


# ---------------------------------------------------------------------------
# Chain geometry


def _chain_segments(curve: HyperellipticCurve):
    """Sorted branch points and the 2g consecutive segments of the chain.

    The points are sorted by (Re, Im), so non-adjacent segments never
    meet.  Segment j spans Re in [x_j, x_j+1] and any segment l >= j+2
    starts at or right of x_j+1; the two can share only the vertical line
    x_j+1 = ... = x_l, where segment j reaches at most Im y_j+1 and
    segment l starts at Im y_l > y_j+1.  Two disjoint segments are closest
    at an endpoint of one of them, so a near-touch is always a branch
    point near a segment: that is the one configuration refused here,
    relative to the longest segment so that it does not depend on scale.
    """
    pts = sorted(curve.branch_points, key=lambda z: (z.real, z.imag))
    segs = [(pts[j], pts[j + 1]) for j in range(2 * curve.genus)]
    scale = max(abs(p - q) for p, q in segs)
    for p, q in segs:
        _refuse_on_segment(pts, p, q, scale)
    return pts, segs


# ---------------------------------------------------------------------------
# Intersection sign recovery and symplectic basis


def _tridiagonal_intersection(signs: Sequence[int]) -> np.ndarray:
    """The int64 chain matrix: s_j at (j, j+1) and -s_j at (j+1, j)."""
    n = len(signs) + 1
    E = np.zeros((n, n), dtype=np.int64)
    E.flat[1 :: n + 1] = signs
    return E - E.T


def _junction_signs(segs, anchors: np.ndarray, ends: np.ndarray) -> list[int]:
    """Off-diagonal intersection signs from the branches at each junction.

    ``anchors[j]`` and ``ends[j]`` are segment j's tracked branch values at
    its left and right endpoints (see the module docstring for the rule).
    """
    signs = []
    for j in range(len(segs) - 1):
        a, c = segs[j]
        b = segs[j + 1][1]
        delta = cmath.phase((b - c) / (a - c)) % (2.0 * math.pi)
        z = anchors[j + 1] * np.conj(ends[j]) * cmath.exp(0.5j * delta)
        if abs(z.real) < abs(z) / 2.0:
            raise NumericError(f"junction {j}: branch orientation is ambiguous")
        signs.append(1 if z.real > 0.0 else -1)
    return signs


def _choose_intersection_matrix(P: np.ndarray, segs, anchors, ends):
    """Intersection matrix from junction orientations, certified once.

    For the true intersection matrix E the column-equilibrated period
    table P satisfies P^T E^(-1) P = 0 up to quadrature error, and the
    Hermitian form -(i/2) P^T E^(-1) conj(P) is positive definite.
    Returns E, an int64 array, with the bilinear residual and the form's
    minimum eigenvalue.
    """
    E = _tridiagonal_intersection(_junction_signs(segs, anchors, ends))
    Pn = P / np.max(np.abs(P), axis=0)
    PtEinv = Pn.T @ np.linalg.inv(E.astype(float))
    residual = float(np.max(np.abs(PtEinv @ Pn)))
    H = -0.5j * (PtEinv @ np.conj(Pn))
    min_eig = float(np.linalg.eigvalsh((H + np.conj(H).T) / 2.0)[0])
    if not min_eig > 0.0:
        raise NumericError(
            f"period form is not positive definite (min eigenvalue {min_eig:.3e}); "
            "periods unreliable"
        )
    if not residual <= BILINEAR_TOL:
        raise NumericError(
            f"bilinear identity residual {residual:.3e} too large; periods unreliable"
        )
    return E, residual, min_eig


def symplectic_transform_from_intersection(E: Sequence[Sequence[int]]) -> list[list[int]]:
    """Integer T with T E T^T = [[0, I], [-I, 0]] for a chain intersection matrix E.

    E must be skew with signs s_j = E[j][j+1] in {1, -1} and zeros off the
    first diagonals.  Rows of T are alpha_0 .. alpha_g-1, beta_0 .. beta_g-1
    in the closed form of the module docstring, built from the signs: with
    eps = cumprod(1, s_0 s_1, s_2 s_3, ...), the alpha block on the even
    columns is tril(outer(eps, eps)), and beta_i is s_2i at column 2i + 1.
    For +-1 signs T is unimodular, so the one exact check T E T^T = J
    holds exactly when E is the chain of those signs.
    """
    try:
        E = np.asarray(E, dtype=np.int64)
    except ValueError:  # ragged rows
        E = np.empty(0)
    n = len(E)
    if E.ndim != 2 or n == 0 or n % 2 != 0 or E.shape[1] != n:
        raise ValidationError("intersection matrix must be square of positive even size")
    signs = E.diagonal(1).tolist()
    not_chain = "intersection matrix must be a skew chain with +-1 on the first off-diagonals"
    if not set(signs) <= {1, -1}:
        raise ValidationError(not_chain)
    g = n // 2
    pairs = map(operator.mul, signs[:-1:2], signs[1::2])  # s_0 s_1, s_2 s_3, ...
    eps = np.array([*itertools.accumulate(pairs, operator.mul, initial=1)])
    r = np.arange(g)
    T = np.zeros((n, n), dtype=np.int64)
    np.multiply.outer(eps, eps, out=T[:g, ::2], where=r[:, None] >= r)
    T.flat[g * n + 1 :: n + 2] = signs[::2]  # row g + i, column 2i + 1
    J = np.zeros((n, n), dtype=np.int64)
    J.flat[g : g * n : n + 1] = 1
    J.flat[g * n :: n + 1] = -1
    # bytes compare two C-ordered int64 arrays exactly, without a reduction's call cost
    if (T @ E @ T.T).tobytes() != J.tobytes():
        if (E != _tridiagonal_intersection(signs)).any():
            raise ValidationError(not_chain)
        raise NumericError("symplectic basis failed verification")
    return T.tolist()


# ---------------------------------------------------------------------------
# Hyperelliptic periods


def _chain_period_table(curve: HyperellipticCurve, segs, N: int):
    """Chain periods with each segment's branch values at both endpoints."""
    moments, anchors, ends = _chain_moments(
        curve.branch_points, curve.leading_coefficient, segs, N, curve.genus
    )
    return 2.0 * moments, anchors, ends


def hyperelliptic_raw_periods(
    curve: HyperellipticCurve, nodes: int = DEFAULT_NODES
) -> tuple[RawPeriodTable, HomologyBasis]:
    """Raw chain periods of y^2 = f(x), with node-doubling error control.

    The node count starts at ``nodes`` and doubles until the maximum entry
    change is below ``NODE_DOUBLING_TARGET`` or ``MAX_NODES`` is reached;
    the final discrepancy is recorded as ``est_error`` either way, and
    ``converged`` says which.  It doubles at least once, so ``nodes`` may
    be at most ``MAX_NODES // 2``.
    """
    if nodes < 4:
        raise DomainError("nodes must be >= 4")
    if nodes > MAX_NODES // 2:
        raise DomainError(f"nodes must be <= {MAX_NODES // 2}: node doubling stops at {MAX_NODES}")
    with _refuse_overflow():  # abs() in the chain geometry, and the doubling arithmetic
        _, segs = _chain_segments(curve)
        N = nodes
        P, _, _ = _chain_period_table(curve, segs, N)
        while True:
            P2, anchors, ends = _chain_period_table(curve, segs, 2 * N)
            err = float(np.max(np.abs(P2 - P)))
            N *= 2
            P = P2
            if err <= NODE_DOUBLING_TARGET or 2 * N > MAX_NODES:
                break
    E, residual, min_eig = _choose_intersection_matrix(P, segs, anchors, ends)
    hom = HomologyBasis(E, symplectic_transform_from_intersection(E), residual, min_eig)
    return RawPeriodTable(entries=P, quadrature_nodes=N, est_error=err), hom


def normalize(raw: RawPeriodTable, hom: HomologyBasis) -> PeriodMatrix:
    """Normalized period matrix Omega = B A^(-1) in the symplectic basis.

    A and B are the alpha- and beta-blocks of the symplectically
    transformed table; Omega is the matrix of beta-periods of the
    differential basis dual to the alpha-cycles.
    """
    g = raw.g
    T = np.array(hom.symplectic_transform, dtype=float)
    if T.shape != (2 * g, 2 * g):
        raise ValidationError("symplectic transform size does not match the table")
    TP = T @ raw.entries
    A = TP[:g]
    B = TP[g:]
    cond = float(np.linalg.cond(A))
    if not math.isfinite(cond) or cond > CONDITION_LIMIT:
        raise NumericError(f"A-block condition number {cond:.3e} exceeds {CONDITION_LIMIT:.1e}")
    omega = np.linalg.solve(A.T, B.T).T
    return PeriodMatrix(g=g, entries=omega, provenance={"a_block_condition": cond})


# ---------------------------------------------------------------------------
# Beta function and Fermat closed forms


def beta_function(x: float, y: float) -> float:
    """Euler Beta via log-gamma; relative error at the 1e-12 level."""
    if x <= 0 or y <= 0:
        raise DomainError("beta_function requires positive arguments")
    return math.exp(math.lgamma(x) + math.lgamma(y) - math.lgamma(x + y))


def fermat_period_closed_form(d: int, r: int, s: int, a: int, b: int) -> complex:
    """Integral of x^(r-1) y^(s-d) dx over the (a, b) translate of the
    fundamental path on x^d + y^d = 1."""
    magnitude = beta_function(r / d, s / d) / d
    phase = 2.0 * math.pi * ((a * r + b * s) % d) / d
    return magnitude * complex(math.cos(phase), math.sin(phase))


@dataclass(frozen=True, eq=False)
class FermatPeriodTable:
    """Closed-form periods: row i over the path translate ``cycles[i]``,
    column j for the differential ``FermatCurve.diff_exponents[j]``."""

    cycles: tuple[tuple[int, int], ...]
    entries: np.ndarray

    @property
    def g(self) -> int:
        return self.entries.shape[1]


def fermat_raw_periods(d: int) -> FermatPeriodTable:
    """Period table of the degree-d Fermat curve over 2g selected cycles.

    Candidate rows are the d^2 automorphism translates of the fundamental
    path, in lexicographic (a, b) order; a translate is accepted when it
    increases the real rank (complex rows viewed as vectors in R^(2g))
    by more than ``FERMAT_RANK_TOL`` relative to the row norm, until 2g rows
    are collected.
    """
    if not 4 <= d <= 15:
        raise DomainError("Fermat degree must satisfy 4 <= d <= 15")
    curve = FermatCurve(d)
    exps = curve.diff_exponents
    g = curve.genus
    entries = []
    cycles = []
    ortho: list[np.ndarray] = []
    for a, b in itertools.product(range(d), repeat=2):
        row = np.array(
            [fermat_period_closed_form(d, r, s, a, b) for r, s in exps], dtype=complex
        )
        vec = np.concatenate([row.real, row.imag])
        norm = float(np.linalg.norm(vec))
        resid = vec.copy()
        for q in ortho:
            resid -= np.dot(q, resid) * q
        if float(np.linalg.norm(resid)) > FERMAT_RANK_TOL * norm:
            ortho.append(resid / np.linalg.norm(resid))
            entries.append(row)
            cycles.append((a, b))
            if len(entries) == 2 * g:
                break
    if len(entries) != 2 * g:
        raise NumericError("could not select 2g independent Fermat cycles")
    return FermatPeriodTable(cycles=tuple(cycles), entries=np.array(entries, dtype=complex))


# ---------------------------------------------------------------------------
# Period table files


# JSON's spellings of the floats whose Python repr is nan, inf or -inf.
_JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _period_kind(kind) -> str:
    if kind not in ("raw", "normalized"):
        raise ValidationError("kind must be 'raw' or 'normalized'")
    return kind


def _file_template(rows: int, cols: int) -> str:
    """A rows x cols period file's text up to its ``g`` field, one ``%s`` per float.

    It is what ``json.dumps(..., indent=2, sort_keys=True)`` writes for the
    object's first key, ``entries``: rows of [re, im] pairs, every list
    broken over lines at two spaces per level, and ``[]`` for an empty one.
    Building it takes a few microseconds at g <= 8, under 1% of a write, so
    it is not cached: a cached template of a g = 1024 table would hold 40 MB.
    """
    pair = "[\n        %s,\n        %s\n      ]"
    row = "[\n      " + ",\n      ".join([pair] * cols) + "\n    ]" if cols else "[]"
    body = "[\n    " + ",\n    ".join([row] * rows) + "\n  ]" if rows else "[]"
    return '{\n  "entries": ' + body + ","


def period_json_text(entries: np.ndarray, kind: str, meta: dict) -> str:
    """The text of a period file: sorted keys, two-space indent, final newline.

    The entries are written through ``_file_template`` with each float's
    shortest repr (JSON's ``NaN``, ``Infinity`` and ``-Infinity`` for the
    non-finite ones); only the head (``g``, ``kind``, ``meta``) goes
    through ``json.dumps``.  The text is byte for byte what
    ``json.dumps(..., indent=2, sort_keys=True)`` gives the whole object.
    """
    values = np.ascontiguousarray(entries, dtype=complex)
    rows, g = values.shape
    head = json.dumps({"g": g, "kind": _period_kind(kind), "meta": meta}, indent=2, sort_keys=True)
    floats = values.view(float).ravel().tolist()
    tokens = repr(floats)[1:-1].split(", ") if floats else []
    if not np.isfinite(values).all():
        tokens = [_JSON_NONFINITE.get(t, t) for t in tokens]
    return _file_template(rows, g) % tuple(tokens) + head[1:] + "\n"


def dict_to_table(data: dict) -> tuple[np.ndarray, str, dict]:
    if not isinstance(data, dict):
        raise ValidationError("a period file must hold a JSON object")
    for key in ("g", "kind", "entries"):
        if key not in data:
            raise ValidationError(f"period file missing field {key!r}")
    g = json_int(data["g"], "period file field 'g'")
    rows = data["entries"]
    if not isinstance(rows, list) or any(
        not isinstance(row, list) or len(row) != len(rows[0]) for row in rows
    ):
        raise ValidationError("period file entries must be rows of [re, im] pairs")
    entries = json_pairs(list(itertools.chain.from_iterable(rows)), "each period file entry")
    if not rows or len(rows[0]) != g:
        raise ValidationError("period file entries do not match the declared genus")
    return entries.reshape(len(rows), g), _period_kind(data["kind"]), data.get("meta", {})


def load_period_json(path) -> tuple[np.ndarray, str, dict]:
    return dict_to_table(read_json(path))
