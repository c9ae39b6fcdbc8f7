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
bit-identically to integrating them one at a time, in one complex block of
4 x 2g x (N+2) values, so that curve after curve reuses the same heap
memory.  The node count starts at ``nodes`` and doubles at least once, up
to ``MAX_NODES``.

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
failed certificate raises NumericError.  ``normalize`` takes E as any
unimodular skew integer form, which ``symplectic_transform_from_intersection``
reduces to a symplectic basis, and refuses an Omega = B A^(-1) outside H_g.

Fermat periods use the classical closed form: on x^d + y^d = 1 the
integral of x^(r-1) y^(s-d) dx along the path x = t, y = (1-t^d)^(1/d)
from (0,1) to (1,0) equals B(r/d, s/d) / d, and the automorphism
translate (x, y) -> (zeta^a x, zeta^b y) multiplies it by zeta^(a*r+b*s).
The table's rows are the closed set of translates 0 <= a <= d-3,
0 <= b <= d-2 (``FermatCurve.cycles``), a Z-basis of the translates'
lattice.  Their intersection form is not derived yet, so the Fermat table
is only ever raw.

Every stage returns a ``PeriodMatrix`` whose ``provenance`` is the
``meta`` of its period file: ``hyperelliptic_raw_periods`` the raw table,
with E beside it; ``fermat_raw_periods`` the raw table; ``normalize``
Omega, with the raw meta plus ``a_block_condition`` and the raw table as
``raw``.  ``period_matrix(curve, nodes, kind)`` runs either family's
stages.  The file is one JSON object: ``entries``, the table as rows of
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

from . import curves, siegel
from .curves import FermatCurve, HyperellipticCurve, json_int, json_pairs, read_json
from .errors import DomainError, NumericError, ValidationError

DEFAULT_NODES = 256
MAX_NODES = 8192
NODE_DOUBLING_TARGET = 1e-10
CONDITION_LIMIT = 1e10
# Residual threshold accepted for the bilinear identity on the
# column-equilibrated period table when certifying the intersection form.
BILINEAR_TOL = 1e-6


# ---------------------------------------------------------------------------
# Data types


@dataclass(frozen=True, eq=False)
class PeriodMatrix:
    """A raw 2g x g table or a g x g Omega, with its period file's meta as ``provenance``."""

    entries: np.ndarray
    provenance: dict = field(default_factory=dict)
    kind: str = "normalized"  # or "raw"
    raw: PeriodMatrix | None = None  # the raw table of an Omega from normalize

    @property
    def g(self) -> int:
        return self.entries.shape[1]


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


def _nodes(plane: np.ndarray, N: int) -> np.ndarray:
    """A C-contiguous (rows x N) view on the start of a (rows x (N+2)) plane."""
    return plane.reshape(-1)[: len(plane) * N].reshape(len(plane), N)


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
    junctions.  An integrand beyond the float range raises DomainError.

    Memory: the grid, phi, their scratch space (the branch signs in its
    real parts, then 1/phi) and the nodes are one complex
    (4, segments, N+2) block.  The nodes and 1/phi are C-contiguous
    (segments x N) views, so the moment loop's ufuncs allocate only their
    result, without numpy's iteration buffers, and each term array is freed
    before the next is made.  The buffers of the 2-D strided steps before
    the loop (at most three of min(8192, segments x (N+1)) elements) fit
    in three quarters of the block, so a call's transient memory stays
    under glibc's heap-trim threshold of twice the largest block it has
    freed: the heap is not trimmed after one curve and faulted back in for
    the next.
    """
    endpoints = np.array(segs, dtype=complex)
    a, b = endpoints.T
    points = np.array(roots, dtype=complex)
    # drop the first root equal to a and the first equal to b, as list.remove would
    keep = np.ones((len(segs), len(points)), dtype=bool)
    first = np.argmax(points == endpoints[:, :, None], axis=-1)
    keep[np.arange(len(segs))[:, None], first] = False
    others = np.broadcast_to(points, keep.shape)[keep].reshape(len(segs), -1)
    theta = (2.0 * np.arange(1, N + 1) - 1.0) * np.pi / (2.0 * N)
    u = np.cos(theta)[::-1]  # ascending from near -1 to near +1
    with _refuse_overflow():
        block = np.empty((4, len(segs), N + 2), dtype=complex)
        grid, phi, scratch = block[:3]
        x = _nodes(block[3], N)
        np.multiply(((b - a) / 2.0)[:, None], u, out=x)
        x += ((a + b) / 2.0)[:, None]
        grid[:, 0], grid[:, 1:-1], grid[:, -1] = a, x, b
        phi.fill(-complex(leading))
        for e in others.T:
            phi *= np.subtract(grid, e[:, None], out=scratch)
        # + 0j canonicalizes any -0.0 imaginary parts, which would otherwise
        # flip the principal branch cut of the square root
        phi += 0j
        np.sqrt(phi, out=phi)
        turn = np.conjugate(phi[:, :-1], out=scratch[:, 1:])
        np.multiply(phi[:, 1:], turn, out=turn)
        signs = scratch.real  # overwrites turn, which np.where reads first
        signs[:, 0] = 1.0
        np.cumprod(np.where(turn.real < 0.0, -1.0, 1.0), axis=1, out=signs[:, 1:])
        phi *= signs
        inv_phi = np.divide(1.0, phi[:, 1:-1], out=_nodes(scratch, N))
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
            del terms  # freed before the next term array is made
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
    Returns E, an int64 array, and its certificate as period-file meta:
    ``bilinear_residual`` and the form's minimum eigenvalue,
    ``positive_form_min_eig``.
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
    return E, {"bilinear_residual": residual, "positive_form_min_eig": min_eig}


def symplectic_transform_from_intersection(E: Sequence[Sequence[int]]) -> list[list[int]]:
    """Integer T with T E T^T = J = [[0, I], [-I, 0]] for any unimodular skew integer E.

    Symplectic Gram-Schmidt over Z, <x, y> = x E y^T: e is the first remaining
    cycle, f the first with <e, f> = +-1 (after a Euclid step if none; never on
    a chain) signed to +1, and every other x becomes x - <x, f> e + <x, e> f.
    T is the e's over the f's.  Every T returned has passed the exact int64
    check T E T^T = J; a T too large for it, or one that fails it, raises
    NumericError (exit 4).  The check is exact while M = max(|T| |E| |T|^T)
    < 2^63: M bounds every partial sum of (T E) T^T and, as every column of
    a unimodular T has a nonzero entry, every partial sum of T E (a zero
    column of T multiplies its column of T E by zeros).  M is summed in
    float64, whose rounding is far below a factor of 2, so T is refused from
    M >= 2^62.  An E that is not square of even size, integer, skew,
    nondegenerate and unimodular raises ValidationError (exit 3).
    """
    try:
        E = np.asarray(E)
    except ValueError:  # ragged rows
        E = np.empty(0)
    n = len(E)
    if E.ndim != 2 or n == 0 or n % 2 != 0 or E.shape[1] != n:
        raise ValidationError("intersection matrix must be square of positive even size")
    if E.dtype.kind not in "biu" or E.dtype == np.uint64 and E.max() > np.iinfo(np.int64).max:
        raise ValidationError("intersection matrix entries must be integers within int64")
    E = E.astype(np.int64, copy=False)
    top = max(int(E.max()), -int(E.min()))
    if top > np.iinfo(np.int64).max or (E != -E.T).any():  # no skew int64 E holds -2^63
        raise ValidationError("intersection matrix must be skew")
    g, T, R = n // 2, np.empty((n, n), dtype=np.int64), np.eye(n, dtype=np.int64)
    for i in range(g):
        e = T[i] = R[R.any(axis=1).argmax()]  # the rows of the cycles taken are 0
        d = R @ (e @ E)  # <e, x> for each row x
        while not (unit := np.abs(d) == 1).any():  # the Euclid step
            nonzero = np.flatnonzero(d)
            if nonzero.size < 2:
                raise ValidationError("intersection form is degenerate or not unimodular")
            k = nonzero[np.argmin(np.abs(d[nonzero]))]
            q = d // d[k]
            q[k] = 0
            R, d = R - np.multiply.outer(q, R[k]), d - q * d[k]
        j = unit.argmax()
        f = T[g + i] = R[j] * d[j]
        # x - <x, f> e + <x, e> f, as <x, e> = -d: this takes the rows of e and f to 0
        R -= np.multiply.outer(R @ (E @ f), e) + np.multiply.outer(d, f)
    A = np.abs(T.astype(float))
    if (A @ np.abs(E.astype(float)) @ A.T).max() >= 2.0**62:
        raise NumericError("symplectic basis would leave int64")
    if (T @ E @ T.T != np.eye(n, k=g, dtype=np.int64) - np.eye(n, k=-g, dtype=np.int64)).any():
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


def check_nodes(nodes: int) -> int:
    """``nodes`` as an int if it is a valid first node count, else DomainError."""
    try:
        nodes = operator.index(nodes)
    except TypeError:
        raise DomainError("nodes must be an integer") from None
    if nodes < 4:
        raise DomainError("nodes must be >= 4")
    if nodes > MAX_NODES // 2:
        raise DomainError(f"nodes must be <= {MAX_NODES // 2}: node doubling stops at {MAX_NODES}")
    return nodes


def hyperelliptic_raw_periods(
    curve: HyperellipticCurve, nodes: int = DEFAULT_NODES
) -> tuple[PeriodMatrix, np.ndarray]:
    """The raw chain table of y^2 = f(x) and its certified int64 intersection matrix E.

    The node count starts at ``nodes`` and doubles until the maximum entry
    change is below ``NODE_DOUBLING_TARGET`` or ``MAX_NODES`` is reached;
    the final discrepancy is recorded as ``est_error`` either way, and
    ``converged`` says which.  It doubles at least once, so ``nodes`` may
    be at most ``MAX_NODES // 2``.  The table's ``provenance`` is the raw
    file's meta: ``curve``, ``nodes``, ``est_error``, ``converged`` and E's
    certificate, ``bilinear_residual`` and ``positive_form_min_eig``.
    """
    N = check_nodes(nodes)
    meta = {"curve": curves.curve_to_dict(curve)}  # refuses a curve of another model
    with _refuse_overflow():  # abs() in the chain geometry, and the doubling arithmetic
        _, segs = _chain_segments(curve)
        P, _, _ = _chain_period_table(curve, segs, N)
        while True:
            P2, anchors, ends = _chain_period_table(curve, segs, 2 * N)
            err = float(np.max(np.abs(P2 - P)))
            N *= 2
            P = P2
            if err <= NODE_DOUBLING_TARGET or 2 * N > MAX_NODES:
                break
    E, certificate = _choose_intersection_matrix(P, segs, anchors, ends)
    meta.update(nodes=N, est_error=err, converged=err <= NODE_DOUBLING_TARGET, **certificate)
    return PeriodMatrix(P, meta, kind="raw"), E


def normalize(raw: PeriodMatrix, E: Sequence[Sequence[int]]) -> PeriodMatrix:
    """Period matrix Omega = B A^(-1) of a raw table, refused with NumericError unless in H_g.

    E is the 2g x 2g intersection matrix of the table's cycles, any
    unimodular skew integer form; A and B are the alpha- and beta-blocks of
    the table in the symplectic basis that
    ``symplectic_transform_from_intersection`` reduces from E.  Omega is the
    matrix of beta-periods of the differential basis dual to the alpha-cycles.
    It carries ``raw``, and its provenance is the raw table's plus
    ``a_block_condition``.  A table that is not 2g x g, or an E of another
    size, raises ValidationError.
    """
    cycles, g = raw.entries.shape
    if cycles != 2 * g:
        raise ValidationError("raw period table must be 2g x g")
    if len(E) != 2 * g:
        raise ValidationError("intersection matrix size does not match the table")
    T = np.array(symplectic_transform_from_intersection(E), dtype=float)
    A, B = np.split(T @ raw.entries, 2)
    cond = float(np.linalg.cond(A))
    if not math.isfinite(cond) or cond > CONDITION_LIMIT:
        raise NumericError(f"A-block condition number {cond:.3e} exceeds {CONDITION_LIMIT:.1e}")
    omega = np.linalg.solve(A.T, B.T).T
    check = siegel.validate_siegel(omega)
    if not check.is_member:
        raise NumericError(
            "normalized period matrix is not in the Siegel upper half-space (symmetry residual "
            f"{check.symmetry_residual:.3e}, min Im eigenvalue {check.min_im_eigenvalue:.3e})"
        )
    return PeriodMatrix(omega, {**raw.provenance, "a_block_condition": cond}, raw=raw)


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


def fermat_raw_periods(d: int) -> PeriodMatrix:
    """Raw period table of the degree-d Fermat curve over its closed cycle set.

    The rows are the path translates ``FermatCurve(d).cycles``, (a, b) with
    0 <= a <= d-3 and 0 <= b <= d-2 in lexicographic order: (d-1)(d-2) = 2g
    cycles; a closed form has 0 nodes and an error estimate of 0.0.  The
    translates of one cycle generate H_1 of the Fermat curve (Rohrlich,
    appendix to Gross, Invent. Math. 44, 1978), and closing the path into
    that cycle only scales column (r, s) by (1 - zeta^r)(1 - zeta^s).  Row
    (a, b) is zeta^(a*r+b*s) times row (0, 0), and r, s and r+s are nonzero
    mod d, so the sums of the translates over a, over b and over a = b
    shifts vanish.  These relations write every one of the d^2 translates
    as a combination of this set with coefficients in {-1, 0, 1}; the set
    has full real rank 2g, so it is a Z-basis of the translates' lattice.
    """
    if not 4 <= d <= curves.MAX_FERMAT_DEGREE:
        raise DomainError(f"Fermat degree must satisfy 4 <= d <= {curves.MAX_FERMAT_DEGREE}")
    curve = FermatCurve(d)
    exps = curve.diff_exponents
    entries = [[fermat_period_closed_form(d, r, s, a, b) for r, s in exps] for a, b in curve.cycles]
    meta = {
        "curve": curves.curve_to_dict(curve),
        "row_labels": [list(c) for c in curve.cycles],
        "col_labels": [list(e) for e in exps],
        "nodes": 0,
        "est_error": 0.0,
    }
    return PeriodMatrix(np.array(entries, dtype=complex), meta, kind="raw")


# ---------------------------------------------------------------------------
# Period tables and their files


def period_matrix(curve, nodes: int = DEFAULT_NODES, kind: str = "normalized") -> PeriodMatrix:
    """The table of ``curve`` that a period file of ``kind`` holds, its meta as ``provenance``.

    ``nodes`` must pass ``check_nodes`` for both families.  A Fermat curve gives
    its raw table for either kind.  A hyperelliptic curve goes raw -> certificate
    -> symplectic basis -> Omega -> Siegel check; ``kind="raw"`` stops before
    ``normalize``.  A curve of any other model raises ValidationError.
    """
    check_nodes(nodes)
    _period_kind(kind)
    if isinstance(curve, FermatCurve):
        return fermat_raw_periods(curve.degree)
    raw, E = hyperelliptic_raw_periods(curve, nodes)
    return raw if kind == "raw" else normalize(raw, E)


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
    kind = _period_kind(data["kind"])
    if kind == "normalized" and len(rows) != g:
        raise ValidationError("a normalized period file must hold g x g entries")
    if kind == "raw" and len(rows) != 2 * g:
        raise ValidationError("a raw period file must hold 2g x g entries")
    return entries.reshape(len(rows), g), kind, data.get("meta", {})


def load_period_json(path) -> tuple[np.ndarray, str, dict]:
    return dict_to_table(read_json(path))
