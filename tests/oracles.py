"""Independent oracles used by the test suite.

Everything here is deliberately implemented through a different route
than the library code it checks: the arithmetic-geometric mean for
complete elliptic integrals, Gauss-Jacobi quadrature for Fermat path
integrals, cofactor expansion for exact determinants, an exhaustive
search over every chain intersection sign pattern, a general integer
lattice reduction for the symplectic basis of an intersection form,
exact rational orientation tests for segment intersection, and the
paper's displayed expression written out from its formula.

Four references take the same route on purpose, kept verbatim so that
the code that replaced them can be required to reproduce them: the
per-segment chain quadrature loop (bit for bit), the elimination mod a
prime that allocated block-sized temporaries at every column (rank for
rank), the span assembly through an integer matrix product with a
0/1 scatter matrix (entry for entry, up to the new column order), and
the period-file encoder through ``json.dumps`` and per-pair decoder
(byte for byte, bit for bit and refusal for refusal).
"""

from __future__ import annotations

import contextlib
import itertools
import json
import math
from fractions import Fraction

import numpy as np
from scipy.special import roots_jacobi

from periodlab.errors import ValidationError


def agm(a: float, b: float) -> float:
    """Arithmetic-geometric mean of two positive reals.

    Quadratic convergence reaches machine precision in well under 30
    iterations; the iteration cap guards against a one-ulp oscillation
    once a and b are adjacent floats.
    """
    for _ in range(30):
        if a == b:
            break
        a, b = (a + b) / 2.0, (a * b) ** 0.5
    return a


def elliptic_K(k: float) -> float:
    """Complete elliptic integral of the first kind via the AGM."""
    return np.pi / (2.0 * agm(1.0, (1.0 - k * k) ** 0.5))


def displayed_expression(g: int) -> float:
    """The paper's displayed expression (3g-3) * 16^-(3g-3) at genus g >= 2.

    It is the paper's formula, not a probability this experiment measures:
    acceptance criterion 6 requires the quintic success rate to clear it.
    Evaluated as ``k * 16.0 ** -k``: 1.3010426069826053e-17 at g = 6.
    """
    k = 3 * g - 3
    return k * 16.0 ** -k


def fermat_path_integral(d: int, r: int, s: int, n: int = 200) -> float:
    """Quadrature of x^(r-1) (1 - x^d)^((s-d)/d) dx over [0, 1].

    Writes (1 - x^d) = (1 - x) * q(x) with q the geometric-sum factor and
    absorbs the (1 - x)^(s/d - 1) endpoint singularity into a
    Gauss-Jacobi rule; q is smooth and positive on [0, 1].
    """
    alpha = s / d - 1.0
    x, w = roots_jacobi(n, alpha, 0.0)
    t = (x + 1.0) / 2.0
    q = np.polyval(np.ones(d), t)  # 1 + t + ... + t^(d-1)
    vals = t ** (r - 1) * q**alpha
    return float(0.5 ** (alpha + 1.0) * np.sum(w * vals))


def fermat_translated_path_integral(d: int, r: int, s: int, a: int, b: int, n: int = 200) -> complex:
    """Path integral over the (a, b) automorphism translate, with y
    continued along the path by nearest-root tracking.

    The path is x(t) = zeta^a * t for t in (0, 1); y starts on the sheet
    zeta^b at t = 0 and is continued by picking, at each node, the d-th
    root of 1 - x^d closest to the previous value.  No closed-form
    phase factor is assumed anywhere.
    """
    zeta = np.exp(2j * np.pi / d)
    alpha = s / d - 1.0
    xg, w = roots_jacobi(n, alpha, 0.0)
    t = (xg + 1.0) / 2.0
    order = np.argsort(t)
    roots_of_unity = zeta ** np.arange(d)
    y_prev = zeta**b  # value at t = 0, where 1 - x^d = 1
    y_vals = np.empty_like(t, dtype=complex)
    for idx in order:
        target = (1.0 - (zeta**a * t[idx]) ** d) ** (1.0 / d)  # principal magnitude/phase
        candidates = target * roots_of_unity
        y_vals[idx] = candidates[np.argmin(np.abs(candidates - y_prev))]
        y_prev = y_vals[idx]
    x = zeta**a * t
    # strip the (1 - t)^alpha factor absorbed by the quadrature weight
    smooth = x ** (r - 1) * (y_vals ** (s - d)) * (1.0 - t) ** (-alpha) * zeta**a
    return complex(0.5 ** (alpha + 1.0) * np.sum(w * smooth))


def _real_rows(m: np.ndarray) -> np.ndarray:
    """Complex rows of length g as real 2g-vectors (real parts, then imaginary)."""
    return np.hstack([m.real, m.imag])


def lattice_coordinates(basis: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, float]:
    """Coordinates X with ``rows = X @ basis`` over the reals, and their
    largest distance from an integer.

    ``basis`` holds 2g complex rows of length g that are independent as
    real 2g-vectors; ``rows`` holds any number of complex rows of length g.
    The rows lie in the lattice that ``basis`` spans exactly when X is
    integral.
    """
    coords = np.linalg.solve(_real_rows(basis).T, _real_rows(rows).T).T
    return coords, float(np.max(np.abs(coords - np.round(coords))))


def xn_lattice_basis(n: int, a: complex = 1.0, leading: complex = 1.0) -> np.ndarray:
    """Closed-form period lattice basis of y^2 = leading * (x^n - a^n).

    On y^2 = x^n - 1 the ray from 0 to zeta^j, zeta = exp(2 pi i / n),
    meets no other branch point, and x = zeta^j t turns the ray integral
    of x^(k-1) dx / y into zeta^(jk) (1/i) c_k with c_k = B(k/n, 1/2) / n.
    A loop around 1 and zeta^j is twice the difference of two rays, which
    gives the rows L_j = 2i c_k (zeta^(jk) - 1); this returns L_1 .. L_2g.
    x = a u scales column k by a^(k - n/2) and the leading coefficient
    scales every entry by leading^(-1/2).  Either square root serves, as
    -1 is a lattice symmetry.  The Beta function comes from math.lgamma.
    """
    g = (n - 1) // 2
    k = np.arange(1, g + 1)
    c = np.array(
        [math.exp(math.lgamma(m / n) + math.lgamma(0.5) - math.lgamma(m / n + 0.5)) / n for m in k]
    )
    j = np.arange(1, 2 * g + 1)[:, None]
    lattice = 2j * c * (np.exp(2j * np.pi * ((j * k) % n) / n) - 1.0)
    return lattice * complex(a) ** (k - n / 2) * complex(leading) ** -0.5


def cofactor_determinant(m) -> int:
    """Exact integer determinant by cofactor expansion along row 0."""
    n = len(m)
    if n == 1:
        return int(m[0][0])
    total = 0
    for j in range(n):
        if m[0][j] == 0:
            continue
        minor = [[row[c] for c in range(n) if c != j] for row in m[1:]]
        total += (-1) ** j * int(m[0][j]) * cofactor_determinant(minor)
    return total


def chain_intersection(signs) -> np.ndarray:
    """Skew tridiagonal matrix with ``signs`` above the diagonal."""
    signs = np.asarray(signs, dtype=int)
    return np.diag(signs, 1) - np.diag(signs, -1)


def searched_intersection_matrix(P: np.ndarray) -> np.ndarray:
    """Chain intersection matrix picked by trying all 2^(2g-1) sign patterns.

    Among the patterns whose form -(i/2) P^T E^(-1) conj(P) is positive
    definite, the one with the smallest bilinear residual
    max|P^T E^(-1) P| / max|P|^2 wins.  The cost is exponential in g, so
    this only serves as a reference at small genus.
    """
    P = np.asarray(P, dtype=complex)
    n = P.shape[0]
    scale = float(np.max(np.abs(P))) ** 2
    best_residual, best = np.inf, None
    for signs in itertools.product((1, -1), repeat=n - 1):
        E = chain_intersection(signs)
        Einv = np.linalg.inv(E)
        form = -0.5j * (P.T @ Einv @ np.conj(P))
        if np.linalg.eigvalsh((form + form.conj().T) / 2.0)[0] <= 0.0:
            continue
        residual = float(np.max(np.abs(P.T @ Einv @ P))) / scale
        if residual < best_residual:
            best_residual, best = residual, E
    if best is None:
        raise AssertionError("no sign pattern gives a positive period form")
    return best


def reduced_symplectic_transform(E) -> list[list[int]]:
    """Integer T with T E T^T = [[0, I], [-I, 0]] for unimodular skew E.

    General integer lattice reduction: pick a cycle u, reduce the others
    against it until exactly one pairs with it (to +-1), take that one as
    its partner v and project both out of the rest.  It knows nothing of
    the chain structure, so it serves as the reference for the closed-form
    chain basis.
    """
    n = len(E)
    if n % 2 != 0:
        raise ValueError("intersection matrix must have even size")
    E = [[int(x) for x in row] for row in E]
    # the nonzero entries of E, so that a pairing costs O(nonzeros), not O(n^2)
    nonzero = [(i, j, e) for i, row in enumerate(E) for j, e in enumerate(row) if e]

    def pair(u, v):
        return sum(u[i] * e * v[j] for i, j, e in nonzero)

    remaining = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    alphas, betas = [], []
    while remaining:
        u = remaining.pop(0)
        ds = [pair(u, w) for w in remaining]
        while True:
            nz = [i for i, d in enumerate(ds) if d != 0]
            if not nz:
                raise ValueError("intersection form is degenerate")
            if len(nz) == 1:
                break
            i = min(nz, key=lambda t: abs(ds[t]))
            for j in nz:
                if j == i:
                    continue
                q = ds[j] // ds[i]
                if q:
                    remaining[j] = [wj - q * wi for wj, wi in zip(remaining[j], remaining[i])]
                    ds[j] -= q * ds[i]
        i = nz[0]
        if abs(ds[i]) != 1:
            raise ValueError("intersection form is not unimodular")
        v = remaining.pop(i)
        if ds[i] < 0:
            v = [-x for x in v]
        for idx, w in enumerate(remaining):
            cwv = pair(w, v)
            cwu = pair(w, u)
            remaining[idx] = [wi - cwv * ui + cwu * vi for wi, ui, vi in zip(w, u, v)]
        alphas.append(u)
        betas.append(v)
    T = alphas + betas
    g = n // 2
    check = [[pair(T[i], T[j]) for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(n):
            expected = 0
            if j == i + g:
                expected = 1
            elif i == j + g:
                expected = -1
            if check[i][j] != expected:
                raise AssertionError("symplectic reduction failed verification")
    return T


def segments_meet(p1: complex, p2: complex, p3: complex, p4: complex) -> bool:
    """Whether the closed segments p1p2 and p3p4 share a point.

    Every float is a rational, so the coordinates become Fractions and the
    orientation signs are exact at any scale: the segments meet when each
    separates the other's endpoints, or when an endpoint of one lies on
    the other.
    """
    a, b, c, d = ((Fraction(z.real), Fraction(z.imag)) for z in (p1, p2, p3, p4))

    def orient(o, u, v):
        cross = (u[0] - o[0]) * (v[1] - o[1]) - (u[1] - o[1]) * (v[0] - o[0])
        return (cross > 0) - (cross < 0)

    def on(o, u, v):
        return orient(o, u, v) == 0 and all(
            min(o[i], u[i]) <= v[i] <= max(o[i], u[i]) for i in (0, 1)
        )

    if orient(c, d, a) * orient(c, d, b) < 0 and orient(a, b, c) * orient(a, b, d) < 0:
        return True
    return on(c, d, a) or on(c, d, b) or on(a, b, c) or on(a, b, d)


def _tracked_sqrt(values: np.ndarray) -> np.ndarray:
    """Square root with branch continued along the sample sequence.

    The first sample uses the principal branch; each subsequent sample
    keeps whichever sign is closer to its predecessor.  Samples must be
    dense enough that consecutive principal roots differ by less than a
    quarter turn, which Chebyshev nodes guarantee for the integrands
    used here.
    """
    s = np.sqrt(values.astype(complex))
    if s.size <= 1:
        return s
    d = s[1:] * np.conj(s[:-1])
    flips = np.where(d.real < 0.0, -1.0, 1.0)
    signs = np.concatenate(([1.0], np.cumprod(flips)))
    return s * signs


def _segment_moments(roots, leading, a, b, N: int, count: int):
    """Segment moments int_a^b x^(k-1) / sqrt(f(x)) dx for k = 1..count.

    The one quadrature kernel.  With R the polynomial over the roots other
    than a and b, phi is the continuously tracked branch of
    sqrt(-leading * R(x)), anchored at x = a on the principal square root
    and sampled at a, at the N nodes and at b.  Returns the moments
    (pi/N) * sum x^(k-1) / phi over the nodes, and phi at a and at b,
    which orient the chain junctions.
    """
    other = list(roots)
    other.remove(a)
    other.remove(b)
    mid = (a + b) / 2.0
    half = (b - a) / 2.0
    theta = (2.0 * np.arange(1, N + 1) - 1.0) * np.pi / (2.0 * N)
    u = np.cos(theta)[::-1]  # ascending from near -1 to near +1
    x = mid + half * u
    sample_x = np.concatenate(([complex(a)], x, [complex(b)]))
    v = np.full(sample_x.shape, -complex(leading), dtype=complex)
    for e in other:
        v *= sample_x - e
    # + 0j canonicalizes any -0.0 imaginary parts, which would otherwise
    # flip the principal branch cut of the square root
    phi = _tracked_sqrt(v + 0j)
    inv_phi = 1.0 / phi[1:-1]
    moments = np.array(
        [(np.pi / N) * np.sum(x ** (k - 1) * inv_phi) for k in range(1, count + 1)]
    )
    return moments, phi[0], phi[-1]


def chain_period_table_loop(curve, segs, N: int):
    """Chain periods, one segment at a time, with the branch values at both ends.

    The per-segment loop the batched quadrature kernel replaced, kept as
    it was so that the kernel can be compared with it bit for bit.
    """
    g = curve.genus
    roots = list(curve.branch_points)
    P = np.empty((2 * g, g), dtype=complex)
    anchors = np.empty(2 * g, dtype=complex)
    ends = np.empty(2 * g, dtype=complex)
    for j, (a, b) in enumerate(segs):
        moments, anchors[j], ends[j] = _segment_moments(
            roots, curve.leading_coefficient, a, b, N, g
        )
        P[j] = 2.0 * moments
    return P, anchors, ends


def _reduce(x: np.ndarray, p: int) -> np.ndarray:
    """x mod p into [0, p), in place.

    numpy divides by a scalar several times faster than it takes a
    remainder, so this is x - (x // p) * p.
    """
    quotient = np.floor_divide(x, p)
    quotient *= p
    x -= quotient
    return x


def rank_mod_with_temporaries(a: np.ndarray, p: int) -> np.ndarray:
    """Ranks mod the prime ``p`` of a (B, r, c) stack of ``int64`` matrices.

    Fraction-free elimination over the trial axis: at each column every
    row becomes pivot * row - entry * pivot_row in the later columns, so
    no modular inverse is needed.  That turns the pivot row itself into
    zeros, so a row used as a pivot is never chosen again.  Entries are
    kept in [0, p) with p < 2^31, so each product stays below 2^62 and the
    arithmetic is exact in ``int64``.  The work array is laid out
    (column, row, trial) so each update runs over one contiguous block.
    """
    a = _reduce(a.transpose(2, 1, 0).copy(), p)
    ncols, _nrows, batch = a.shape
    trials = np.arange(batch)
    rank = np.zeros(batch, dtype=np.int64)
    for col in range(ncols):
        column = a[col]
        nonzero = column != 0
        found = nonzero.any(axis=0)
        rank += found
        if col + 1 == ncols:
            break
        piv = nonzero.argmax(axis=0)
        rest = a[col + 1 :]
        pivot_row = rest[:, piv, trials]
        rest *= np.where(found, column[piv, trials], 1)
        rest -= column * pivot_row[:, None, :]
        _reduce(rest, p)
    return rank


def scatter_matrix(model) -> np.ndarray:
    """(g*g, 3g-3) 0/1 matrix: row j*g + l holds zeta_j * zeta_l in the quad basis."""
    g = model.genus
    quad_index = {mon: c for c, mon in enumerate(model.quad_monomials)}
    diff = model.diff_monomials
    scatter = np.zeros((g * g, len(model.quad_monomials)), dtype=np.int64)
    for j in range(g):
        for l in range(g):
            scatter[j * g + l, quad_index[tuple(a + b for a, b in zip(diff[j], diff[l]))]] = 1
    return scatter


def span_matrices_by_product(mats: np.ndarray, scatter: np.ndarray, pairs) -> np.ndarray:
    """Product-span matrices, one |pairs| x (quad monomials) matrix per change of basis.

    Row (a, b) of a trial's span matrix is outer(M[a], M[b]) flattened,
    times the scatter matrix: the coefficients of omega_a * omega_b over
    the quad monomials.  The outer products, g*g/(3g-3) times the size of
    the result for the quartic and quintic, are freed on return.
    """
    first, second = np.array(pairs).T
    outer = mats[:, first, :, None] * mats[:, second, None, :]
    return outer.reshape(len(mats), len(pairs), -1) @ scatter


def json_int(value, name: str) -> int:
    """``value`` if it is a JSON integer; else ValidationError naming ``name``."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(f"{name} must be an integer")
    return value


def json_complex(value, name: str) -> complex:
    """``complex(re, im)`` if ``value`` is a JSON pair [re, im] of numbers.

    Anything else is a ValidationError naming ``name``: a list of another
    length, a boolean (which Python counts as an int) or an integer beyond
    the float range.
    """
    if isinstance(value, list) and len(value) == 2:
        if all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in value):
            with contextlib.suppress(OverflowError):
                return complex(*value)
    raise ValidationError(f"{name} must be an [re, im] pair")


def _period_kind(kind) -> str:
    if kind not in ("raw", "normalized"):
        raise ValidationError("kind must be 'raw' or 'normalized'")
    return kind


def table_to_dict(entries: np.ndarray, kind: str, meta: dict) -> dict:
    entries = np.asarray(entries, dtype=complex)
    return {
        "g": int(entries.shape[1]),
        "kind": _period_kind(kind),
        "entries": [[[float(z.real), float(z.imag)] for z in row] for row in entries],
        "meta": meta,
    }


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
    pair = "each period file entry"
    entries = np.array([[json_complex(z, pair) for z in row] for row in rows], dtype=complex)
    if entries.ndim != 2 or entries.shape[1] != g:
        raise ValidationError("period file entries do not match the declared genus")
    kind = _period_kind(data["kind"])
    factor, height = {"normalized": (1, "g"), "raw": (2, "2g")}[kind]
    if entries.shape[0] != factor * g:
        raise ValidationError(f"a {kind} period file must hold {height} x g entries")
    return entries, kind, data.get("meta", {})


def period_json_text(entries: np.ndarray, kind: str, meta: dict) -> str:
    """The text of a period file: sorted keys, two-space indent, final newline."""
    return json.dumps(table_to_dict(entries, kind, meta), indent=2, sort_keys=True) + "\n"
