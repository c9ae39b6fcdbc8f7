import cmath
import hashlib
import itertools
import json
import math
import random

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
from oracles import (
    chain_period_table_loop,
    elliptic_K,
    fermat_path_integral,
    fermat_translated_path_integral,
    reduced_symplectic_transform,
    searched_intersection_matrix,
    segments_meet,
)
from periodlab import cli, periods
from periodlab.curves import HyperellipticCurve, bundled_curve, curve_to_dict
from periodlab.errors import DomainError, NumericError, ValidationError
from periodlab.periods import (
    HomologyBasis,
    RawPeriodTable,
    beta_function,
    chebyshev_segment_integral,
    dict_to_table,
    fermat_period_closed_form,
    fermat_raw_periods,
    hyperelliptic_raw_periods,
    load_period_json,
    normalize,
    period_json_text,
    symplectic_transform_from_intersection,
)
from periodlab.siegel import validate_siegel

# int_0^1 dx / sqrt(x - x^3) = sqrt(2) * K(1/sqrt(2)); the principal
# square root of the negative integrand makes the segment value -i times
# this (AGM oracle, evaluated independently of the quadrature path).
LEMNISCATIC_SEGMENT = 2.0**0.5 * elliptic_K(0.5**0.5)


class TestSegmentIntegral:
    def test_arcsine(self):
        v = chebyshev_segment_integral([-1, 1], 1, -1, 1, 32, leading=-1)
        assert abs(v - np.pi) < 1e-12

    def test_odd_symmetry(self):
        v = chebyshev_segment_integral([-1, 1], 2, -1, 1, 32, leading=-1)
        assert abs(v) < 1e-14

    def test_agm_oracle(self):
        v = chebyshev_segment_integral([-1, 0, 1], 1, 0, 1, 64)
        assert abs(v - (-1j * LEMNISCATIC_SEGMENT)) < 1e-10

    def test_interior_root_rejected(self):
        with pytest.raises(ValidationError, match="a branch point lies on a chain segment"):
            chebyshev_segment_integral([-1, 0, 1], 1, -1, 1, 32)

    def test_on_segment_test_is_relative(self):
        # a root 1e7 segment lengths away is off the segment at any scale;
        # x -> 1e-20 x multiplies the integral by 1e10
        tiny = chebyshev_segment_integral([0, 1e-20, 1e-13j], 1, 0, 1e-20, 64)
        unit = chebyshev_segment_integral([0, 1, 1e7j], 1, 0, 1, 64)
        assert abs(tiny - 1e10 * unit) < 1e-12 * abs(tiny)
        with pytest.raises(ValidationError, match="a branch point lies on a chain segment"):
            chebyshev_segment_integral([0, 1e-20, 0.5e-20 + 1e-33j], 1, 0, 1e-20, 64)

    def test_on_segment_rule_is_the_chain_rule(self):
        # the chain's rule, 1e-9 times the scale, with |b - a| = 2 as the scale
        with pytest.raises(ValidationError, match="a branch point lies on a chain segment"):
            chebyshev_segment_integral([0, 2, 1 + 1e-9j], 1, 0, 2, 64)
        assert cmath.isfinite(chebyshev_segment_integral([0, 2, 1 + 3e-9j], 1, 0, 2, 64))

    @pytest.mark.parametrize("scale", [1e-200, 1e200])
    def test_integrand_beyond_float_range_refused(self, scale):
        # the product over the other roots underflows to 0 or overflows: both
        # entry points refuse it, neither returns NaN
        roots = [0, scale, 3j * scale, -2 * scale]
        with pytest.raises(DomainError, match="overflows or underflows"):
            chebyshev_segment_integral(roots, 1, 0, scale, 64)
        with pytest.raises(DomainError, match="overflows or underflows"):
            hyperelliptic_raw_periods(HyperellipticCurve(roots))

    def test_distance_beyond_float_range_refused(self):
        # abs() of this root overflows in the on-segment check
        with pytest.raises(DomainError, match="overflows or underflows"):
            chebyshev_segment_integral([1.7e308 + 1.7e308j, 0, 1], 1, 0, 1, 32)

    def test_preconditions(self):
        with pytest.raises(DomainError):
            chebyshev_segment_integral([-1, 1], 1, -1, -1, 32)
        with pytest.raises(DomainError):
            chebyshev_segment_integral([-1, 1], 1, -1, 1, 2)
        with pytest.raises(DomainError):
            chebyshev_segment_integral([-1, 1], 0, -1, 1, 32)


class TestHyperellipticPeriods:
    def test_table_shape_g2(self):
        raw, hom = hyperelliptic_raw_periods(bundled_curve("g2_real_quintic"))
        assert raw.entries.shape == (4, 2)

    def test_real_branch_points_give_axis_periods(self):
        raw, _ = hyperelliptic_raw_periods(bundled_curve("g2_real_quintic"))
        for entry in raw.entries.ravel():
            assert min(abs(entry.real), abs(entry.imag)) < 1e-12 * max(abs(entry), 1.0)

    def test_elliptic_agm_periods(self):
        raw, _ = hyperelliptic_raw_periods(bundled_curve("g1_lemniscatic"))
        expected = 2.0 * LEMNISCATIC_SEGMENT
        mags = sorted(abs(v) for v in raw.entries.ravel())
        assert abs(mags[0] - expected) < 1e-10
        assert abs(mags[1] - expected) < 1e-10

    def test_lemniscatic_omega_is_i(self):
        raw, hom = hyperelliptic_raw_periods(bundled_curve("g1_lemniscatic"))
        pm = normalize(raw, hom)
        assert abs(pm.entries[0, 0] - 1j) < 1e-8

    def test_x5_minus_1_is_siegel(self):
        raw, hom = hyperelliptic_raw_periods(bundled_curve("g2_x5_minus_1"))
        pm = normalize(raw, hom)
        assert validate_siegel(pm.entries, tol=1e-8).is_member

    def test_node_doubling_converges(self):
        for name in ("g1_lemniscatic", "g2_real_quintic", "g2_x5_minus_1", "g3_real_septic"):
            raw, _ = hyperelliptic_raw_periods(bundled_curve(name))
            assert raw.est_error <= 1e-10

    def test_homology_invariants(self):
        raw, hom = hyperelliptic_raw_periods(bundled_curve("g3_real_septic"))
        E = np.array(hom.intersection_matrix)
        T = np.array(hom.symplectic_transform)
        g = raw.g
        assert np.array_equal(E, -E.T)
        assert round(abs(np.linalg.det(E))) == 1
        J = np.block(
            [[np.zeros((g, g)), np.eye(g)], [-np.eye(g), np.zeros((g, g))]]
        )
        assert np.array_equal(T @ E @ T.T, J)

    def test_rotated_complex_branch_points(self):
        # generic non-real configuration: rotated fifth roots of unity
        roots = [np.exp(2j * np.pi * k / 5 + 0.37j) for k in range(5)]
        curve = HyperellipticCurve(roots)
        raw, hom = hyperelliptic_raw_periods(curve)
        pm = normalize(raw, hom)
        assert validate_siegel(pm.entries, tol=1e-8).is_member

    def test_certificate_recorded(self):
        raw, hom = hyperelliptic_raw_periods(bundled_curve("g3_real_septic"))
        assert raw.converged
        assert 0.0 <= hom.bilinear_residual <= periods.BILINEAR_TOL
        assert hom.positive_form_min_eig > 0.0

    def test_node_limit_reached_is_not_converged(self, monkeypatch):
        # the clustered pair needs far more than 16 nodes
        monkeypatch.setattr(periods, "MAX_NODES", 16)
        curve = HyperellipticCurve([0.0, 1e-3, 1.0])
        raw, _ = hyperelliptic_raw_periods(curve, nodes=4)
        assert raw.quadrature_nodes == 16
        assert raw.est_error > periods.NODE_DOUBLING_TARGET
        assert not raw.converged

    def test_nodes_above_limit_rejected(self, monkeypatch):
        monkeypatch.setattr(periods, "MAX_NODES", 32)
        with pytest.raises(DomainError):
            hyperelliptic_raw_periods(bundled_curve("g1_lemniscatic"), nodes=64)

    def test_node_cap_holds(self):
        # nodes is the first level and doubling runs at least once
        curve = bundled_curve("g2_real_quintic")
        raw, _ = hyperelliptic_raw_periods(curve, nodes=periods.MAX_NODES // 2)
        assert raw.quadrature_nodes == periods.MAX_NODES
        for nodes in (5000, periods.MAX_NODES):
            with pytest.raises(DomainError, match="nodes must be <="):
                hyperelliptic_raw_periods(curve, nodes=nodes)

    def test_converged_follows_est_error(self):
        entries = np.zeros((2, 1), dtype=complex)
        target = periods.NODE_DOUBLING_TARGET
        assert RawPeriodTable(entries, 0, est_error=target).converged
        assert not RawPeriodTable(entries, 0, est_error=1.0).converged


def _chain_data(curve):
    _, segs = periods._chain_segments(curve)
    return (segs, *periods._chain_period_table(curve, segs, 512))


@settings(max_examples=200, deadline=None)
@given(
    grid=st.sets(st.tuples(st.integers(0, 3), st.integers(-3, 3)), min_size=3, max_size=14),
    exponent=st.integers(-200, 200),
)
def test_sorted_chain_is_simple_at_any_scale(grid, exponent):
    # a small integer grid ties real parts; scaling must not change the chain
    scale = 10.0**exponent
    curve = HyperellipticCurve([complex(x * scale, y * scale) for x, y in grid])
    _, segs = periods._chain_segments(curve)
    for j, l in itertools.combinations(range(len(segs)), 2):
        assert segments_meet(*segs[j], *segs[l]) == (l == j + 1)


def test_segment_oracle_hand_cases():
    assert segments_meet(0, 2 + 2j, 2j, 2)  # proper crossing
    assert segments_meet(0, 2, 1, 1 + 1j)  # T junction
    assert segments_meet(0, 2, 1, 3)  # collinear overlap
    assert not segments_meet(0, 1, 2, 3)  # collinear, apart
    assert not segments_meet(0, 1j, 1e-300, 1e-300 + 1j)  # parallel, 1e-300 apart


class TestOrientationTracking:
    def test_flipped_junction_fails_certificate(self):
        # a wrong junction sign is refused, never repaired by a search
        segs, P, anchors, ends = _chain_data(bundled_curve("g2_x5_minus_1"))
        E, _, _ = periods._choose_intersection_matrix(P, segs, anchors, ends)
        flipped = ends.copy()
        flipped[1] *= -1.0
        assert periods._junction_signs(segs, anchors, flipped)[1] == -E[1][2]
        with pytest.raises(NumericError):
            periods._choose_intersection_matrix(P, segs, anchors, flipped)

    def test_ambiguous_junction_rejected(self):
        segs = [(0j, 1 + 0j), (1 + 0j, 2 + 0j)]
        # Delta = pi, so z = i * anchor * conj(end) is purely imaginary here
        anchors = np.array([1.0, 1.0], dtype=complex)
        ends = np.array([1.0, 1.0], dtype=complex)
        with pytest.raises(NumericError, match="ambiguous"):
            periods._junction_signs(segs, anchors, ends)
        assert periods._junction_signs(segs, anchors, np.array([1j, 1.0])) == [1]
        assert periods._junction_signs(segs, anchors, np.array([-1j, 1.0])) == [-1]


def _branch_points(rng, geometry, n):
    if geometry == "real":
        return [complex(rng.uniform(-2.0, 2.0)) for _ in range(n)]
    if geometry == "circle":
        return [
            (1.0 + rng.uniform(-0.15, 0.15))
            * cmath.exp(2j * math.pi * (k + rng.uniform(-0.2, 0.2)) / n)
            for k in range(n)
        ]
    if geometry == "complex":
        return [complex(rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0)) for _ in range(n)]
    # clustered pair: n - 1 scattered points plus a partner 1e-4..1e-2 away from one
    pts = [complex(rng.uniform(-2.0, 2.0), rng.uniform(-1.0, 1.0)) for _ in range(n - 1)]
    partner = pts[rng.randrange(n - 1)] + 10.0 ** rng.uniform(-4.0, -2.0) * cmath.exp(
        2j * math.pi * rng.random()
    )
    return pts + [partner]


LEADING = {
    "one": lambda rng: 1.0,
    "minus_one": lambda rng: -1.0,
    "i": lambda rng: 1j,
    "random": lambda rng: complex(rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0)),
}


@pytest.mark.parametrize("leading", sorted(LEADING))
@pytest.mark.parametrize("geometry", ["real", "circle", "complex", "clustered"])
@pytest.mark.parametrize("g", range(1, 7))
def test_tracked_intersection_matches_exhaustive_search(g, geometry, leading):
    rng = random.Random(f"orientation/{g}/{geometry}/{leading}")
    while True:
        n = 2 * g + 1 + rng.randrange(2)
        curve = HyperellipticCurve(_branch_points(rng, geometry, n), LEADING[leading](rng))
        try:
            raw, hom = hyperelliptic_raw_periods(curve)
            break
        except ValidationError as exc:
            if "a branch point lies on a chain segment" not in str(exc):
                raise
            # branch point near a segment: draw another configuration
    expected = searched_intersection_matrix(raw.entries)
    assert np.array_equal(np.array(hom.intersection_matrix), expected)


@settings(max_examples=150, deadline=None)
@given(
    geometry=st.sampled_from(["real", "circle", "complex", "clustered"]),
    g=st.integers(1, 10),
    N=st.sampled_from([4, 256, 512, 1024]),
    leading=st.sampled_from(sorted(LEADING)),
    seed=st.integers(0, 2**32 - 1),
)
def test_batched_kernel_matches_segment_loop_bit_for_bit(geometry, g, N, leading, seed):
    rng = random.Random(seed)
    n = 2 * g + 1 + rng.randrange(2)
    curve = HyperellipticCurve(_branch_points(rng, geometry, n), LEADING[leading](rng))
    try:
        _, segs = periods._chain_segments(curve)
    except ValidationError as exc:
        assert "a branch point lies on a chain segment" in str(exc)
        assume(False)
    batched = periods._chain_period_table(curve, segs, N)
    for got, want in zip(batched, chain_period_table_loop(curve, segs, N)):
        assert np.array_equal(got, want)
        assert got.tobytes() == want.tobytes()  # the signs of zeros too


@pytest.mark.parametrize(
    "points",
    [
        [float(k) for k in range(17)],  # y^2 = x(x-1)...(x-16), g = 8
        list(np.linspace(-1.0, 1.0, 21)),  # g = 10
        list(np.linspace(-1.0, 1.0, 25)),  # g = 12
    ],
    ids=["g8_wide_integer", "g10_real", "g12_real"],
)
def test_high_genus_real_curves_give_siegel_omega(points):
    curve = HyperellipticCurve(points)
    raw, hom = hyperelliptic_raw_periods(curve)
    check = validate_siegel(normalize(raw, hom).entries)
    assert check.symmetry_residual <= 1e-8
    assert check.min_im_eigenvalue > 0.0


class TestFermatPeriods:
    def test_beta_symmetry_and_value(self):
        assert abs(beta_function(0.5, 0.5) - np.pi) < 1e-12
        assert beta_function(0.3, 0.9) == pytest.approx(beta_function(0.9, 0.3), rel=1e-14)
        with pytest.raises(DomainError):
            beta_function(0.0, 1.0)

    @pytest.mark.parametrize("d", [4, 5])
    def test_fundamental_path_matches_quadrature(self, d):
        for r in range(1, d - 1):
            for s in range(1, d - r):
                closed = fermat_period_closed_form(d, r, s, 0, 0)
                oracle = fermat_path_integral(d, r, s)
                assert abs(closed - oracle) < 1e-10 * max(abs(oracle), 1.0)

    @pytest.mark.parametrize("d", [4, 5])
    def test_translates_match_continuation_oracle(self, d):
        # exercise nontrivial (a, b) translates against sheet tracking
        for a, b in ((1, 0), (0, 1), (2, 1), (1, 2)):
            closed = fermat_period_closed_form(d, 1, 1, a, b)
            oracle = fermat_translated_path_integral(d, 1, 1, a, b)
            assert abs(closed - oracle) < 1e-8

    def test_table_selection(self):
        table = fermat_raw_periods(11)
        assert table.g == 45
        assert table.entries.shape == (90, 45)
        assert len(table.cycles) == 90
        # selected rows are independent over the reals
        flat = np.hstack([table.entries.real, table.entries.imag])
        assert np.linalg.matrix_rank(flat) == 90

    def test_degree_domain(self):
        with pytest.raises(DomainError):
            fermat_raw_periods(3)
        with pytest.raises(DomainError):
            fermat_raw_periods(16)


class TestNormalize:
    def test_identity_a_block(self):
        g = 2
        B = np.array([[1j, 0.3], [0.3, 2j]])
        entries = np.vstack([np.eye(g), B])
        raw = RawPeriodTable(
            entries=entries,
            quadrature_nodes=0,
            est_error=0.0,
        )
        T = np.eye(2 * g, dtype=int)
        hom = HomologyBasis(
            intersection_matrix=tuple(map(tuple, np.zeros((4, 4), dtype=int))),
            symplectic_transform=tuple(map(tuple, T)),
        )
        pm = normalize(raw, hom)
        assert np.allclose(pm.entries, B)

    def test_singular_a_block_refused(self):
        entries = np.vstack([np.zeros((2, 2)), np.eye(2)])
        raw = RawPeriodTable(
            entries=entries.astype(complex),
            quadrature_nodes=0,
            est_error=0.0,
        )
        hom = HomologyBasis(
            intersection_matrix=tuple(map(tuple, np.zeros((4, 4), dtype=int))),
            symplectic_transform=tuple(map(tuple, np.eye(4, dtype=int))),
        )
        with pytest.raises(NumericError, match="A-block condition number"):
            normalize(raw, hom)


class TestSymplecticReduction:
    def test_standard_block(self):
        J = [[0, 1], [-1, 0]]
        T = symplectic_transform_from_intersection(J)
        assert T == [[1, 0], [0, 1]]

    def test_chain_forms(self):
        for signs in ((1, 1, 1), (1, -1, 1), (-1, -1, -1), (-1, 1, -1)):
            n = len(signs) + 1
            E = [[0] * n for _ in range(n)]
            for j, s in enumerate(signs):
                E[j][j + 1] = s
                E[j + 1][j] = -s
            T = symplectic_transform_from_intersection(E)
            Tn = np.array(T)
            En = np.array(E)
            g = n // 2
            J = np.block(
                [[np.zeros((g, g)), np.eye(g)], [-np.eye(g), np.zeros((g, g))]]
            )
            assert np.array_equal(Tn @ En @ Tn.T, J)
            assert round(abs(np.linalg.det(Tn))) == 1

    def test_degenerate_rejected(self):
        with pytest.raises(ValidationError):
            symplectic_transform_from_intersection([[0, 0], [0, 0]])

    @pytest.mark.parametrize(
        "E",
        [
            [[0, 2], [-2, 0]],  # not unimodular
            [[0, 1], [1, 0]],  # not skew
            [[0, 1, 0], [-1, 0, 1], [0, -1, 0]],  # odd size
            [[0, 0, 1, 0], [0, 0, 0, 1], [-1, 0, 0, 0], [0, -1, 0, 0]],  # J, not a chain
            [[0, 1, 0, 1], [-1, 0, 1, 0], [0, -1, 0, 1], [-1, 0, -1, 0]],  # extra entry
        ],
    )
    def test_non_chain_rejected(self, E):
        with pytest.raises(ValidationError):
            symplectic_transform_from_intersection(E)

    @pytest.mark.parametrize("g", range(1, 6))
    def test_closed_form_matches_reduction_on_every_pattern(self, g):
        for signs in itertools.product((1, -1), repeat=2 * g - 1):
            E = periods._tridiagonal_intersection(signs)
            assert symplectic_transform_from_intersection(E) == reduced_symplectic_transform(E)

    @pytest.mark.parametrize("g", range(6, 41))
    def test_closed_form_matches_reduction_on_random_patterns(self, g):
        rng = random.Random(f"symplectic/{g}")
        for _ in range(15 if g <= 10 else 2):
            signs = [rng.choice((1, -1)) for _ in range(2 * g - 1)]
            E = periods._tridiagonal_intersection(signs)
            assert symplectic_transform_from_intersection(E) == reduced_symplectic_transform(E)


# Pinned curves given by their branch points; the other names are bundled.
PINNED_CURVE_POINTS = {
    # complex branch points near the unit circle, g = 6
    "g6_perturbed_circle": [
        (1.0 + 0.15 * math.sin(3.0 * k))
        * cmath.exp(2j * math.pi * (k + 0.2 * math.cos(5.0 * k)) / 13)
        for k in range(13)
    ],
    "g7_linspace": [float(x) for x in np.linspace(-1.0, 1.0, 15)],
    "g8_wide_integer": [float(k) for k in range(17)],  # y^2 = x(x-1)...(x-16)
}
# sha256 of the normalized (--out) and raw (--raw-out) period files.  The g2
# and g7 pins were recorded with the general lattice reduction in place of
# the closed-form chain basis, the g6 and g8 pins with the per-segment
# quadrature loop that the batched kernel replaced.  The complex-branch-point
# curves also pin the last bits of the quadrature.
PINNED_PERIOD_FILES = {
    "g2_x5_minus_1": (
        "130ff0c6538672c8526ed68e1ee94196e5768efc4586ed3460929e8fe63a9b1e",
        "242e0c9c3a349771602c2f9b9b7b1a6a1b50646938ac537d7224456bec153133",
    ),
    "g2_real_quintic": (
        "29ced71961ec9569e0f8f5ef37c7c3b9b21e3d59d8ff7a077dd9e50dd98e644d",
        "cca6978ac1289e60d2fa818094bece0ca09e59b896e7b42b29dd60393267993d",
    ),
    "g6_perturbed_circle": (
        "62ecc7a84bf69376679393b69e8d0fb813e254751cd9f5e862844a4f2a8f2d7c",
        "9737673971b5c654ed740f56af7235394fb8e3043af8b3346af69ca742bde015",
    ),
    "g7_linspace": (
        "420cd1a91eca42f61b53924393c0c1b116e6fb268e2472bb743878da6de48ed9",
        "963e033662efe45b96d122deed2cc21003665c93dadd14dfeb0a4372e012ff49",
    ),
    "g8_wide_integer": (
        "e6086711eb346fc82f9aec75e8f838076cf4771acc4dfd9cf400b626aeabfe71",
        "958cf4d2110646398848b1ddf187fb50acb5dff7320b3e3aaae1589a8f01fb24",
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED_PERIOD_FILES))
def test_period_file_bytes_pinned(name, tmp_path, capsys):
    if name in PINNED_CURVE_POINTS:
        curve = tmp_path / "curve.json"
        points = PINNED_CURVE_POINTS[name]
        curve.write_text(json.dumps(curve_to_dict(HyperellipticCurve(points))))
        source = ["--curve", str(curve)]
    else:
        source = ["--bundled", name]
    out, raw = tmp_path / "omega.json", tmp_path / "raw.json"
    argv = ["periods", *source, "--kind", "normalized", "--out", str(out), "--raw-out", str(raw)]
    assert cli.main(argv) == 0
    capsys.readouterr()
    digests = tuple(hashlib.sha256(path.read_bytes()).hexdigest() for path in (out, raw))
    assert digests == PINNED_PERIOD_FILES[name]


class TestPeriodFiles:
    def test_roundtrip(self, tmp_path):
        raw, hom = hyperelliptic_raw_periods(bundled_curve("g2_real_quintic"))
        path = tmp_path / "p.json"
        path.write_text(period_json_text(raw.entries, "raw", {"nodes": raw.quadrature_nodes}))
        entries, kind, meta = load_period_json(path)
        assert kind == "raw"
        assert meta["nodes"] == raw.quadrature_nodes
        assert np.array_equal(entries, raw.entries)

    def test_bad_kind_rejected(self):
        with pytest.raises(ValidationError):
            period_json_text(np.eye(2, dtype=complex), "other", {})

    def test_missing_fields_rejected(self):
        with pytest.raises(ValidationError):
            dict_to_table({"g": 1, "entries": [[[0.0, 1.0]]]})


# Floats at the edges of the double range and of JSON: signed zeros, the
# smallest subnormal, the largest finite values and the non-finite ones.
EDGE_FLOATS = st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308,
     math.nan, math.inf, -math.inf]
)
FILE_FLOATS = st.one_of(st.floats(), EDGE_FLOATS)
# Strings and keys that read like the file's own fields or JSON literals,
# or like a format placeholder, beside arbitrary (non-ASCII) text.
META_TEXT = st.one_of(st.text(), st.sampled_from(["null", "entries", "g", "kind", "NaN", "%s"]))
META = st.dictionaries(
    META_TEXT,
    st.recursive(
        st.one_of(st.none(), st.booleans(), st.integers(), FILE_FLOATS, META_TEXT),
        lambda inner: st.one_of(
            st.lists(inner, max_size=3), st.dictionaries(META_TEXT, inner, max_size=3)
        ),
        max_leaves=8,
    ),
    max_size=4,
)


def _draw_values(draw, values, n):
    """n values picked at random from a few drawn from ``values``.

    Drawing every one of up to 288 values would make each example slow;
    a small pool keeps the edge cases and the random picks spread them.
    """
    pool = draw(st.lists(values, min_size=1, max_size=8))
    return random.Random(draw(st.integers(0, 2**32 - 1))).choices(pool, k=n)


@st.composite
def entry_arrays(draw):
    """A rows x cols complex array, C-ordered, F-ordered, strided or real."""
    rows, cols = draw(st.integers(0, 12)), draw(st.integers(0, 12))
    values = _draw_values(draw, FILE_FLOATS, 2 * rows * cols)
    z = np.array(values, dtype=float).view(complex).reshape(rows, cols)
    layout = draw(st.sampled_from(["C", "F", "strided", "real"]))
    if layout == "F":  # as normalize returns Omega: a transposed solve
        return np.ascontiguousarray(z.T).T
    if layout == "strided":
        wide = np.zeros((rows, 2 * cols), dtype=complex)
        wide[:, ::2] = z
        return wide[:, ::2]
    return z.real if layout == "real" else z


@settings(max_examples=200, deadline=None)
@given(entry_arrays(), st.sampled_from(["raw", "normalized"]), META)
def test_period_json_text_matches_json_dumps(entries, kind, meta):
    assert period_json_text(entries, kind, meta) == oracles.period_json_text(entries, kind, meta)


# Numbers of a decoded period file: ints (2**53 + 1 rounds to even, ints
# beyond int64) beside the floats of the writer's draws.
FILE_NUMBERS = st.one_of(
    st.integers(min_value=-(2**70), max_value=2**70),
    st.sampled_from([0, 2**53 + 1, -(2**53 + 1), 2**63, 2**64 + 1]),
    FILE_FLOATS,
)


@st.composite
def period_documents(draw, rows=st.integers(1, 12)):
    n_rows, cols = draw(rows), draw(st.integers(0, 12))
    numbers = iter(_draw_values(draw, FILE_NUMBERS, 2 * n_rows * cols))
    return {
        "g": cols,
        "kind": draw(st.sampled_from(["raw", "normalized"])),
        "entries": [[[next(numbers), next(numbers)] for _ in range(cols)] for _ in range(n_rows)],
        "meta": {"nodes": 512},
    }


def _decoded(decode, data):
    """What ``decode`` makes of ``data``: the bits of its table, or its refusal."""
    try:
        entries, kind, meta = decode(data)
    except Exception as exc:  # the class and message are the result compared
        return type(exc), str(exc)
    return entries.shape, entries.view(np.uint64).tolist(), kind, meta


@settings(max_examples=200, deadline=None)
@given(period_documents())
def test_dict_to_table_matches_pair_decoder(data):
    decoded = _decoded(dict_to_table, data)
    assert decoded == _decoded(oracles.dict_to_table, data)
    assert decoded[0] == (len(data["entries"]), data["g"])


# One defect each: a pair element, a pair, a row or the whole entries field
# replaced, or the declared genus off by one.
PAIR_ELEMENT_DEFECTS = [True, False, "1.0", [1.0, 0.0], 10**400, -(10**400), None]
PAIR_DEFECTS = [[1.0], [1.0, 2.0, 3.0], [], "1.0", 1.0, [[1.0, 0.0], [0.0, 1.0]], {"re": 1}]
ROW_DEFECTS = ["row", 1.0, None, {"0": [1.0, 0.0]}]
ENTRIES_DEFECTS = [[], [[]], "entries", None, {"0": []}]


@st.composite
def malformed_period_documents(draw):
    data = draw(period_documents(rows=st.integers(2, 6)))
    rows = data["entries"]
    where = draw(st.sampled_from(["element", "pair", "row", "ragged", "entries", "genus"]))
    if where in ("element", "pair") and rows[0]:
        i, j = draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, len(rows[0]) - 1))
        if where == "element":
            rows[i][j][draw(st.integers(0, 1))] = draw(st.sampled_from(PAIR_ELEMENT_DEFECTS))
        else:
            rows[i][j] = draw(st.sampled_from(PAIR_DEFECTS))
    elif where == "row":
        rows[draw(st.integers(0, len(rows) - 1))] = draw(st.sampled_from(ROW_DEFECTS))
    elif where == "ragged":
        rows[draw(st.integers(0, len(rows) - 1))].append([0.0, 0.0])
    elif where == "entries":
        data["entries"] = draw(st.sampled_from(ENTRIES_DEFECTS))
        data["g"] += 1  # so that [[]] is a mismatch too
    else:  # also an element or pair defect drawn for a table with no pairs
        data["g"] += draw(st.sampled_from([-1, 1]))
    return data


@settings(max_examples=200, deadline=None)
@given(malformed_period_documents())
def test_dict_to_table_refuses_as_pair_decoder(data):
    expected = _decoded(oracles.dict_to_table, data)
    assert expected[0] is ValidationError
    assert _decoded(dict_to_table, data) == expected
