import cmath
import contextlib
import hashlib
import io
import itertools
import json
import math
import pathlib
import random
import tempfile

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
    lattice_coordinates,
    reduced_symplectic_transform,
    searched_intersection_matrix,
    segments_meet,
    xn_lattice_basis,
)
from periodlab import cli, periods
from periodlab.curves import (
    BUNDLED_CURVES,
    FermatCurve,
    HyperellipticCurve,
    PlaneCurveModel,
    bundled_curve,
    curve_to_dict,
)
from periodlab.errors import DomainError, NumericError, ValidationError
from periodlab.periods import (
    PeriodMatrix,
    beta_function,
    chebyshev_segment_integral,
    dict_to_table,
    fermat_period_closed_form,
    fermat_raw_periods,
    hyperelliptic_raw_periods,
    load_period_json,
    normalize,
    period_json_text,
    period_matrix,
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
        with pytest.raises(DomainError, match="^segment endpoints must be branch points of f$"):
            chebyshev_segment_integral([-1, 1], 1, -1, 0.5, 32)


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
            assert raw.provenance["est_error"] <= 1e-10

    def test_homology_invariants(self):
        raw, E = hyperelliptic_raw_periods(bundled_curve("g3_real_septic"))
        T = np.array(symplectic_transform_from_intersection(E))
        assert E.dtype == np.int64
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
        raw, _ = hyperelliptic_raw_periods(bundled_curve("g3_real_septic"))
        assert raw.provenance["converged"] is True
        assert 0.0 <= raw.provenance["bilinear_residual"] <= periods.BILINEAR_TOL
        assert raw.provenance["positive_form_min_eig"] > 0.0

    def test_node_limit_reached_is_not_converged(self, monkeypatch):
        # the clustered pair needs far more than 16 nodes
        monkeypatch.setattr(periods, "MAX_NODES", 16)
        curve = HyperellipticCurve([0.0, 1e-3, 1.0])
        raw, _ = hyperelliptic_raw_periods(curve, nodes=4)
        assert raw.provenance["nodes"] == 16
        assert raw.provenance["est_error"] > periods.NODE_DOUBLING_TARGET
        assert raw.provenance["converged"] is False

    def test_nodes_above_limit_rejected(self, monkeypatch):
        monkeypatch.setattr(periods, "MAX_NODES", 32)
        with pytest.raises(DomainError):
            hyperelliptic_raw_periods(bundled_curve("g1_lemniscatic"), nodes=64)

    def test_node_cap_holds(self):
        # nodes is the first level and doubling runs at least once
        curve = bundled_curve("g2_real_quintic")
        raw, _ = hyperelliptic_raw_periods(curve, nodes=periods.MAX_NODES // 2)
        assert raw.provenance["nodes"] == periods.MAX_NODES
        for nodes in (5000, periods.MAX_NODES):
            with pytest.raises(DomainError, match="nodes must be <="):
                hyperelliptic_raw_periods(curve, nodes=nodes)

    @pytest.mark.parametrize("nodes", [256.0, "256", None, 1j])
    def test_non_integer_nodes_refused(self, nodes):
        with pytest.raises(DomainError, match="^nodes must be an integer$"):
            hyperelliptic_raw_periods(bundled_curve("g1_lemniscatic"), nodes=nodes)

    def test_integer_like_nodes_accepted(self):
        curve = bundled_curve("g1_lemniscatic")
        raw, _ = hyperelliptic_raw_periods(curve, nodes=np.int64(256))
        assert type(raw.provenance["nodes"]) is int
        assert raw.entries.tobytes() == hyperelliptic_raw_periods(curve, 256)[0].entries.tobytes()

    def test_converged_follows_est_error(self, monkeypatch):
        # one doubling level, so the run's est_error does not depend on the target
        monkeypatch.setattr(periods, "MAX_NODES", 8)
        curve = bundled_curve("g1_lemniscatic")
        est_error = hyperelliptic_raw_periods(curve, nodes=4)[0].provenance["est_error"]
        for target, converged in ((est_error, True), (math.nextafter(est_error, 0.0), False)):
            monkeypatch.setattr(periods, "NODE_DOUBLING_TARGET", target)
            meta = hyperelliptic_raw_periods(curve, nodes=4)[0].provenance
            assert (meta["est_error"], meta["converged"]) == (est_error, converged)


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
        E, _ = periods._choose_intersection_matrix(P, segs, anchors, ends)
        flipped = ends.copy()
        flipped[1] *= -1.0
        assert periods._junction_signs(segs, anchors, flipped)[1] == -E[1][2]
        with pytest.raises(NumericError):
            periods._choose_intersection_matrix(P, segs, anchors, flipped)

    def test_bilinear_residual_refused(self):
        # one entry off by 1e-5 of itself keeps the form positive definite
        segs, P, anchors, ends = _chain_data(bundled_curve("g2_x5_minus_1"))
        P[0, 1] *= 1.0 + 1e-5
        with pytest.raises(NumericError, match="^bilinear identity residual .* too large; periods"):
            periods._choose_intersection_matrix(P, segs, anchors, ends)

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
            raw, E = hyperelliptic_raw_periods(curve)
            break
        except ValidationError as exc:
            if "a branch point lies on a chain segment" not in str(exc):
                raise
            # branch point near a segment: draw another configuration
    expected = searched_intersection_matrix(raw.entries)
    assert np.array_equal(E, expected)


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


def _circle(n, radius=1.0):
    """n points near a circle of ``radius``, perturbed in radius and angle."""
    return [
        radius
        * (1.0 + 0.15 * math.sin(3.0 * k))
        * cmath.exp(2j * math.pi * (k + 0.2 * math.cos(5.0 * k)) / n)
        for k in range(n)
    ]


def _lattice(n, scale=1.0):
    """n scattered complex points, times ``scale``."""
    return [
        scale * complex(math.cos(1.7 * k) * (1 + k % 3), math.sin(2.3 * k) * (2 - k % 2))
        for k in range(n)
    ]


def _signed_zeros(n):
    """n real points whose imaginary parts alternate +0.0 and -0.0."""
    return [complex(k - n / 2, -0.0 if k % 2 else 0.0) for k in range(n)]


# (branch points, leading coefficient) of the curves whose kernel bits are pinned
KERNEL_CURVES = {
    "g1_real": ([0.0, 1.0, 2.0], 1.0),
    "g1_complex_lead": ([-1.0, 1j, 1.0], 2 + 1j),
    "g2_real_quintic": ([-2.0, -1.0, 0.0, 1.0, 2.0], 1.0),
    "g2_x5_minus_1": ([cmath.exp(2j * math.pi * k / 5) for k in range(5)], 1.0),
    "g3_real_even": ([float(k) ** 1.5 for k in range(8)], 1.0),
    "g3_lattice_lead": (_lattice(7), 2 + 1j),
    "g4_real_1e6": ([1e6 * math.sin(0.7 * k) for k in range(9)], 1.0),
    "g4_lattice_1e-6_lead": (_lattice(10, 1e-6), 2 + 1j),
    "g5_signed_zeros": (_signed_zeros(11), 1.0),
    "g5_circle": (_circle(12), 1.0),
    "g6_perturbed_circle": (_circle(13), 1.0),
    "g6_signed_zeros_lead": (_signed_zeros(14), 2 + 1j),
    "g7_linspace": ([float(x) for x in np.linspace(-1.0, 1.0, 15)], 1.0),
    "g7_lattice": (_lattice(16), 1.0),
    "g8_wide_integer": ([float(k) for k in range(17)], 1.0),
    "g8_circle_lead": (_circle(18), 2 + 1j),
    "g9_lattice_1e3_lead": (_lattice(19, 1e3), 2 + 1j),
    "g10_linspace": ([float(x) for x in np.linspace(-1.0, 1.0, 21)], 1.0),
    "g11_circle_1e3": (_circle(23, 1e3), 1.0),
    "g12_linspace_lead": ([float(x) for x in np.linspace(-1.0, 1.0, 25)], 2 + 1j),
}
# sha256 of the kernel's moments, anchors and ends bytes at N = 4, 512 and
# 2048, recorded with the kernel that built its arrays one at a time and
# each segment's other roots with list.remove.
KERNEL_PINS = {
    "g1_real": "4d1f3440ea08255d0cd9744fd1038dbb8da660a0b6b688894603fd0906f2587c",
    "g1_complex_lead": "9cf5b7a3514124748d88a8e9b54b79b2ad5b552364f1ee66c2f6f90b909dbcb0",
    "g2_real_quintic": "bc1a1c19ee4276bc20a40f3c2a1c1ee9a07f2077615f3544eddfa6399a936404",
    "g2_x5_minus_1": "6535542f555c6a65a9b8ce44b578cb3cb70de720105706f87b6d66f1ce44c715",
    "g3_real_even": "bc8e355b3cc24c98e45723660c6df7362eb039461aaa5574ccf525809d4a072a",
    "g3_lattice_lead": "883af85e9147125f7a8e1aa50ebc99b5ddff2496fccaf0148747ea11221c5a8b",
    "g4_real_1e6": "c03b5e426b566df0ec0be8daef2ddef91e7ebca5d95023bd4198d8bc9a09401f",
    "g4_lattice_1e-6_lead": "f55fe3a933819b356c73fb82419c03aca17fc04f2b3a4e4ea0e472d16c30d1a1",
    "g5_signed_zeros": "bb11f5260da9cdc391fd4e30ae8bc28e3ff1ea13969a4dee807caa152b5c528f",
    "g5_circle": "8fe95393d77349d4e3e04e7579c6f81b45b64b8443a5e4020ae2a95dac8fb1b6",
    "g6_perturbed_circle": "c1e923278fbd0174634f9ab825ae0408f76878cde3e27b469699ad50db200192",
    "g6_signed_zeros_lead": "232afded2d5de02316ab0d0a6f1f0bb94f5fc8b5a6f434da38d6b52c8219b467",
    "g7_linspace": "cc9552e1bbc833c0f4dd6d376e7b8033f9c216298d8d2ef999670cc8017d98ec",
    "g7_lattice": "bfc6284b90ade013f01d014b71b18c294781bc327312df26c9158e301d3a0b1c",
    "g8_wide_integer": "eeb33bc2af490a290957751947ea4e2130b52ad28f9b88142aac4a7f6f41a051",
    "g8_circle_lead": "b558d1e5a0a761f23a757ed912d18a803208cd76e4c262a53e2b1abe4f63e2ff",
    "g9_lattice_1e3_lead": "e84e379933caeab44d9575fc5869caad9f87d9ab70dd3d223c9af061671b571a",
    "g10_linspace": "fd48acfdf336ca5709393e54fad6a4f7d7ec2c78ec4423addfcf9fb7f966d2db",
    "g11_circle_1e3": "19f9e34c4c539c59345e1cb27b68a0254a7e37c5835fad4ccc8777804a805bb8",
    "g12_linspace_lead": "d8eb2dcfc10393afc95505252b3032d6fd33e8c3eaa7c2056872006004b82ffc",
}


@pytest.mark.parametrize("name", sorted(KERNEL_CURVES))
def test_chain_kernel_bytes_pinned(name):
    points, leading = KERNEL_CURVES[name]
    curve = HyperellipticCurve(points, leading)
    _, segs = periods._chain_segments(curve)
    digest = hashlib.sha256()
    for N in (4, 512, 2048):
        arrays = periods._chain_moments(
            curve.branch_points, curve.leading_coefficient, segs, N, curve.genus
        )
        for array in arrays:
            digest.update(array.tobytes())
    assert digest.hexdigest() == KERNEL_PINS[name]


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


# y^2 = leading * (x^n - a^n), branch points a * zeta^j: the unit circle up
# to g = 30, seeded rotations at four scales and one non-unit leading
# coefficient.
XN_DRAWS = (
    [(n, 1.0, 1.0) for n in [*range(3, 26), 31, 41, 51, 61]]
    + [
        (n, scale * cmath.exp(2j * math.pi * random.Random(f"xn/{n}/{scale}").random()), 1.0)
        for n in (5, 9, 21, 41)
        for scale in (1e-6, 1e-3, 1e3, 1e6)
    ]
    + [(7, 1.0, 2.5 - 1.5j)]
)


@pytest.mark.parametrize(
    "n, a, leading",
    XN_DRAWS,
    ids=[f"n{n}-a{abs(a):g}-lead{leading}" for n, a, leading in XN_DRAWS],
)
def test_chain_table_is_a_basis_of_the_beta_lattice(n, a, leading, tmp_path, capsys):
    curve = HyperellipticCurve([a * cmath.exp(2j * math.pi * j / n) for j in range(n)], leading)
    raw, _ = hyperelliptic_raw_periods(curve)
    lattice = xn_lattice_basis(n, a, leading)
    # column-equilibrated forms, so that no differential hides behind another
    scale = 1.0 / np.abs(lattice).max(axis=0)
    coords, off_integer = lattice_coordinates(lattice * scale, raw.entries * scale)
    assert off_integer <= 1e-12
    assert abs(np.linalg.det(np.round(coords))) == pytest.approx(1.0, abs=1e-6)

    # normalized: a Siegel member, or refused with exit 4 and no file
    path, out = tmp_path / "curve.json", tmp_path / "omega.json"
    path.write_text(json.dumps(curve_to_dict(curve)))
    code = cli.main(["periods", "--curve", str(path), "--kind", "normalized", "--out", str(out)])
    capsys.readouterr()
    if code == 0:
        assert validate_siegel(load_period_json(out)[0]).is_member
    else:
        assert code == 4
        assert list(tmp_path.iterdir()) == [path]


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

    @pytest.mark.parametrize("d", range(4, 16))
    def test_table_selection(self, d):
        table, curve = fermat_raw_periods(d), FermatCurve(d)
        g = curve.genus
        assert table.g == g
        assert table.entries.shape == (2 * g, g)
        assert curve.cycles == tuple(itertools.product(range(d - 2), range(d - 1)))
        # selected rows are independent over the reals
        flat = np.hstack([table.entries.real, table.entries.imag])
        assert np.linalg.matrix_rank(flat) == 2 * g
        # and a Z-basis: every one of the d^2 translates is a {-1, 0, 1}
        # combination of them
        translates = np.array(
            [
                [fermat_period_closed_form(d, r, s, a, b) for r, s in curve.diff_exponents]
                for a, b in itertools.product(range(d), repeat=2)
            ]
        )
        coords, off_integer = lattice_coordinates(table.entries, translates)
        assert off_integer <= 1e-12
        assert set(np.round(coords).ravel()) <= {-1.0, 0.0, 1.0}

    def test_degree_domain(self):
        with pytest.raises(DomainError):
            fermat_raw_periods(3)
        with pytest.raises(DomainError):
            fermat_raw_periods(16)


class TestNormalize:
    # the g = 2 chain with signs (1, 1, 1), the standard g = 1 block and a member of H_2
    E2 = periods._tridiagonal_intersection((1, 1, 1))
    E1 = [[0, 1], [-1, 0]]
    B = np.array([[1j, 0.3], [0.3, 2j]])

    @staticmethod
    def _table(entries):
        return PeriodMatrix(np.asarray(entries, dtype=complex), kind="raw")

    def _chain_table(self, blocks):
        """The g = 2 table whose symplectic transform under E2 is ``blocks``."""
        T = np.array(symplectic_transform_from_intersection(self.E2), dtype=float)
        return self._table(np.linalg.solve(T, np.vstack(blocks)))

    def test_identity_a_block(self):
        raw = self._chain_table([np.eye(2), self.B])
        pm = normalize(raw, self.E2)
        assert np.allclose(pm.entries, self.B)
        assert pm.g == 2
        assert (pm.kind, pm.raw, list(pm.provenance)) == ("normalized", raw, ["a_block_condition"])

    def test_non_chain_form_reaches_omega(self):
        # J itself is no chain; its basis is T = I, so the table [I; B] has Omega = B
        J = np.eye(4, k=2, dtype=np.int64) - np.eye(4, k=-2, dtype=np.int64)
        pm = normalize(self._table(np.vstack([np.eye(2), self.B])), J)
        assert np.array_equal(pm.entries, self.B)

    def test_singular_a_block_refused(self):
        raw = self._chain_table([np.zeros((2, 2)), np.eye(2)])
        with pytest.raises(NumericError, match="A-block condition number"):
            normalize(raw, self.E2)

    def test_table_not_2g_by_g_refused(self):
        with pytest.raises(ValidationError, match="^raw period table must be 2g x g$"):
            normalize(self._table(np.vstack([np.eye(2), self.B])[:3]), self.E2)

    def test_intersection_size_mismatch_refused(self):
        raw = self._chain_table([np.eye(2), self.B])
        with pytest.raises(ValidationError, match="intersection matrix size does not match"):
            normalize(raw, self.E1)

    def test_float_intersection_matrix_refused(self):
        # truncated to int64, E would be the standard block and Omega = i
        raw = self._table([[1], [1j]])
        with pytest.raises(ValidationError, match="integers within int64"):
            normalize(raw, [[0, 1.7], [-1.7, 0]])

    def test_non_member_refused(self):
        # E1 gives T = I, so A = 1, B = -i and Omega = -i, outside H_1
        with pytest.raises(NumericError) as exc:
            normalize(self._table([[1], [-1j]]), self.E1)
        assert str(exc.value) == (
            "normalized period matrix is not in the Siegel upper half-space "
            "(symmetry residual 0.000e+00, min Im eigenvalue -1.000e+00)"
        )


def _exact_symplectic(T, E) -> bool:
    """T E T^T == [[0, I], [-I, 0]] in Python integers."""
    T, E = np.array(T, dtype=object), np.array(E, dtype=object)
    g = len(T) // 2
    J = np.eye(2 * g, k=g, dtype=int) - np.eye(2 * g, k=-g, dtype=int)
    return (T @ E @ T.T == J).all()


class TestSymplecticReduction:
    # The two closed_form tests are the chain's byte-identity guard: the
    # reduction must return the oracle's T on every chain, which keeps every
    # period file byte-identical.
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
            np.array([[0, -(2**63)], [-(2**63), 0]]),  # int64 wraps -(-2^63): not skew
            [[0, 1, 0, 1], [-1, 0, 1, 0], [0, -1, 0, 1], [-1, 0, -1, 0]],  # Pfaffian 2
            [[0, 1.5], [-1.5, 0]],  # float: int64 would truncate it to the standard block
            [[0, 1.9], [-1.9, 0]],
            [[0.0, 1.0], [-1.0, 0.0]],  # float, though integral
            [[0, 1 + 0j], [-1 + 0j, 0]],  # complex
            np.array([[0, 1], [2**64 - 1, 0]], dtype=np.uint64),  # int64 would wrap it to -1
            [[0, 2**64], [-(2**64), 0]],  # beyond int64: an object array
        ],
    )
    def test_non_chain_rejected(self, E):
        # not a unimodular skew integer form, whether a chain or not
        with pytest.raises(ValidationError):
            symplectic_transform_from_intersection(E)

    def test_ragged_form_refused(self):
        with pytest.raises(ValidationError, match="^intersection matrix must be square of positive"):
            symplectic_transform_from_intersection([[0, 1], [-1]])

    def test_non_chain_forms_accepted(self):
        # J is its own symplectic basis; the chain (1, 1, 1) with c_0 . c_2 = 1 has Pfaffian 1
        J = [[0, 0, 1, 0], [0, 0, 0, 1], [-1, 0, 0, 0], [0, -1, 0, 0]]
        assert symplectic_transform_from_intersection(J) == np.eye(4, dtype=int).tolist()
        E = [[0, 1, 1, 0], [-1, 0, 1, 0], [-1, -1, 0, 1], [0, 0, -1, 0]]
        assert _exact_symplectic(symplectic_transform_from_intersection(E), E)

    @pytest.mark.parametrize("g", range(1, 9))
    def test_unimodular_forms_reduce_exactly(self, g):
        # E = U J U^T for seeded unimodular U; most need the Euclid step
        n = 2 * g
        rng = random.Random(f"unimodular/{g}")
        J = [[(j == i + g) - (i == j + g) for j in range(n)] for i in range(n)]
        for _ in range(20):
            U = [[int(i == j) for j in range(n)] for i in range(n)]
            for _ in range(3 * n):  # row i += +-row j
                i, j = rng.sample(range(n), 2)
                c = rng.choice((1, -1))
                U[i] = [a + c * b for a, b in zip(U[i], U[j])]
            U = np.array(U, dtype=object)
            E = (U @ np.array(J, dtype=object) @ U.T).tolist()
            assert _exact_symplectic(symplectic_transform_from_intersection(E), E)

    @pytest.mark.parametrize("d", range(4, 9))
    def test_fermat_candidate_form_matches_reduction(self, d):
        # E[(a,b),(a',b')] = f(a'-a, b'-b mod d): f(0,1) = f(1,0) = -1, f(1,1) = 1, f(-x) = -f(x)
        f = {(0, 1): -1, (1, 0): -1, (1, 1): 1, (0, d - 1): 1, (d - 1, 0): 1, (d - 1, d - 1): -1}
        cycles = FermatCurve(d).cycles
        E = [[f.get(((a2 - a) % d, (b2 - b) % d), 0) for a2, b2 in cycles] for a, b in cycles]
        T = symplectic_transform_from_intersection(E)
        assert T == reduced_symplectic_transform(E)
        assert _exact_symplectic(T, E)

    def test_reduction_beyond_int64_refused(self):
        # unimodular, but its basis needs the entry K^3 = 2^90: in int64 the reduction
        # wraps to a T that still passes T E T^T = J modulo 2^64, so the bound refuses it
        K = 2**30
        E = [
            [0, 0, 0, 1, -K, K],
            [0, 0, 0, 0, 1, 0],
            [0, 0, 0, 0, 0, 1],
            [-1, 0, 0, 0, 0, K * K],
            [K, -1, 0, 0, 0, 0],
            [-K, 0, -1, -K * K, 0, 0],
        ]
        assert max(map(abs, itertools.chain(*reduced_symplectic_transform(E)))) == K**3
        with pytest.raises(NumericError, match="would leave int64"):
            symplectic_transform_from_intersection(E)

    def test_basis_at_the_int64_scale_accepted(self):
        # T = [c0, c2 - K c1, c1, c3] has max|T| = 2^31 and every partial sum of its
        # check fits in int64, though (n max|T|)^2 max|E| = 2^97
        K = 2**31
        E = [[0, 1, K, 0], [-1, 0, 0, 0], [-K, 0, 0, 1], [0, 0, -1, 0]]
        T = symplectic_transform_from_intersection(E)
        assert max(map(abs, itertools.chain(*T))) == K
        assert _exact_symplectic(T, E)

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
# curves also pin the last bits of the quadrature.  The Fermat pins were
# recorded with the float-rank search over all d^2 translates in place of
# the closed cycle set; a Fermat curve writes its raw table to both files.
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
    "fermat_d4": (
        "e0cd4f6bcd39325f9b1338a6037e58903bef18da3ea8402a0504925b85290f7f",
        "e0cd4f6bcd39325f9b1338a6037e58903bef18da3ea8402a0504925b85290f7f",
    ),
    "fermat_d5": (
        "3ca49ec04ab289bf0ccb2f4b689f5c1ce3cea48a47c3a0f634da1f1ef9fd5500",
        "3ca49ec04ab289bf0ccb2f4b689f5c1ce3cea48a47c3a0f634da1f1ef9fd5500",
    ),
    "fermat_d11": (
        "61e52440525f7f4c0dcb53c61387c5f3ea0a1bec9eeb58bc8ec67d84e264996f",
        "61e52440525f7f4c0dcb53c61387c5f3ea0a1bec9eeb58bc8ec67d84e264996f",
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


def _staged(curve, kind):
    """The raw table and the table of ``kind`` the stages give ``curve``, or their refusal."""
    try:
        if isinstance(curve, FermatCurve):
            raw = fermat_raw_periods(curve.degree).entries
            return raw, raw
        table, E = hyperelliptic_raw_periods(curve, periods.DEFAULT_NODES)
        return table.entries, table.entries if kind == "raw" else normalize(table, E).entries
    except (DomainError, NumericError, ValidationError) as exc:
        return type(exc), str(exc)


def _assert_pipeline_matches_stages(curve, kind, tmp):
    """period_matrix gives the stages' tables bit for bit, or their refusal, and its
    provenance is the meta of the files ``periods --raw-out`` writes."""
    raw, want = _staged(curve, kind)
    try:
        pm = period_matrix(curve, periods.DEFAULT_NODES, kind)
    except (DomainError, NumericError, ValidationError) as exc:
        assert (type(exc), str(exc)) == (raw, want)
        return
    assert isinstance(want, np.ndarray), want
    assert pm.entries.shape == want.shape and pm.entries.tobytes() == want.tobytes()
    assert ((pm.raw or pm).entries.tobytes(), (pm.raw or pm).kind) == (raw.tobytes(), "raw")
    path, out, raw_out = tmp / "curve.json", tmp / "out.json", tmp / "raw.json"
    path.write_text(json.dumps(curve_to_dict(curve)))
    argv = ["periods", "--curve", path, "--kind", kind, "--out", out, "--raw-out", raw_out]
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main([str(a) for a in argv]) == 0
    for table, written in ((pm, out), (pm.raw or pm, raw_out)):
        entries, file_kind, meta = load_period_json(written)
        assert (file_kind, meta) == (table.kind, table.provenance)
        assert entries.tobytes() == table.entries.tobytes()


@settings(max_examples=60, deadline=None)
@given(
    geometry=st.sampled_from(["real", "circle", "complex", "clustered"]),
    g=st.integers(1, 4),
    kind=st.sampled_from(["raw", "normalized"]),
    leading=st.sampled_from(sorted(LEADING)),
    seed=st.integers(0, 2**32 - 1),
)
def test_period_matrix_is_the_staged_pipeline(geometry, g, kind, leading, seed):
    rng = random.Random(seed)
    points = _branch_points(rng, geometry, 2 * g + 1 + rng.randrange(2))
    curve = HyperellipticCurve(points, LEADING[leading](rng))
    with tempfile.TemporaryDirectory() as tmp:
        _assert_pipeline_matches_stages(curve, kind, pathlib.Path(tmp))


@pytest.mark.parametrize("kind", ["raw", "normalized"])
@pytest.mark.parametrize("name", sorted(BUNDLED_CURVES))
def test_period_matrix_of_every_bundled_curve(name, kind, tmp_path):
    _assert_pipeline_matches_stages(bundled_curve(name), kind, tmp_path)


class TestPeriodMatrix:
    def test_raw_kind_never_normalizes(self, monkeypatch):
        def refuse(raw, hom):
            raise AssertionError("normalize called")

        monkeypatch.setattr(periods, "normalize", refuse)
        pm = period_matrix(bundled_curve("g2_x5_minus_1"), kind="raw")
        assert (pm.kind, pm.raw, pm.entries.shape) == ("raw", None, (4, 2))

    @pytest.mark.parametrize("curve", [FermatCurve(4), bundled_curve("g1_lemniscatic")])
    @pytest.mark.parametrize("nodes", [3, periods.MAX_NODES, 256.0])
    def test_nodes_checked_for_both_families(self, curve, nodes):
        with pytest.raises(DomainError, match="^nodes must be "):
            period_matrix(curve, nodes)

    @pytest.mark.parametrize("kind", ["raw", "normalized"])
    def test_unknown_curve_model_refused(self, kind):
        with pytest.raises(ValidationError, match="^unknown curve model: PlaneCurveModel$"):
            period_matrix(PlaneCurveModel(4), kind=kind)

    def test_unknown_kind_refused(self):
        with pytest.raises(ValidationError, match="kind must be 'raw' or 'normalized'"):
            period_matrix(bundled_curve("g1_lemniscatic"), kind="omega")


class TestPeriodFiles:
    def test_roundtrip(self, tmp_path):
        raw, hom = hyperelliptic_raw_periods(bundled_curve("g2_real_quintic"))
        path = tmp_path / "p.json"
        path.write_text(period_json_text(raw.entries, "raw", raw.provenance))
        entries, kind, meta = load_period_json(path)
        assert kind == "raw"
        assert meta == raw.provenance
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


def extend(inner):
    """Lists and objects of ``inner``: one level of META's nesting."""
    return st.one_of(st.lists(inner, max_size=3), st.dictionaries(META_TEXT, inner, max_size=3))


META = st.dictionaries(
    META_TEXT,
    st.recursive(
        st.one_of(st.none(), st.booleans(), st.integers(), FILE_FLOATS, META_TEXT),
        extend,
        max_leaves=8,
    ),
    max_size=4,
)


def _draw_values(draw, values, n):
    """n values picked at random from a few drawn from ``values``.

    Drawing every one of up to 576 values would make each example slow;
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
def period_documents(draw, genus=st.integers(1, 12)):
    """A period file of the shape its kind declares: g x g normalized, 2g x g raw."""
    g, kind = draw(genus), draw(st.sampled_from(["raw", "normalized"]))
    n_rows = g if kind == "normalized" else 2 * g
    numbers = iter(_draw_values(draw, FILE_NUMBERS, 2 * n_rows * g))
    return {
        "g": g,
        "kind": kind,
        "entries": [[[next(numbers), next(numbers)] for _ in range(g)] for _ in range(n_rows)],
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
# replaced, the declared genus off by one, or the other kind declared.
PAIR_ELEMENT_DEFECTS = [True, False, "1.0", [1.0, 0.0], 10**400, -(10**400), None]
PAIR_DEFECTS = [[1.0], [1.0, 2.0, 3.0], [], "1.0", 1.0, [[1.0, 0.0], [0.0, 1.0]], {"re": 1}]
ROW_DEFECTS = ["row", 1.0, None, {"0": [1.0, 0.0]}]
ENTRIES_DEFECTS = [[], [[]], "entries", None, {"0": []}]


@st.composite
def malformed_period_documents(draw):
    data = draw(period_documents(genus=st.integers(2, 6)))
    rows = data["entries"]
    where = draw(st.sampled_from(["element", "pair", "row", "ragged", "entries", "genus", "kind"]))
    if where in ("element", "pair"):
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
    elif where == "genus":
        data["g"] += draw(st.sampled_from([-1, 1]))
    else:  # a raw table declared normalized, or a normalized one declared raw
        data["kind"] = {"raw": "normalized", "normalized": "raw"}[data["kind"]]
    return data


@settings(max_examples=200, deadline=None)
@given(malformed_period_documents())
def test_dict_to_table_refuses_as_pair_decoder(data):
    expected = _decoded(oracles.dict_to_table, data)
    assert expected[0] is ValidationError
    assert _decoded(dict_to_table, data) == expected
