import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from periodlab.curves import (
    BUNDLED_CURVES,
    MAX_GENUS,
    FermatCurve,
    HyperellipticCurve,
    PlaneCurveModel,
    bundled_curve,
    curve_from_dict,
    curve_to_dict,
    load_curve,
    moduli_count,
    monomials_of_degree,
    period_count,
)
from periodlab.errors import DomainError, ValidationError


def test_genus_examples():
    assert HyperellipticCurve([0, 1, 2, 3, 4]).genus == 2
    assert FermatCurve(11).genus == 45
    assert PlaneCurveModel(5).genus == 6
    assert HyperellipticCurve([-1, 0, 1]).genus == 1


def test_hyperelliptic_validation():
    with pytest.raises(ValidationError):
        HyperellipticCurve([0, 1, 1])  # duplicate branch point
    with pytest.raises(ValidationError):
        HyperellipticCurve([0, 1])  # too few roots
    with pytest.raises(ValidationError):
        HyperellipticCurve([0, 1, 2], leading_coefficient=0)


def test_hyperelliptic_genus_limit():
    # 2 * MAX_GENUS + 2 = 2,050 points is genus MAX_GENUS; one more is refused
    assert HyperellipticCurve(range(2 * MAX_GENUS + 2)).genus == MAX_GENUS
    with pytest.raises(ValidationError, match=f"at most {2 * MAX_GENUS + 2} "):
        HyperellipticCurve(range(2 * MAX_GENUS + 3))


# signed zeros, which compare equal, and finite complex numbers of any size
POINTS = st.one_of(
    st.sampled_from([0j, complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0), 1 + 0j]),
    st.complex_numbers(allow_nan=False, allow_infinity=False),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(POINTS, min_size=3, max_size=60), st.data())
def test_distinctness_matches_pairwise_oracle(points, data):
    if data.draw(st.booleans(), label="duplicate"):
        # copy one point over another, at any two positions
        i, j = (data.draw(st.integers(0, len(points) - 1)) for _ in range(2))
        points[j] = points[i]
    distinct = all(p != q for k, p in enumerate(points) for q in points[k + 1 :])
    if distinct:
        assert HyperellipticCurve(points).branch_points == tuple(points)
    else:
        with pytest.raises(ValidationError, match="pairwise distinct"):
            HyperellipticCurve(points)


@pytest.mark.parametrize(
    "points, leading",
    [
        ([0, float("nan"), 2], 1.0),
        ([0, 1, complex(2, float("inf"))], 1.0),
        ([0, 1, 2], complex(float("nan"), 0.0)),
        ([0, 1, 2], float("-inf")),
    ],
)
def test_hyperelliptic_rejects_non_finite(points, leading):
    with pytest.raises(ValidationError, match="finite"):
        HyperellipticCurve(points, leading)


def test_moduli_count():
    assert moduli_count(2) == 3
    assert moduli_count(6) == 15
    assert moduli_count(45) == 132
    with pytest.raises(DomainError):
        moduli_count(1)


def test_period_count():
    assert period_count(2) == 3
    assert period_count(6) == 21
    assert period_count(45) == 1035
    with pytest.raises(DomainError):
        period_count(0)


@pytest.mark.parametrize("d", [4, 5])
def test_plane_model_dimensions(d):
    model = PlaneCurveModel(d)
    g = model.genus
    assert len(model.diff_monomials) == g
    assert len(model.quad_monomials) == 3 * g - 3
    assert all(sum(m) == d - 3 for m in model.diff_monomials)
    assert all(sum(m) == 2 * (d - 3) for m in model.quad_monomials)


def test_plane_model_degree_domain():
    for d in (3, 6):
        with pytest.raises(ValidationError):
            PlaneCurveModel(d)


def test_monomial_ordering_degree_two():
    # x^2, xy, y^2, xz, yz, z^2
    assert monomials_of_degree(2) == [
        (2, 0, 0),
        (1, 1, 0),
        (0, 2, 0),
        (1, 0, 1),
        (0, 1, 1),
        (0, 0, 2),
    ]


def test_fermat_diff_exponents():
    c = FermatCurve(11)
    exps = c.diff_exponents
    assert len(exps) == 45
    assert all(r >= 1 and s >= 1 and r + s <= 10 for r, s in exps)
    with pytest.raises(ValidationError):
        FermatCurve(3)
    with pytest.raises(ValidationError):
        FermatCurve(16)


def test_roundtrip_preserves_ordering(tmp_path):
    for name, curve in BUNDLED_CURVES.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(curve_to_dict(curve)))
        loaded = load_curve(path)
        assert loaded.genus == curve.genus
        if isinstance(curve, HyperellipticCurve):
            assert loaded.branch_points == curve.branch_points


def test_parser_rejects_with_named_rule():
    with pytest.raises(ValidationError, match="type"):
        curve_from_dict({})
    with pytest.raises(ValidationError, match="branch_points"):
        curve_from_dict({"type": "hyperelliptic"})
    with pytest.raises(ValidationError, match="distinct"):
        curve_from_dict({"type": "hyperelliptic", "branch_points": [[0, 0], [0, 0], [1, 0]]})
    with pytest.raises(ValidationError, match="degree"):
        curve_from_dict({"type": "fermat"})
    with pytest.raises(ValidationError, match="unknown curve type"):
        curve_from_dict({"type": "conic"})


def test_bundled_curve_lookup():
    assert bundled_curve("g3_real_septic").genus == 3
    with pytest.raises(ValidationError):
        bundled_curve("nope")


def test_curve_json_is_valid_json(tmp_path):
    path = tmp_path / "c.json"
    path.write_text(json.dumps(curve_to_dict(bundled_curve("g2_x5_minus_1"))))
    data = json.loads(path.read_text())
    assert data["type"] == "hyperelliptic"
    assert len(data["branch_points"]) == 5
