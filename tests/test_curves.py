import json

import pytest

from periodlab.curves import (
    BUNDLED_CURVES,
    FermatCurve,
    HyperellipticCurve,
    PlaneCurveModel,
    bundled_curve,
    curve_from_dict,
    curve_to_dict,
    genus,
    load_curve,
    moduli_count,
    monomials_of_degree,
    period_count,
    save_curve,
)
from periodlab.errors import DomainError, ValidationError


def test_genus_examples():
    assert genus(HyperellipticCurve([0, 1, 2, 3, 4])) == 2
    assert genus(FermatCurve(11)) == 45
    assert genus(PlaneCurveModel(5)) == 6
    assert genus(HyperellipticCurve([-1, 0, 1])) == 1


def test_hyperelliptic_validation():
    with pytest.raises(ValidationError):
        HyperellipticCurve([0, 1, 1])  # duplicate branch point
    with pytest.raises(ValidationError):
        HyperellipticCurve([0, 1])  # too few roots
    with pytest.raises(ValidationError):
        HyperellipticCurve([0, 1, 2], leading_coefficient=0)


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


def test_point_at_infinity_flag():
    assert HyperellipticCurve([0, 1, 2, 3, 4]).point_at_infinity_is_branch
    assert not HyperellipticCurve([0, 1, 2, 3, 4, 5]).point_at_infinity_is_branch


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


def test_roundtrip_preserves_ordering(tmp_path):
    for name, curve in BUNDLED_CURVES.items():
        path = tmp_path / f"{name}.json"
        save_curve(curve, path)
        loaded = load_curve(path)
        assert genus(loaded) == genus(curve)
        if isinstance(curve, HyperellipticCurve):
            assert loaded.branch_points == curve.branch_points
    model = PlaneCurveModel(5)
    again = curve_from_dict(curve_to_dict(model))
    assert again.diff_monomials == model.diff_monomials
    assert again.quad_monomials == model.quad_monomials


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
    assert genus(bundled_curve("g3_real_septic")) == 3
    with pytest.raises(ValidationError):
        bundled_curve("nope")


def test_curve_json_is_valid_json(tmp_path):
    path = tmp_path / "c.json"
    save_curve(bundled_curve("g2_x5_minus_1"), path)
    data = json.loads(path.read_text())
    assert data["type"] == "hyperelliptic"
    assert len(data["branch_points"]) == 5
