"""Acceptance gate: one printed PASS/FAIL line per criterion.

Each criterion prints its verdict on a line of the form

    ACCEPTANCE <n> <name>: PASS|FAIL <detail>

before asserting, so the full scorecard is visible in any pytest run
(the lines bypass output capture).  All randomized criteria use fixed
seeds and exact or pinned reference values; the pins were recorded from
independent oracles (AGM, Gauss-Jacobi quadrature, cofactor
determinants, exhaustive enumeration) before being asserted here.
"""

import csv
import sys
import time

import numpy as np

from oracles import (
    cofactor_determinant,
    displayed_expression,
    elliptic_K,
    fermat_path_integral,
    fermat_translated_path_integral,
)
from periodlab import cli
from periodlab.curves import PlaneCurveModel, bundled_curve
from periodlab.modsel import (
    BernoulliMatrix,
    exhaustive,
    first_three_rows_indices,
    monte_carlo,
    product_span_rank,
    singularity_rate,
)
from periodlab.periods import (
    fermat_period_closed_form,
    fermat_raw_periods,
    hyperelliptic_raw_periods,
    normalize,
)
from periodlab.perstats import band_limit_score, fit_power_law, spectrum
from periodlab.siegel import random_siegel, validate_siegel

def report(num: int, name: str, ok: bool, detail: str) -> None:
    verdict = "PASS" if ok else "FAIL"
    sys.__stdout__.write(f"ACCEPTANCE {num} {name}: {verdict} {detail}\n")
    sys.__stdout__.flush()
    assert ok, f"criterion {num} ({name}): {detail}"


def test_criterion_01_riemann_relation_gate():
    details = []
    ok = True
    for name in ("g2_x5_minus_1", "g2_real_quintic"):
        t0 = time.time()
        raw, hom = hyperelliptic_raw_periods(bundled_curve(name))
        pm = normalize(raw, hom)
        res = validate_siegel(pm.entries, tol=1e-8)
        dt = time.time() - t0
        ok = ok and res.symmetry_residual <= 1e-8 and res.min_im_eigenvalue > 0.0 and dt < 5.0
        details.append(
            f"{name}: sym={res.symmetry_residual:.2e} min_eig={res.min_im_eigenvalue:.3f} t={dt:.2f}s"
        )
    report(1, "riemann_relation_gate", ok, "; ".join(details))


def test_criterion_02_elliptic_agm_oracle():
    t0 = time.time()
    raw, hom = hyperelliptic_raw_periods(bundled_curve("g1_lemniscatic"))
    pm = normalize(raw, hom)
    # y^2 = x^3 - x has period ratio i * K(k') / K(k) with k = 1/sqrt(2),
    # computed here entirely through the AGM
    ratio_oracle = 1j * elliptic_K((1.0 - 0.5) ** 0.5) / elliptic_K(0.5**0.5)
    err = abs(pm.entries[0, 0] - ratio_oracle)
    dt = time.time() - t0
    ok = err <= 1e-8 and dt < 1.0
    report(2, "elliptic_agm_oracle", ok, f"|tau - oracle|={err:.2e} t={dt:.2f}s")


def test_criterion_03_quadrature_convergence():
    worst = 0.0
    for name in ("g1_lemniscatic", "g2_x5_minus_1", "g2_real_quintic", "g3_real_septic"):
        raw, _ = hyperelliptic_raw_periods(bundled_curve(name))
        worst = max(worst, raw.est_error)
    ok = worst <= 1e-10
    report(3, "quadrature_convergence", ok, f"max doubling change={worst:.2e}")


def test_criterion_04_exhaustive_theorem_oracle():
    t0 = time.time()
    stats = exhaustive(PlaneCurveModel(4))
    # independent census with the cofactor-expansion determinant oracle
    oracle_nonsing = 0
    for code in range(512):
        m = [[(code >> (3 * i + j)) & 1 for j in range(3)] for i in range(3)]
        if cofactor_determinant(m) != 0:
            oracle_nonsing += 1
    dt = time.time() - t0
    ok = (
        stats.trials == 512
        and stats.nonsingular_count == oracle_nonsing == 174
        and stats.successes == stats.nonsingular_count  # success <=> nonsingular
        and dt < 1.0
    )
    report(
        4,
        "exhaustive_theorem_oracle",
        ok,
        f"nonsingular={stats.nonsingular_count} oracle={oracle_nonsing} "
        f"successes={stats.successes}/512 t={dt:.2f}s",
    )


def test_criterion_05_monte_carlo_consistency_d4():
    t0 = time.time()
    n = 100000
    stats = monte_carlo(PlaneCurveModel(4), 0.5, n, 2718)
    target = 174.0 / 512.0
    se = (stats.estimate * (1.0 - stats.estimate) / n) ** 0.5
    dt = time.time() - t0
    ok = abs(stats.estimate - target) <= 3.0 * se and dt < 30.0
    report(
        5,
        "monte_carlo_consistency_d4",
        ok,
        f"estimate={stats.estimate:.5f} target={target:.5f} |diff|/se="
        f"{abs(stats.estimate - target) / se:.2f} t={dt:.1f}s",
    )


def test_criterion_06_main_theorem_experiment_d5():
    t0 = time.time()
    model = PlaneCurveModel(5)
    g = model.genus
    idx = first_three_rows_indices(g)
    identity = BernoulliMatrix(
        g=g,
        entries=tuple(tuple(int(i == j) for j in range(g)) for i in range(g)),
        p=0.0,
        seed=0,
    )
    id_rank = product_span_rank(model, identity, idx)
    n = 10000
    a = monte_carlo(model, 0.5, n, 101)
    b = monte_carlo(model, 0.5, n, 202)
    se_a = (a.estimate * (1.0 - a.estimate) / n) ** 0.5
    se_b = (b.estimate * (1.0 - b.estimate) / n) ** 0.5
    combined = (se_a**2 + se_b**2) ** 0.5
    displayed = displayed_expression(g)
    dt = time.time() - t0
    ok = (
        id_rank <= 14
        and abs(a.estimate - b.estimate) <= 2.0 * combined
        and a.estimate - 5.0 * se_a > displayed
        and dt < 120.0
    )
    report(
        6,
        "main_theorem_experiment_d5",
        ok,
        f"identity_rank={id_rank} estimates=({a.estimate:.4f},{b.estimate:.4f}) "
        f"seed_gap/se={abs(a.estimate - b.estimate) / combined:.2f} "
        f"displayed={displayed:.3e} "
        f"t={dt:.1f}s",
    )


def test_criterion_07_singularity_rates():
    n = 100000
    g3 = singularity_rate(3, 0.5, n, 11)
    target = 338.0 / 512.0
    se = (g3.estimate * (1.0 - g3.estimate) / n) ** 0.5
    rates = [g3.estimate]
    for g in range(4, 9):
        rates.append(singularity_rate(g, 0.5, n, 11).estimate)
    monotone = all(x > y for x, y in zip(rates, rates[1:]))
    ok = abs(g3.estimate - target) <= 3.0 * se and monotone
    report(
        7,
        "singularity_rates",
        ok,
        f"g3={g3.estimate:.5f} target={target:.5f} rates(g=3..8)="
        f"{[f'{r:.4f}' for r in rates]} monotone={monotone}",
    )


def test_criterion_08_fermat_cross_validation(tmp_path):
    t0 = time.time()
    worst_rel = 0.0
    for d in (4, 5):
        for r in range(1, d - 1):
            for s in range(1, d - r):
                closed = fermat_period_closed_form(d, r, s, 0, 0)
                oracle = fermat_path_integral(d, r, s)
                worst_rel = max(worst_rel, abs(closed - oracle) / abs(oracle))
        for a, b in ((1, 0), (0, 1), (1, 2)):
            closed = fermat_period_closed_form(d, 1, 1, a, b)
            oracle = fermat_translated_path_integral(d, 1, 1, a, b)
            worst_rel = max(worst_rel, abs(closed - oracle) / abs(oracle))
    table = fermat_raw_periods(11)
    spec = spectrum(table.entries[0])  # one squared modulus per differential
    csv_path = tmp_path / "fermat_d11_spectrum.csv"
    with open(csv_path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["rank", "squared_modulus"])
        for rank, v in enumerate(spec.values, start=1):
            w.writerow([rank, repr(v)])
    fit = fit_power_law(spec)
    vals = np.asarray(spec.values)
    monotone = bool(np.all(np.diff(vals) <= 0.0))
    decades = float(np.log10(vals[0] / vals[-1]))
    dt = time.time() - t0
    ok = (
        worst_rel <= 1e-8
        and len(spec) == 45
        and monotone
        and decades >= 3.0
        and dt < 120.0
    )
    report(
        8,
        "fermat_cross_validation",
        ok,
        f"closed-form rel err={worst_rel:.2e} spectrum_len={len(spec)} "
        f"monotone={monotone} decay_decades={decades:.2f} "
        f"fit_exponent={fit.exponent:.3f} r2={fit.r_squared:.3f} t={dt:.1f}s",
    )


def test_criterion_09_band_limiting():
    raw, _ = hyperelliptic_raw_periods(bundled_curve("g2_real_quintic"))
    curve_score = band_limit_score(raw.entries.ravel()).score
    # pinned threshold 0.2: over seeds 0..99 the minimum observed score for
    # random 6x6 Siegel samples is 0.233, so >= 95/100 clear it
    threshold = 0.2
    above = sum(
        band_limit_score(random_siegel(6, seed).ravel()).score > threshold
        for seed in range(100)
    )
    ok = curve_score <= 1e-6 and above >= 95
    report(
        9,
        "band_limiting",
        ok,
        f"real-curve score={curve_score:.2e} random seeds above {threshold}: {above}/100",
    )


def test_criterion_10_cli_determinism(tmp_path):
    pairs = []
    for tag, argv in (
        (
            "select",
            ["select", "--model", "quartic", "--trials", "200", "--seed", "5", "--out"],
        ),
        ("siegel-sample", ["siegel-sample", "--g", "4", "--seed", "5", "--out"]),
    ):
        a = tmp_path / f"{tag}_a.out"
        b = tmp_path / f"{tag}_b.out"
        assert cli.main(argv + [str(a)]) == 0
        assert cli.main(argv + [str(b)]) == 0
        pairs.append((tag, a.read_bytes() == b.read_bytes()))
    ok = all(same for _, same in pairs)
    report(10, "cli_determinism", ok, "; ".join(f"{t}: identical={s}" for t, s in pairs))
