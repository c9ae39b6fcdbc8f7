"""Command-line front end.

Subcommands map one-to-one onto library operations: ``periods``,
``validate``, ``select``, ``exhaustive``, ``singularity``, ``stats``,
``siegel-sample`` and ``bounds``.  All randomness flows through explicit
--seed flags, outputs are written atomically (temp file + rename), and
every command prints a single machine-readable key=value summary line.

Exit codes: 0 success / membership, 2 argument parse failure,
3 validation failure (including Siegel non-membership), 4 numeric
failure (including a computed period matrix outside the Siegel upper
half-space, which ``periods`` refuses to write).
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import os
import sys
import tempfile

import numpy as np

from . import curves, modsel, periods, perstats, siegel
from .errors import DomainError, NumericError, PeriodLabError, ValidationError

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_VALIDATION = 3
EXIT_NUMERIC = 4


@contextlib.contextmanager
def _atomic_output(path):
    """Yield a temp path that replaces ``path`` only on success."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".periodlab-", suffix=".tmp")
    os.close(fd)
    try:
        yield tmp
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _summary(command: str, **fields) -> None:
    parts = [command] + [f"{k}={v}" for k, v in fields.items()]
    print(" ".join(parts))


def _json_dump(path, payload) -> None:
    with _atomic_output(path) as tmp:
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")


def _load_model(name: str) -> curves.PlaneCurveModel:
    table = {"quartic": 4, "quintic": 5}
    if name not in table:
        raise ValidationError("model must be 'quartic' or 'quintic'")
    return curves.PlaneCurveModel(table[name])


# ---------------------------------------------------------------------------
# Subcommand handlers


def _cmd_periods(args) -> int:
    if args.curve:
        curve = curves.load_curve(args.curve)
        curve_label = args.curve
    else:
        curve = curves.bundled_curve(args.bundled)
        curve_label = args.bundled
    if isinstance(curve, curves.FermatCurve):
        table = periods.fermat_raw_periods(curve.degree)
        meta = {
            "curve": curves.curve_to_dict(curve),
            "nodes": 0,
            "est_error": 0.0,
            "row_labels": [list(c) for c in table.cycles],
            "col_labels": [list(e) for e in table.diff_exponents],
        }
        with _atomic_output(args.out) as tmp:
            periods.save_period_json(tmp, table.entries, "raw", meta)
        _summary("periods", curve=curve_label, g=table.g, kind="raw", out=args.out)
        return EXIT_OK
    if not isinstance(curve, curves.HyperellipticCurve):
        raise ValidationError("plane-curve models carry no period integrals")
    raw, hom = periods.hyperelliptic_raw_periods(curve, nodes=args.nodes)
    meta = {
        "curve": curves.curve_to_dict(curve),
        "nodes": raw.quadrature_nodes,
        "est_error": raw.est_error,
        "converged": raw.converged,
        "bilinear_residual": hom.bilinear_residual,
        "positive_form_min_eig": hom.positive_form_min_eig,
    }
    entries, kind, out_meta = raw.entries, "raw", meta
    if args.kind == "normalized":
        pm = periods.normalize(raw, hom)
        check = siegel.validate_siegel(pm.entries)
        if not check.is_member:
            raise NumericError(
                "normalized period matrix is not in the Siegel upper half-space "
                f"(symmetry residual {check.symmetry_residual:.3e}, "
                f"min Im eigenvalue {check.min_im_eigenvalue:.3e})"
            )
        entries, kind, out_meta = pm.entries, "normalized", {**meta, **pm.provenance}
    if args.raw_out:
        with _atomic_output(args.raw_out) as tmp:
            periods.save_period_json(tmp, raw.entries, "raw", meta)
    with _atomic_output(args.out) as tmp:
        periods.save_period_json(tmp, entries, kind, out_meta)
    _summary(
        "periods",
        curve=curve_label,
        g=raw.g,
        kind=kind,
        nodes=raw.quadrature_nodes,
        est_error=f"{raw.est_error:.3e}",
        out=args.out,
    )
    return EXIT_OK


def _cmd_validate(args) -> int:
    entries, kind, _meta = periods.load_period_json(args.path)
    if entries.shape[0] != entries.shape[1]:
        raise ValidationError("validate requires a square (normalized) period table")
    result = siegel.validate_siegel(entries, tol=args.tol)
    _summary(
        "validate",
        path=args.path,
        kind=kind,
        symmetry_residual=f"{result.symmetry_residual:.3e}",
        min_im_eigenvalue=f"{result.min_im_eigenvalue:.3e}",
        member=int(result.is_member),
    )
    return EXIT_OK if result.is_member else EXIT_VALIDATION


def _cmd_select(args) -> int:
    model = _load_model(args.model)
    records = modsel.run_trials(model, args.p, args.trials, args.seed)
    succ = sum(r.success for r in records)
    nonsing = sum(r.matrix_nonsingular for r in records)
    stats = modsel._stats(args.trials, succ, nonsing)
    with _atomic_output(args.out) as tmp:
        modsel.write_trial_log(records, tmp)
    payload = {**stats.as_dict(), "paper_bounds": dict(modsel.paper_bounds(model.genus))}
    if args.summary:
        _json_dump(args.summary, payload)
    _summary(
        "select",
        model=args.model,
        p=args.p,
        trials=args.trials,
        seed=args.seed,
        successes=succ,
        estimate=f"{stats.estimate:.6f}",
        out=args.out,
    )
    return EXIT_OK


def _cmd_exhaustive(args) -> int:
    model = _load_model(args.model)
    stats = modsel.exhaustive(model)
    payload = {**stats.as_dict(), "paper_bounds": dict(modsel.paper_bounds(model.genus))}
    if args.summary:
        _json_dump(args.summary, payload)
    _summary(
        "exhaustive",
        model=args.model,
        trials=stats.trials,
        successes=stats.successes,
        nonsingular=stats.nonsingular_count,
        estimate=f"{stats.estimate:.6f}",
    )
    return EXIT_OK


def _cmd_singularity(args) -> int:
    stats = modsel.singularity_rate(args.g, args.p, args.trials, args.seed)
    if args.summary:
        _json_dump(args.summary, stats.as_dict())
    _summary(
        "singularity",
        g=args.g,
        p=args.p,
        trials=args.trials,
        seed=args.seed,
        singular=stats.successes,
        estimate=f"{stats.estimate:.6f}",
    )
    return EXIT_OK


def _cmd_stats(args) -> int:
    entries, kind, _meta = periods.load_period_json(args.input)
    values = entries.ravel()
    spec = perstats.spectrum(values)
    if args.spectrum:
        with _atomic_output(args.spectrum) as tmp:
            with open(tmp, "w", newline="", encoding="utf-8") as fh:
                w = csv.writer(fh)
                w.writerow(["rank", "squared_modulus"])
                for rank, v in enumerate(spec.values, start=1):
                    w.writerow([rank, repr(v)])
    if args.hist:
        hist = perstats.arg_histogram(values, args.bins)
        with _atomic_output(args.hist) as tmp:
            with open(tmp, "w", newline="", encoding="utf-8") as fh:
                w = csv.writer(fh)
                w.writerow(["bin_center", "count"])
                for center, count in hist:
                    w.writerow([repr(center), count])
    fit = None
    if args.fit:
        fit = perstats.fit_power_law(spec)
        _json_dump(
            args.fit,
            {
                "exponent": fit.exponent,
                "intercept": fit.intercept,
                "r_squared": fit.r_squared,
                "excluded_zeros": fit.excluded_zeros,
            },
        )
    band = perstats.band_limit_score(values)
    fields = {
        "input": args.input,
        "kind": kind,
        "count": spec.source_count,
        "band_limit_score": f"{band.score:.6f}",
    }
    if args.k:
        fields["best_k_energy"] = f"{perstats.best_k_energy(spec, args.k):.6f}"
    if fit is not None:
        fields["exponent"] = f"{fit.exponent:.6f}"
        fields["r_squared"] = f"{fit.r_squared:.6f}"
    _summary("stats", **fields)
    return EXIT_OK


def _cmd_siegel_sample(args) -> int:
    m = siegel.random_siegel(args.g, args.seed, args.scale)
    meta = {"synthetic": True, "seed": args.seed, "scale": args.scale}
    with _atomic_output(args.out) as tmp:
        periods.save_period_json(tmp, m, "normalized", meta)
    _summary("siegel-sample", g=args.g, seed=args.seed, scale=args.scale, out=args.out)
    return EXIT_OK


def _cmd_bounds(args) -> int:
    values = modsel.paper_bounds(args.g)
    print(json.dumps({"g": args.g, "bounds": dict(values)}, sort_keys=True))
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="periodlab",
        description="Period matrices, Siegel validation, and moduli-selection experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("periods", help="compute a period table for a curve file")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--curve", help="curve description JSON file")
    src.add_argument("--bundled", help="name of a bundled curve")
    p.add_argument("--nodes", type=int, default=periods.DEFAULT_NODES)
    p.add_argument("--kind", choices=["raw", "normalized"], default="normalized")
    p.add_argument("--raw-out", help="also write the raw 2g x g table here")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_periods)

    p = sub.add_parser("validate", help="check Siegel membership of a period file")
    p.add_argument("path")
    p.add_argument("--tol", type=float, default=siegel.DEFAULT_TOL)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("select", help="Monte Carlo moduli-selection trials")
    p.add_argument("--model", required=True, help="quartic or quintic")
    p.add_argument("--p", type=float, default=0.5)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True, help="trial log CSV")
    p.add_argument("--summary", help="stats summary JSON")
    p.set_defaults(func=_cmd_select)

    p = sub.add_parser("exhaustive", help="enumerate every 0/1 matrix (small genus)")
    p.add_argument("--model", required=True)
    p.add_argument("--summary", help="stats summary JSON")
    p.set_defaults(func=_cmd_exhaustive)

    p = sub.add_parser("singularity", help="estimate Pr[M singular] exactly")
    p.add_argument("--g", type=int, required=True)
    p.add_argument("--p", type=float, default=0.5)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--summary", help="stats summary JSON")
    p.set_defaults(func=_cmd_singularity)

    p = sub.add_parser("stats", help="spectrum / fit / histogram of a period file")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--spectrum", help="spectrum CSV output")
    p.add_argument("--hist", help="argument histogram CSV output")
    p.add_argument("--bins", type=int, default=32)
    p.add_argument("--fit", help="power-law fit JSON output")
    p.add_argument("--k", type=int, help="report best-k energy for this k")
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("siegel-sample", help="random element of the Siegel upper half-space")
    p.add_argument("--g", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--scale", type=float, default=1.0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_siegel_sample)

    p = sub.add_parser("bounds", help="evaluate the labeled probability expressions")
    p.add_argument("--g", type=int, required=True)
    p.set_defaults(func=_cmd_bounds)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except DomainError as exc:
        # a numeric flag outside the preconditions of the operation it feeds
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except NumericError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except PeriodLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except json.JSONDecodeError as exc:
        print(f"error: malformed JSON input: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
