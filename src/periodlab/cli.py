"""Command-line front end.

Subcommands map one-to-one onto library operations: ``periods``,
``validate``, ``select``, ``exhaustive``, ``singularity``, ``stats`` and
``siegel-sample``.  All randomness flows through explicit --seed flags,
and every command prints a single machine-readable key=value summary line.

Handlers only call the library and render what it returns: ``periods``
loads the curve, calls ``periods.period_matrix`` and writes the table and
its file meta as they come.  ``main`` prints, maps exceptions to exit codes and
writes all of a command's outputs, each a stream of text blocks, or none, as
one transaction.  The output targets are checked right after parsing as well,
before any work: a target named twice, in a missing directory or naming a
directory is refused at once, with the same ``error:`` line the write would
give.  Every refusal, argparse's included, is an exception whose class alone
gives the exit code (see ``errors``), and ``main`` prints it as one
``error:`` line.  The parser is built once per process and reused by every
``main`` call, so in-process callers pay only the parse; argparse keeps no
state between calls, as each ``parse_args`` fills a fresh namespace.  Only
``curves`` and ``errors`` load with this module: each handler imports what it
runs, and passes ``--nodes`` or ``--tol`` its library default when absent.

Exit codes: 0 success / membership, 2 bad arguments or a path that cannot
be read or written, 3 validation failure (including malformed input and
Siegel non-membership), 4 numeric failure (including a computed period
matrix outside the Siegel upper half-space, which ``periods`` refuses to
write).  ``--help`` exits 0 through argparse.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import json
import os
import stat
import sys

from . import curves
from .errors import DomainError, NumericError, PeriodLabError, ValidationError

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_VALIDATION = 3
EXIT_NUMERIC = 4

# The plane-curve models of --model, by name; also argparse's choices.
MODELS = {"quartic": curves.PlaneCurveModel(4), "quintic": curves.PlaneCurveModel(5)}

# Exceptions that end a command, and their exit codes; the first match wins.
EXIT_CODES = {
    DomainError: EXIT_USAGE,
    NumericError: EXIT_NUMERIC,
    PeriodLabError: EXIT_VALIDATION,
    OSError: EXIT_USAGE,
}


def _summary(command: str, **fields) -> str:
    return " ".join([command] + [f"{k}={v}" for k, v in fields.items()])


def _json_text(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _check_targets(paths) -> list[str]:
    """The absolute paths of the output ``paths``, refused unless each can be written.

    A path is refused when another output names the same file, when its
    directory does not exist, or when it is a directory.  A path that
    exists costs one ``stat``: every command checks its targets twice.
    """
    fulls = [os.path.abspath(path) for path in paths]
    for path, full in zip(paths, fulls):
        if fulls.count(full) > 1:
            raise DomainError(f"cannot write {path}: named as more than one output")
        try:
            is_dir = stat.S_ISDIR(os.stat(full).st_mode)
        except OSError:  # nothing there yet, so its directory must exist
            is_dir = False
            if not os.path.isdir(os.path.dirname(full)):
                raise DomainError(f"cannot write {path}: no such directory") from None
        if is_dir:
            raise DomainError(f"cannot write {path}: is a directory")
    return fulls


def _commit(outputs) -> None:
    """Write every ``(path, blocks)`` of ``outputs``, or none of them.

    All targets are checked again (``main`` checked them before the command
    ran, but the file system may have changed since), then the blocks of each
    output are written in turn to a temp file beside its target, then all are
    renamed into place.  A failed write names the requested path; it, or an
    exception raised by a block, leaves no file behind.  One window remains: a
    rename that fails after earlier renames succeeded keeps those files.  Each
    temp file, ``.periodlab-<random>.tmp``, is created by ``open`` in exclusive
    mode, so it gets mode 0o666 less the umask and never replaces a file.
    """
    fulls = _check_targets([path for path, _blocks in outputs])
    temps, renamed = [], 0
    try:
        for (target, blocks), full in zip(outputs, fulls):
            tmp = os.path.join(os.path.dirname(full), f".periodlab-{os.urandom(8).hex()}.tmp")
            with open(tmp, "x", encoding="utf-8", newline="") as fh:
                temps.append(tmp)
                fh.writelines(blocks)
        for (target, _blocks), tmp in zip(outputs, temps):
            os.replace(tmp, target)
            renamed += 1
    except OSError as exc:
        raise DomainError(f"cannot write {target}: {exc.strerror or exc}") from exc
    finally:
        for tmp in temps[renamed:]:
            with contextlib.suppress(FileNotFoundError):
                os.unlink(tmp)


# ---------------------------------------------------------------------------
# Subcommand handlers: each returns (exit code, summary line, outputs), where
# outputs lists the (requested path, text blocks) of every file it writes.


def _cmd_periods(args):
    from . import periods
    label = args.curve or args.bundled
    curve = curves.load_curve(label) if args.curve else curves.bundled_curve(label)
    nodes = periods.DEFAULT_NODES if args.nodes is None else args.nodes
    pm = periods.period_matrix(curve, nodes, args.kind)
    text = periods.period_json_text(pm.entries, pm.kind, pm.provenance)
    outputs = [(args.out, [text])]
    if args.raw_out:
        if pm.raw is not None:  # else the table is raw, and its own raw file
            text = periods.period_json_text(pm.raw.entries, "raw", pm.raw.provenance)
        outputs.append((args.raw_out, [text]))
    m = pm.provenance  # a closed-form table used no nodes
    fields = {"nodes": m["nodes"], "est_error": f"{m['est_error']:.3e}"} if m["nodes"] else {}
    line = _summary("periods", curve=label, g=pm.g, kind=pm.kind, **fields, out=args.out)
    return EXIT_OK, line, outputs


def _cmd_validate(args):
    from . import periods, siegel
    entries, kind, _meta = periods.load_period_json(args.path)
    if entries.shape[0] != entries.shape[1]:
        raise ValidationError("validate requires a square (normalized) period table")
    tol = siegel.DEFAULT_TOL if args.tol is None else args.tol
    result = siegel.validate_siegel(entries, tol=tol)
    line = _summary(
        "validate",
        path=args.path,
        kind=kind,
        symmetry_residual=f"{result.symmetry_residual:.3e}",
        min_im_eigenvalue=f"{result.min_im_eigenvalue:.3e}",
        member=int(result.is_member),
    )
    return (EXIT_OK if result.is_member else EXIT_VALIDATION), line, []


def _cmd_select(args):
    from . import modsel
    model = MODELS[args.model]
    stats, log = modsel.run_selection(model, args.p, args.trials, args.seed, records=True)
    outputs = [(args.out, modsel.trial_log_rows(log))]
    if args.summary:
        outputs.append((args.summary, [_json_text(dataclasses.asdict(stats))]))
    line = _summary(
        "select",
        model=args.model,
        p=args.p,
        trials=args.trials,
        seed=args.seed,
        successes=stats.successes,
        estimate=f"{stats.estimate:.6f}",
        out=args.out,
    )
    return EXIT_OK, line, outputs


def _cmd_exhaustive(args):
    from . import modsel
    stats = modsel.exhaustive(MODELS[args.model])
    outputs = [(args.summary, [_json_text(dataclasses.asdict(stats))])] if args.summary else []
    line = _summary(
        "exhaustive",
        model=args.model,
        trials=stats.trials,
        successes=stats.successes,
        nonsingular=stats.nonsingular_count,
        estimate=f"{stats.estimate:.6f}",
    )
    return EXIT_OK, line, outputs


def _cmd_singularity(args):
    from . import modsel
    stats = modsel.singularity_rate(args.g, args.p, args.trials, args.seed)
    outputs = [(args.summary, [_json_text(dataclasses.asdict(stats))])] if args.summary else []
    line = _summary(
        "singularity",
        g=args.g,
        p=args.p,
        trials=args.trials,
        seed=args.seed,
        singular=stats.successes,
        estimate=f"{stats.estimate:.6f}",
    )
    return EXIT_OK, line, outputs


def _cmd_stats(args):
    from . import periods, perstats
    entries, kind, _meta = periods.load_period_json(args.input)
    values = entries.ravel()
    spec = perstats.spectrum(values)
    bins = perstats.check_bins(args.bins)
    outputs = []  # CSV rows as csv.writer writes them: no float repr needs quoting
    if args.spectrum:
        rows = ["%d,%r\r\n" % row for row in enumerate(spec.values, start=1)]
        outputs.append((args.spectrum, ["rank,squared_modulus\r\n", *rows]))
    if args.hist:
        hist = perstats.arg_histogram(values, bins)
        rows = ["%r,%d\r\n" % row for row in hist]
        outputs.append((args.hist, ["bin_center,count\r\n", *rows]))
    fit = None
    if args.fit:
        fit = perstats.fit_power_law(spec)
        outputs.append((args.fit, [_json_text(dataclasses.asdict(fit))]))
    band = perstats.band_limit_score(values)
    fields = {
        "input": args.input,
        "kind": kind,
        "count": spec.source_count,
        "band_limit_score": f"{band.score:.6f}",
    }
    if args.k is not None:
        fields["best_k_energy"] = f"{perstats.best_k_energy(spec, args.k):.6f}"
    if fit is not None:
        fields["exponent"] = f"{fit.exponent:.6f}"
        fields["r_squared"] = f"{fit.r_squared:.6f}"
    return EXIT_OK, _summary("stats", **fields), outputs


def _cmd_siegel_sample(args):
    from . import periods, siegel
    m = siegel.random_siegel(args.g, args.seed, args.scale)
    meta = {"synthetic": True, "seed": args.seed, "scale": args.scale}
    outputs = [(args.out, [periods.period_json_text(m, "normalized", meta)])]
    line = _summary("siegel-sample", g=args.g, seed=args.seed, scale=args.scale, out=args.out)
    return EXIT_OK, line, outputs


# ---------------------------------------------------------------------------
# Parser


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose refusals raise DomainError instead of exiting."""

    def error(self, message):
        raise DomainError(message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The process's one parser, shared by every caller: parse with it, never modify it.

    Each subcommand sets ``func``, its handler, and ``outputs``, the names
    of its output-path arguments in the order the handler writes them.
    """
    parser = _Parser(
        prog="periodlab",
        description="Period matrices, Siegel validation, and moduli-selection experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("periods", help="compute a period table for a curve file")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--curve", help="curve description JSON file")
    src.add_argument("--bundled", choices=curves.BUNDLED_CURVES, help="name of a bundled curve")
    p.add_argument("--nodes", type=int)
    p.add_argument(
        "--kind",
        choices=["raw", "normalized"],
        default="normalized",
        help="table to write to --out; a Fermat curve always writes its raw table "
        "(kind=raw): its path translates are not a symplectic basis",
    )
    p.add_argument("--raw-out", help="also write the raw 2g x g table here")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_periods, outputs=("out", "raw_out"))

    p = sub.add_parser("validate", help="check Siegel membership of a period file")
    p.add_argument("path")
    p.add_argument("--tol", type=float)
    p.set_defaults(func=_cmd_validate, outputs=())

    p = sub.add_parser("select", help="Monte Carlo moduli-selection trials")
    p.add_argument("--model", required=True, choices=MODELS)
    p.add_argument("--p", type=float, default=0.5)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True, help="trial log CSV")
    p.add_argument("--summary", help="stats summary JSON")
    p.set_defaults(func=_cmd_select, outputs=("out", "summary"))

    p = sub.add_parser("exhaustive", help="enumerate every 0/1 matrix (small genus)")
    p.add_argument("--model", required=True, choices=MODELS)
    p.add_argument("--summary", help="stats summary JSON")
    p.set_defaults(func=_cmd_exhaustive, outputs=("summary",))

    p = sub.add_parser("singularity", help="estimate Pr[M singular] exactly")
    p.add_argument("--g", type=int, required=True)
    p.add_argument("--p", type=float, default=0.5)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--summary", help="stats summary JSON")
    p.set_defaults(func=_cmd_singularity, outputs=("summary",))

    p = sub.add_parser("stats", help="spectrum / fit / histogram of a period file")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--spectrum", help="spectrum CSV output")
    p.add_argument("--hist", help="argument histogram CSV output")
    p.add_argument("--bins", type=int, default=32)
    p.add_argument("--fit", help="power-law fit JSON output")
    p.add_argument("--k", type=int, help="report best-k energy for this k")
    p.set_defaults(func=_cmd_stats, outputs=("spectrum", "hist", "fit"))

    p = sub.add_parser("siegel-sample", help="random element of the Siegel upper half-space")
    p.add_argument("--g", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--scale", type=float, default=1.0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_siegel_sample, outputs=("out",))

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        targets = [getattr(args, name) for name in args.outputs]
        _check_targets([path for path in targets if path])
        code, line, outputs = args.func(args)
        _commit(outputs)
    except tuple(EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(c for kind, c in EXIT_CODES.items() if isinstance(exc, kind))
    print(line)
    return code


if __name__ == "__main__":
    sys.exit(main())
