"""Span tracing of periodlab from outside the package.

The tracer replaces module-level functions at each layer boundary with
wrappers that record a span (name, start, end, parent, operation id) in
memory.  Each name is patched in the module that looks it up at call time:
``modsel.integer_rank`` is the rank of the product-span matrix, while
``exact.integer_rank`` (reached through ``is_nonsingular``) is the square
rank.  A name that a later version of periodlab no longer has is skipped
and listed in ``missing``, so the benchmark keeps running.

Self time is a span's duration minus the durations of its direct
children; self times therefore partition the traced operation time.
"""

from __future__ import annotations

import contextlib
import functools
import json
from collections import Counter, defaultdict
from time import perf_counter

from periodlab import cli, curves, exact, modsel, periods, perstats, siegel

UNCONVERGED_ABOVE = 1e-10  # periodlab's documented node-doubling target

# (module, function, span name); the span name plus "_s" is the metric.
SPANS = (
    (cli, "main", "cli.self"),
    (curves, "load_curve", "curves.load"),
    (curves, "bundled_curve", "curves.load"),
    (periods, "hyperelliptic_raw_periods", "periods.other"),
    (periods, "_chain_segments", "periods.chain"),
    (periods, "_chain_period_table", "periods.quadrature"),
    (periods, "_choose_intersection_matrix", "periods.sign_search"),
    (periods, "symplectic_transform_from_intersection", "periods.symplectic"),
    (periods, "normalize", "periods.normalize"),
    (siegel, "validate_siegel", "siegel.validate"),
    (perstats, "spectrum", "perstats.stats"),
    (perstats, "band_limit_score", "perstats.stats"),
    (perstats, "arg_histogram", "perstats.stats"),
    (perstats, "fit_power_law", "perstats.stats"),
    (perstats, "best_k_energy", "perstats.stats"),
    (modsel, "run_trials", "modsel.other"),
    (modsel, "singularity_rate", "modsel.other"),
    (modsel, "bernoulli_matrix", "modsel.bits"),
    (modsel, "derive_seed", "rng.derive"),
    (modsel, "product_span_rank", "modsel.assemble"),
    (modsel, "integer_rank", "exact.span_rank"),
    (exact, "integer_rank", "exact.square_rank"),
    (modsel, "write_trial_log", "modsel.log"),
)
OP_SPAN = "bench.op"  # the benchmark's own span around one operation


class Tracer:
    """Spans and counts of traced rounds; patches only while installed."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, op id]
        self.counts: Counter = Counter()
        self.missing: set[str] = set()
        self.op_id = -1
        self._stack: list[int] = []
        self._originals: list[tuple] = []
        self._last_pass_nodes = 0

    # -- recording -----------------------------------------------------

    def _enter(self, name):
        idx = len(self.spans)
        self.spans.append([name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.op_id])
        self._stack.append(idx)
        self.spans[idx][1] = perf_counter()
        return idx

    def _exit(self, idx):
        self.spans[idx][2] = perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def op_span(self, op_id):
        """The benchmark's own span around one operation."""
        self.op_id = op_id
        idx = self._enter(OP_SPAN)
        try:
            yield
        finally:
            self._exit(idx)

    # -- counts, taken from the arguments and results at each boundary --

    def _on_result(self, name, args, result):
        c = self.counts
        if name == "periods.quadrature":
            _curve, segs, n = args[:3]
            self._last_pass_nodes = len(segs) * n
            c["periods.quadrature_nodes"] += self._last_pass_nodes
        elif name == "periods.other":
            c["periods.final_pass_nodes"] += self._last_pass_nodes
            c["periods.unconverged"] += int(not result[0].est_error <= UNCONVERGED_ABOVE)
        elif name == "siegel.validate":
            c["siegel.nonmember"] += int(not result.is_member)
        elif name == "modsel.bits":
            c["modsel.trials"] += 1
            c["rng.draws"] += args[0] * args[0]
        elif name in ("exact.span_rank", "exact.square_rank"):
            c["exact.rank_calls"] += 1

    # -- patching --------------------------------------------------------

    def _patch(self, module, attr, wrapper_factory):
        orig = getattr(module, attr, None)
        if orig is None:
            self.missing.add(f"{module.__name__}.{attr}")
            return
        self._originals.append((module, attr, orig))
        setattr(module, attr, functools.wraps(orig)(wrapper_factory(orig)))

    def install(self):
        for module, attr, name in SPANS:

            def factory(orig, name=name):
                def wrapper(*args, **kwargs):
                    idx = self._enter(name)
                    try:
                        result = orig(*args, **kwargs)
                    finally:
                        self._exit(idx)
                    try:
                        self._on_result(name, args, result)
                    except (AttributeError, IndexError, TypeError, ValueError):
                        # a later periodlab changed a signature; keep running
                        self.counts["trace.count_errors"] += 1
                    return result

                return wrapper

            self._patch(module, attr, factory)
        self._count_calls(periods, "_tridiagonal_intersection", "periods.sign_patterns")
        self._count_stats()

    def _count_calls(self, module, attr, key):
        def factory(orig):
            def wrapper(*args, **kwargs):
                self.counts[key] += 1
                return orig(*args, **kwargs)

            return wrapper

        self._patch(module, attr, factory)

    def _count_stats(self):
        def factory(orig):
            def wrapper(trials, successes, *args, **kwargs):
                self.counts["modsel.stat_trials"] += trials
                self.counts["modsel.stat_successes"] += successes
                return orig(trials, successes, *args, **kwargs)

            return wrapper

        self._patch(modsel, "_stats", factory)

    def uninstall(self):
        while self._originals:
            module, attr, orig = self._originals.pop()
            setattr(module, attr, orig)

    # -- analysis --------------------------------------------------------

    def self_times(self) -> dict[int, Counter]:
        """Self time per span name, for each operation id."""
        child = defaultdict(float)
        for _name, start, end, parent, _op in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[int, Counter] = defaultdict(Counter)
        for idx, (name, start, end, _parent, op) in enumerate(self.spans):
            out[op][name] += end - start - child[idx]
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"fields": ["name", "start", "end", "parent", "op"]}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
