import contextlib
import csv
import errno
import hashlib
import io
import json
import os
import pathlib
import stat
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from periodlab import cli, curves, modsel, periods, perstats, siegel
from periodlab.errors import NumericError


def run(argv):
    return cli.main([str(a) for a in argv])


def _refused(argv, code, directory, capsys, before=()):
    """Exit ``code`` with one error line, and no file added to ``directory``."""
    assert run(argv) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "Traceback" not in captured.err and ".periodlab-" not in captured.err
    assert sorted(p.name for p in directory.iterdir()) == sorted(before)
    return captured.err


class TestPeriodsCommand:
    def test_bundled_normalized_roundtrip(self, tmp_path, capsys):
        out = tmp_path / "omega.json"
        raw = tmp_path / "raw.json"
        code = run(["periods", "--bundled", "g1_lemniscatic", "--out", out, "--raw-out", raw])
        assert code == 0
        line = capsys.readouterr().out.strip()
        assert line.startswith("periods ")
        assert "kind=normalized" in line
        entries, kind, meta = periods.load_period_json(out)
        assert kind == "normalized"
        assert entries.shape == (1, 1)
        raw_entries, raw_kind, raw_meta = periods.load_period_json(raw)
        assert raw_kind == "raw"
        assert raw_entries.shape == (2, 1)
        for m in (meta, raw_meta):
            assert m["converged"] is True
            assert 0.0 <= m["bilinear_residual"] <= periods.BILINEAR_TOL
            assert m["positive_form_min_eig"] > 0.0
        assert {k: meta[k] for k in raw_meta} == raw_meta

    def test_curve_file_raw_kind(self, tmp_path):
        curve_path = tmp_path / "curve.json"
        curve_path.write_text(
            json.dumps(
                {
                    "type": "hyperelliptic",
                    "branch_points": [[-1.0, 0.0], [0.0, 0.0], [1.0, 0.0]],
                }
            )
        )
        out = tmp_path / "raw.json"
        assert run(["periods", "--curve", curve_path, "--kind", "raw", "--out", out]) == 0
        _, kind, meta = periods.load_period_json(out)
        assert kind == "raw"
        assert meta["est_error"] <= 1e-10
        assert meta["converged"] is True
        assert meta["bilinear_residual"] <= periods.BILINEAR_TOL
        assert meta["positive_form_min_eig"] > 0.0

    def test_fermat_bundled(self, tmp_path):
        out, raw = tmp_path / "fermat.json", tmp_path / "raw.json"
        assert run(["periods", "--bundled", "fermat_d4", "--out", out, "--raw-out", raw]) == 0
        entries, kind, _ = periods.load_period_json(out)
        assert kind == "raw"
        assert entries.shape == (6, 3)
        assert raw.read_bytes() == out.read_bytes()  # a Fermat table is already raw

    def test_deterministic_bytes(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        run(["periods", "--bundled", "g2_real_quintic", "--out", a])
        run(["periods", "--bundled", "g2_real_quintic", "--out", b])
        assert a.read_bytes() == b.read_bytes()

    @staticmethod
    def _curve(tmp_path, points, leading=(1.0, 0.0)):
        path = tmp_path / "curve.json"
        payload = {"type": "hyperelliptic", "branch_points": points, "leading": list(leading)}
        path.write_text(json.dumps(payload))
        return path

    def _assert_refused(self, argv, code, tmp_path, capsys):
        before = [p.name for p in tmp_path.iterdir()]
        argv = argv + ["--out", tmp_path / "omega.json", "--raw-out", tmp_path / "raw.json"]
        return _refused(argv, code, tmp_path, capsys, before)

    def test_non_siegel_omega_refused(self, tmp_path, monkeypatch, capsys):
        # negating the beta rows of the basis turns Omega into -Omega, outside H_g
        chain_basis = periods.symplectic_transform_from_intersection

        def negated_beta(E):
            T = chain_basis(E)
            g = len(T) // 2
            return T[:g] + [[-t for t in row] for row in T[g:]]

        monkeypatch.setattr(periods, "symplectic_transform_from_intersection", negated_beta)
        argv = ["periods", "--bundled", "g2_real_quintic"]
        err = self._assert_refused(argv, 4, tmp_path, capsys)
        assert err.startswith(
            "error: normalized period matrix is not in the Siegel upper half-space"
        )

    def test_refused_normalization_leaves_the_raw_kind(self, tmp_path, capsys):
        # cond(A) scales with the branch points: at 1e-20 this curve's Omega is refused
        points = [[k * 1e-20, 0.3 * (k % 2) * 1e-20] for k in range(5)]
        curve, out = self._curve(tmp_path, points), tmp_path / "raw.json"
        assert run(["periods", "--curve", curve, "--kind", "raw", "--out", out]) == 0
        assert capsys.readouterr().out.startswith(f"periods curve={curve} g=2 kind=raw nodes=")
        entries, kind, _ = periods.load_period_json(out)
        assert (kind, entries.shape) == ("raw", (4, 2))
        out.unlink()
        for flags in ([], ["--kind", "normalized"]):
            argv = ["periods", "--curve", curve, *flags]
            err = self._assert_refused(argv, 4, tmp_path, capsys)  # with --raw-out: neither file
            assert err == "error: A-block condition number 4.384e+19 exceeds 1.0e+10\n"
            assert _refused([*argv, "--out", out], 4, tmp_path, capsys, ["curve.json"]) == err

    def test_nodes_above_limit_refused(self, tmp_path, capsys):
        # a value only twice the cap: even unguarded it would stay small
        argv = ["periods", "--bundled", "g1_lemniscatic", "--nodes", 2 * periods.MAX_NODES]
        self._assert_refused(argv, 2, tmp_path, capsys)

    def test_nodes_that_would_double_past_the_cap_refused(self, tmp_path, capsys):
        # doubling runs at least once, so --nodes 8192 would integrate at 16384
        argv = ["periods", "--bundled", "g2_real_quintic", "--nodes", periods.MAX_NODES]
        err = self._assert_refused(argv, 2, tmp_path, capsys)
        assert f"nodes must be <= {periods.MAX_NODES // 2}" in err

    @pytest.mark.parametrize("curve", ["fermat_d4", "g2_real_quintic"])
    @pytest.mark.parametrize("nodes", [-3, 0, 3, periods.MAX_NODES])
    def test_nodes_out_of_range_refused_for_every_curve(self, tmp_path, capsys, nodes, curve):
        # a Fermat table is in closed form and uses no nodes; the flag is checked anyway
        argv = ["periods", "--bundled", curve, f"--nodes={nodes}"]
        assert self._assert_refused(argv, 2, tmp_path, capsys).startswith("error: nodes must be ")

    @pytest.mark.parametrize(
        "points, leading",
        [
            ([[float("nan"), 0.0], [0.0, 0.0], [1.0, 0.0]], (1.0, 0.0)),
            ([[-1.0, float("inf")], [0.0, 0.0], [1.0, 0.0]], (1.0, 0.0)),
            ([[-1.0, 0.0], [0.0, 0.0], [1.0, 0.0]], (float("nan"), 0.0)),
        ],
    )
    def test_non_finite_curve_refused(self, tmp_path, capsys, points, leading):
        argv = ["periods", "--curve", self._curve(tmp_path, points, leading)]
        self._assert_refused(argv, 3, tmp_path, capsys)

    @pytest.mark.parametrize(
        "points, code",
        [
            # one far point: the scale-relative on-segment check refuses the chain
            ([[-1.0, 0.0], [0.0, 0.0], [1e300, 0.0]], 3),
            ([[-1.0, 0.0], [0.0, 0.0], [1.7e308, 0.0]], 3),
            # all points far: the integrand overflows
            ([[k * 1e300, 0.0] for k in range(5)], 2),
            ([[1.7e308, 1.7e308], [0.0, 0.0], [1.0, 0.0]], 2),
        ],
    )
    def test_huge_branch_points_refused(self, tmp_path, capsys, points, code):
        argv = ["periods", "--curve", self._curve(tmp_path, points)]
        self._assert_refused(argv, code, tmp_path, capsys)

    def test_curve_past_the_genus_limit_refused(self, tmp_path, capsys):
        points = [[float(k), 0.0] for k in range(2 * curves.MAX_GENUS + 3)]
        argv = ["periods", "--curve", self._curve(tmp_path, points)]
        err = self._assert_refused(argv, 3, tmp_path, capsys)
        assert "2051 branch points; at most 2050" in err

    def test_huge_scale_alone_is_harmless(self, tmp_path):
        # Omega does not change under x -> c x; at g = 1 nothing overflows
        curve = self._curve(tmp_path, [[0.0, 0.0], [1e300, 0.0], [2e300, 0.0]])
        out = tmp_path / "omega.json"
        assert run(["periods", "--curve", curve, "--out", out]) == 0
        assert abs(periods.load_period_json(out)[0][0, 0] - 1j) < 1e-12

    @staticmethod
    def _zigzag(scale):
        return [[k * scale, 0.3 * (k % 2) * scale] for k in range(5)]

    def test_small_scale_alone_is_harmless(self, tmp_path):
        # the chain checks are relative, so x -> 1e-10 x keeps Omega
        omegas = []
        for scale in (1.0, 1e-10):
            out = tmp_path / f"omega-{scale}.json"
            curve = self._curve(tmp_path, self._zigzag(scale))
            assert run(["periods", "--curve", curve, "--out", out]) == 0
            omegas.append(periods.load_period_json(out)[0])
        assert np.max(np.abs(omegas[1] - omegas[0])) < 1e-12

    @pytest.mark.filterwarnings("error")
    def test_tiny_branch_points_refused(self, tmp_path, capsys):
        # the integrand underflows to 0: one error line, no numpy warning
        argv = ["periods", "--curve", self._curve(tmp_path, self._zigzag(1e-160))]
        self._assert_refused(argv, 2, tmp_path, capsys)


class TestValidateCommand:
    def test_member_exit_zero(self, tmp_path):
        out = tmp_path / "omega.json"
        run(["periods", "--bundled", "g2_x5_minus_1", "--out", out])
        assert run(["validate", out]) == 0

    def test_non_member_exit_three(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        m = np.array([[1j, 0.5], [0.0, 1j]])  # asymmetric
        path.write_text(periods.period_json_text(m, "normalized", {}))
        assert run(["validate", path]) == 3
        assert "member=0" in capsys.readouterr().out

    def test_rectangular_rejected(self, tmp_path):
        path = tmp_path / "raw.json"
        path.write_text(periods.period_json_text(np.ones((4, 2), dtype=complex), "raw", {}))
        assert run(["validate", path]) == 3

    @pytest.mark.parametrize(
        "m",
        [
            np.full((2, 2), 1e308j),
            np.array([[1e308 + 1j, 1e308], [-1e308, 1j]]),
            np.array([[1j, 1.2e308 + 1.2e308j], [-0.5e308 - 0.5e308j, 1j]]),
        ],
        ids=["im-sum", "difference", "modulus"],
    )
    def test_overflowing_entries_exit_three(self, tmp_path, capsys, m):
        path = tmp_path / "big.json"
        path.write_text(periods.period_json_text(m, "normalized", {}))
        err = _refused(["validate", path], 3, tmp_path, capsys, before=["big.json"])
        assert err.startswith("error: matrix too large for the Siegel check: ")

    def test_missing_file(self, tmp_path):
        assert run(["validate", tmp_path / "nope.json"]) == 2

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert run(["validate", path]) == 3

    @pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1e-8"])
    def test_bad_tol_exit_two(self, tmp_path, capsys, tol):
        path = tmp_path / "member.json"
        path.write_text(periods.period_json_text(siegel.random_siegel(3, 1), "normalized", {}))
        assert run(["validate", path, f"--tol={tol}"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert "Traceback" not in captured.err
        assert "member=" not in captured.out
        assert [p.name for p in tmp_path.iterdir()] == ["member.json"]


class TestSelectCommands:
    def test_select_log_and_summary(self, tmp_path, capsys):
        out = tmp_path / "log.csv"
        summary = tmp_path / "summary.json"
        code = run(
            [
                "select", "--model", "quartic", "--p", 0.5,
                "--trials", 50, "--seed", 9, "--out", out, "--summary", summary,
            ]
        )
        assert code == 0
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 51  # header + one row per trial
        payload = json.loads(summary.read_text())
        assert payload["trials"] == 50
        assert sorted(payload) == [
            "ci95_halfwidth", "estimate", "nonsingular_count", "successes", "trials",
        ]
        assert "estimate=" in capsys.readouterr().out

    def test_select_deterministic_bytes(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        args = ["select", "--model", "quartic", "--trials", 40, "--seed", 4]
        run(args + ["--out", a])
        run(args + ["--out", b])
        assert a.read_bytes() == b.read_bytes()

    def test_exhaustive_quartic(self, tmp_path):
        summary = tmp_path / "ex.json"
        assert run(["exhaustive", "--model", "quartic", "--summary", summary]) == 0
        payload = json.loads(summary.read_text())
        assert payload["trials"] == 512
        assert payload["successes"] == 174

    def test_exhaustive_quintic_refused(self):
        assert run(["exhaustive", "--model", "quintic"]) == 2

    def test_singularity(self, tmp_path, capsys):
        assert run(["singularity", "--g", 3, "--trials", 200, "--seed", 1]) == 0
        assert "singular=" in capsys.readouterr().out
        assert run(["singularity", "--g", 0, "--trials", 10, "--seed", 1]) == 2

    # counts recorded from the one-trial-at-a-time implementation; the
    # batched pipeline must reproduce them exactly
    @pytest.mark.parametrize(
        "g, trials, seed, singular", [(7, 3000, 99, 1541), (20, 500, 5, 0)]
    )
    def test_singularity_pinned(self, capsys, g, trials, seed, singular):
        assert run(["singularity", "--g", g, "--trials", trials, "--seed", seed]) == 0
        assert f" singular={singular} " in capsys.readouterr().out

    def test_select_pinned(self, tmp_path, capsys):
        argv = ["select", "--model", "quintic", "--trials", 700, "--seed", 2**64 - 1]
        assert run(argv + ["--out", tmp_path / "log.csv"]) == 0
        assert " successes=169 " in capsys.readouterr().out

    @pytest.mark.parametrize("g", [curves.MAX_GENUS + 1, 10**11])
    def test_singularity_genus_above_limit_exit_two(self, tmp_path, capsys, g):
        argv = ["singularity", f"--g={g}", "--trials", 1, "--seed", 1]
        _refused(argv + ["--summary", tmp_path / "s.json"], 2, tmp_path, capsys)

    @pytest.mark.parametrize("bad", [["--p", "nan"], ["--p", 1.5], ["--trials", 0]])
    def test_bad_trial_arguments_exit_two(self, tmp_path, capsys, bad):
        assert run(["singularity", "--g", 3, "--trials", 10, "--seed", 1] + bad) == 2
        select = ["select", "--model", "quartic", "--trials", 10, "--seed", 1]
        assert run(select + ["--out", tmp_path / "log.csv"] + bad) == 2
        assert not (tmp_path / "log.csv").exists()
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("trials", [modsel.MAX_LOGGED_TRIALS + 1, 10**11])
    def test_select_trial_log_above_limit_exit_two(self, tmp_path, capsys, monkeypatch, trials):
        # refused before any trial runs: 10^11 trials would ask for a 745 GiB log
        monkeypatch.setattr(modsel, "_select_stats", None)
        argv = ["select", "--model", "quintic", "--trials", trials, "--seed", 1]
        err = _refused(argv + ["--out", tmp_path / "x.csv"], 2, tmp_path, capsys)
        assert f"<= {modsel.MAX_LOGGED_TRIALS}" in err


class TestStatsCommand:
    def test_outputs(self, tmp_path, capsys):
        src = tmp_path / "omega.json"
        run(["siegel-sample", "--g", 6, "--seed", 3, "--out", src])
        spec = tmp_path / "spec.csv"
        hist = tmp_path / "hist.csv"
        fit = tmp_path / "fit.json"
        code = run(
            [
                "stats", "--in", src, "--spectrum", spec, "--hist", hist,
                "--bins", 16, "--fit", fit, "--k", 5,
            ]
        )
        assert code == 0
        with open(spec, newline="") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 37  # header + 36 entries
        with open(hist, newline="") as fh:
            hrows = list(csv.reader(fh))
        assert len(hrows) == 17
        payload = json.loads(fit.read_text())
        assert set(payload) == {"exponent", "intercept", "r_squared", "excluded_zeros"}
        out = capsys.readouterr().out
        assert "band_limit_score=" in out
        assert "best_k_energy=" in out

    @pytest.mark.parametrize(
        "bad",
        [["--k", 0], ["--k", 37], ["--bins", 1], ["--bins", perstats.MAX_BINS + 1],
         ["--bins", 10**11], ["--bins", 0], ["--bins=-3"]],
    )
    def test_out_of_range_exit_two(self, tmp_path, capsys, bad):
        # refused whether or not the command writes the histogram that reads --bins
        src = tmp_path / "omega.json"
        src.write_text(periods.period_json_text(siegel.random_siegel(6, 3), "normalized", {}))
        for hist in (["--hist", tmp_path / "h.csv"], []):
            assert run(["stats", "--in", src, *hist, *bad]) == 2
            assert capsys.readouterr().err.startswith("error: ")
            assert [p.name for p in tmp_path.iterdir()] == ["omega.json"]

    def test_fit_failure_leaves_no_partial_output(self, tmp_path):
        # the spectrum and histogram succeed, then the fit fails
        src = tmp_path / "one.json"
        src.write_text(periods.period_json_text(np.array([[1j]]), "normalized", {}))
        argv = ["stats", "--in", src, "--fit", tmp_path / "fit.json"]
        argv += ["--spectrum", tmp_path / "s.csv", "--hist", tmp_path / "h.csv"]
        assert run(argv) == 2
        assert [p.name for p in tmp_path.iterdir()] == ["one.json"]

    def test_overflowing_squared_moduli_refused(self, tmp_path, capsys):
        # a Siegel member whose squared modulus overflows: validate accepts it,
        # stats refuses it with exit 3 rather than write inf and NaN
        src = tmp_path / "huge.json"
        src.write_text(periods.period_json_text(np.array([[1e200 + 1e200j]]), "normalized", {}))
        assert run(["validate", src]) == 0
        capsys.readouterr()
        argv = ["stats", "--in", src, "--spectrum", tmp_path / "s.csv", "--fit", tmp_path / "f.json"]
        err = _refused(argv + ["--k", 1], 3, tmp_path, capsys, before=["huge.json"])
        assert "squared moduli and their sum must be finite" in err

    def test_underflowing_squared_moduli_refused(self, tmp_path, capsys):
        # a Siegel member whose squared moduli all underflow to 0.0: validate
        # accepts it, stats refuses it with exit 3 rather than report zeros
        src = tmp_path / "tiny.json"
        tiny = np.array([[1e-200 + 2e-200j, 1e-200j], [1e-200j, 3e-200 + 2e-200j]])
        src.write_text(periods.period_json_text(tiny, "normalized", {}))
        assert run(["validate", src]) == 0
        capsys.readouterr()
        argv = ["stats", "--in", src, "--spectrum", tmp_path / "s.csv", "--fit", tmp_path / "f.json"]
        err = _refused(argv + ["--k", 1], 3, tmp_path, capsys, before=["tiny.json"])
        assert "underflows a normal double" in err


class TestSiegelSampleCommand:
    def test_sample_validates(self, tmp_path):
        out = tmp_path / "s.json"
        assert run(["siegel-sample", "--g", 4, "--seed", 11, "--out", out]) == 0
        assert run(["validate", out]) == 0

    def test_deterministic_bytes(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        run(["siegel-sample", "--g", 3, "--seed", 2, "--out", a])
        run(["siegel-sample", "--g", 3, "--seed", 2, "--out", b])
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize(
        "bad",
        [["--seed=-1"], ["--seed=1", "--scale=nan"], ["--seed=1", "--scale=inf"],
         ["--seed=1", f"--g={curves.MAX_GENUS + 1}"], ["--seed=1", "--g=100000000000"]],
    )
    def test_bad_arguments_exit_two(self, tmp_path, capsys, bad):
        assert run(["siegel-sample", "--g", 3, *bad, "--out", tmp_path / "s.json"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert "Traceback" not in captured.err
        assert list(tmp_path.iterdir()) == []


class TestOutputTransaction:
    """A command writes all of its outputs or none."""

    def test_periods_missing_directory(self, tmp_path, capsys):
        out, raw = tmp_path / "missing" / "x.json", tmp_path / "r.json"
        argv = ["periods", "--bundled", "g1_lemniscatic", "--out", out, "--raw-out", raw]
        assert str(out) in _refused(argv, 2, tmp_path, capsys)

    def test_select_missing_directory(self, tmp_path, capsys):
        log, summary = tmp_path / "s.csv", tmp_path / "missing" / "s.json"
        argv = ["select", "--model", "quartic", "--trials", 5, "--seed", 1]
        argv += ["--out", log, "--summary", summary]
        assert str(summary) in _refused(argv, 2, tmp_path, capsys)

    def test_out_is_directory(self, tmp_path, capsys):
        (tmp_path / "d").mkdir()
        argv = ["siegel-sample", "--g", 2, "--seed", 1, "--out", tmp_path / "d"]
        assert "is a directory" in _refused(argv, 2, tmp_path, capsys, before=["d"])
        assert list((tmp_path / "d").iterdir()) == []

    def test_failed_write_leaves_nothing(self, tmp_path, monkeypatch, capsys):
        # the second temp file cannot be made after the first was written
        made = []

        def create(path, *args, **kwargs):
            if made:
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            made.append(path)
            return open(path, *args, **kwargs)

        monkeypatch.setattr(cli, "open", create, raising=False)  # shadows the builtin in cli
        log, summary = tmp_path / "s.csv", tmp_path / "s.json"
        argv = ["select", "--model", "quartic", "--trials", 5, "--seed", 1]
        err = _refused(argv + ["--out", log, "--summary", summary], 2, tmp_path, capsys)
        assert err == f"error: cannot write {summary}: {os.strerror(errno.ENOSPC)}\n"
        assert len(made) == 1

    def test_failing_block_leaves_nothing(self, tmp_path, monkeypatch, capsys):
        # the log's second block raises while its first sits in a temp file
        seen = []

        def trial_log_rows(log):
            yield "trial_index,seed,nonsingular,span_rank,success\r\n"
            seen.extend(p.name for p in tmp_path.iterdir())
            raise NumericError("no second block")

        monkeypatch.setattr(modsel, "trial_log_rows", trial_log_rows)
        log, summary = tmp_path / "s.csv", tmp_path / "s.json"
        argv = ["select", "--model", "quartic", "--trials", 5, "--seed", 1]
        err = _refused(argv + ["--out", log, "--summary", summary], 4, tmp_path, capsys)
        assert err == "error: no second block\n"
        assert len(seen) == 1 and seen[0].startswith(".periodlab-") and seen[0].endswith(".tmp")

    def test_file_mode_follows_umask(self, tmp_path):
        out = tmp_path / "s.json"
        umask = os.umask(0o022)
        try:
            assert run(["siegel-sample", "--g", 2, "--seed", 1, "--out", out]) == 0
        finally:
            os.umask(umask)
        assert stat.S_IMODE(out.stat().st_mode) == 0o644

    @pytest.mark.parametrize("alias", ["a.json", "./a.json", "sub/../a.json"])
    def test_path_named_twice(self, tmp_path, monkeypatch, capsys, alias):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "sub").mkdir()
        argv = ["periods", "--bundled", "g1_lemniscatic", "--out", "a.json", "--raw-out", alias]
        assert "more than one output" in _refused(argv, 2, tmp_path, capsys, before=["sub"])


class TestTargetsCheckedFirst:
    """A bad output target is refused right after parsing, before any work."""

    WORK = [
        (modsel, "run_selection"),
        (modsel, "singularity_rate"),
        (modsel, "exhaustive"),
        (curves, "load_curve"),
        (curves, "bundled_curve"),
        (periods, "load_period_json"),
        (siegel, "random_siegel"),
    ]

    @pytest.mark.parametrize(
        "argv, bad, reason",
        [
            (["select", "--model", "quintic", "--trials", 20000, "--seed", 1,
              "--out", "missing/x.csv"], "missing/x.csv", "no such directory"),
            (["singularity", "--g", 20, "--trials", 20000, "--seed", 1,
              "--summary", "d"], "d", "is a directory"),
            (["periods", "--bundled", "g1_lemniscatic", "--out", "a.json",
              "--raw-out", "./a.json"], "a.json", "named as more than one output"),
            (["exhaustive", "--model", "quartic", "--summary", "d"], "d", "is a directory"),
            (["stats", "--in", "p.json", "--spectrum", "s.csv", "--fit", "missing/f.json"],
             "missing/f.json", "no such directory"),
            (["siegel-sample", "--g", 2, "--seed", 1, "--out", "d"], "d", "is a directory"),
        ],
        ids=["select", "singularity", "periods", "exhaustive", "stats", "siegel-sample"],
    )
    def test_refused_before_any_work(self, tmp_path, monkeypatch, capsys, argv, bad, reason):
        def work(*args, **kwargs):
            raise AssertionError("the command ran before its targets were checked")

        for module, name in self.WORK:
            monkeypatch.setattr(module, name, work)
        monkeypatch.chdir(tmp_path)
        (tmp_path / "d").mkdir()
        err = _refused(argv, 2, tmp_path, capsys, before=["d"])
        assert err == f"error: cannot write {bad}: {reason}\n"


LINE_CURVE = {"type": "hyperelliptic", "branch_points": [[0, 0], [1, 0], [2, 0]]}
# an integer literal beyond Python's 4300-digit conversion limit
HUGE = "1" + "0" * 5000


class TestMalformedInput:
    """Malformed input files exit 2 or 3 with one error line."""

    PERIOD_FILES = {
        "entries not pairs": {"g": 2, "kind": "raw", "entries": [[1, 2]]},
        "g not an integer": {"g": "x", "kind": "raw", "entries": [[[1.0, 0.0]]]},
        "g a float": {"g": 1.0, "kind": "raw", "entries": [[[1.0, 0.0]]]},
        "unknown kind": {"g": 1, "kind": "bogus", "entries": [[[0.0, 1.0]]]},
        "not an object": 5,
        "entry a boolean pair": {"g": 1, "kind": "normalized", "entries": [[[False, True]]]},
        "entry beyond the float range": {"g": 1, "kind": "raw", "entries": [[[10**400, 0]]] * 2},
        "normalized 1 x 2 for g = 2": {"g": 2, "kind": "normalized", "entries": [[[1, 0], [0, 1]]]},
        "raw 3 x 1 for g = 1": {"g": 1, "kind": "raw", "entries": [[[1.0, 0.0]]] * 3},
    }
    CURVE_FILES = {
        "plane type unknown": {"type": "plane", "degree": "x"},
        "fermat degree a float": {"type": "fermat", "degree": 4.5},
        "fermat degree a string": {"type": "fermat", "degree": "x"},
        "fermat degree above the table limit": {"type": "fermat", "degree": 16},
        "leading three numbers": {**LINE_CURVE, "leading": [1, 0, 5]},
        "leading a boolean": {**LINE_CURVE, "leading": [True, 0]},
        "leading an object": {**LINE_CURVE, "leading": {"re": 1, "im": 0}},
        "branch point a boolean": {**LINE_CURVE, "branch_points": [[0, 0], [1, False], [2, 0]]},
        "leading beyond the float range": {**LINE_CURVE, "leading": [10**400, 0]},
    }
    # the refusal a case exists for, where another check could refuse it first
    MESSAGES = {
        "plane type unknown": "error: unknown curve type 'plane'\n",
        "fermat degree a string": "error: degree must be an integer\n",
        "fermat degree above the table limit": "error: Fermat degree must satisfy 4 <= d <= 15\n",
        "normalized 1 x 2 for g = 2": "error: a normalized period file must hold g x g entries\n",
        "raw 3 x 1 for g = 1": "error: a raw period file must hold 2g x g entries\n",
    }

    # texts that fail to decode, whatever file the command expects
    TEXTS = {
        "an integer of 5001 digits": f'{{"g": 1, "kind": "raw", "entries": [[[{HUGE}, 0]]]}}',
        "nested 100000 deep": "[" * 100000,
    }

    @pytest.mark.parametrize(
        "command, name, code",
        [("validate", name, 3) for name in PERIOD_FILES]
        + [("stats", name, 3) for name in PERIOD_FILES]
        + [("periods", name, 3) for name in CURVE_FILES]
        + [(command, "non-UTF-8 bytes", 3) for command in ("validate", "stats", "periods")]
        + [(command, "a directory", 2) for command in ("validate", "stats", "periods")]
        + [(command, name, 3) for name in TEXTS for command in ("validate", "stats", "periods")],
    )
    def test_refused(self, tmp_path, capsys, command, name, code):
        path = tmp_path / "input.json"
        if name == "a directory":
            path.mkdir()
        elif name == "non-UTF-8 bytes":
            path.write_bytes(b'{"type": "fermat", "degree": 4, "note": "\xff\xfe"}')
        elif name in self.TEXTS:
            path.write_text(self.TEXTS[name])
        else:
            path.write_text(json.dumps({**self.PERIOD_FILES, **self.CURVE_FILES}[name]))
        argv = {
            "validate": ["validate", path],
            "stats": ["stats", "--in", path, "--spectrum", tmp_path / "s.csv"],
            "periods": ["periods", "--curve", path, "--out", tmp_path / "o.json"],
        }[command]
        err = _refused(argv, code, tmp_path, capsys, before=["input.json"])
        assert err == self.MESSAGES.get(name, err)


class TestExitCodes:
    def test_unknown_command(self, tmp_path, capsys):
        _refused(["frobnicate"], 2, tmp_path, capsys)

    def test_missing_required_flag(self, tmp_path, capsys):
        _refused(["select", "--model", "quartic"], 2, tmp_path, capsys)

    @pytest.mark.parametrize("command", ["select", "exhaustive"])
    def test_unknown_model_exit_two(self, tmp_path, capsys, command):
        argv = [command, "--model", "sextic", "--summary", tmp_path / "s.json"]
        if command == "select":
            argv += ["--trials", 5, "--seed", 1, "--out", tmp_path / "s.csv"]
        assert "invalid choice: 'sextic'" in _refused(argv, 2, tmp_path, capsys)

    @pytest.mark.parametrize("flags", [[], ["--kind", "raw"], ["--raw-out", "r.json"]])
    def test_plane_curve_file_exit_three(self, tmp_path, capsys, flags):
        # curve files describe curves with period tables; a plane model has none
        path = tmp_path / "plane.json"
        path.write_text(json.dumps({"type": "plane", "degree": 4}))
        argv = ["periods", "--curve", path, "--out", tmp_path / "o.json"]
        argv += [tmp_path / f if f.endswith(".json") else f for f in flags]
        err = _refused(argv, 3, tmp_path, capsys, before=["plane.json"])
        assert err == "error: unknown curve type 'plane'\n"

    def test_unknown_bundled_curve_exit_two(self, tmp_path, capsys):
        argv = ["periods", "--bundled", "nope", "--out", tmp_path / "o.json"]
        assert "invalid choice: 'nope'" in _refused(argv, 2, tmp_path, capsys)

    def test_numeric_error_maps_to_four(self, tmp_path, monkeypatch, capsys):
        def boom(g, p, n_trials, seed):
            raise NumericError("synthetic failure")

        monkeypatch.setattr(modsel, "singularity_rate", boom)
        argv = ["singularity", "--g", 3, "--trials", 5, "--seed", 1]
        assert _refused(argv, 4, tmp_path, capsys) == "error: synthetic failure\n"


# sha256 of the files each command writes, recorded before the JSON pair
# decoder, the model table and the summary serializer were merged; the select
# and exhaustive summaries were re-recorded when they dropped the paper's
# formula values and became the five SuccessStats fields alone.  ROADMAP
# item 2 (trial keys that cannot collide across seeds) changes the trial
# bits, and will re-record the select and singularity pins.
SAMPLE = ["siegel-sample", "--g", 4, "--seed", 5, "--out", "sample.json"]
PINNED_OUTPUTS = {
    "select": (
        [["select", "--model", "quartic", "--trials", 50, "--seed", 5,
          "--out", "log.csv", "--summary", "select.json"]],
        {
            "log.csv": "d88f86d7d0637f19480b63d3fad7a2375edd6e057f70dfa7bf32e1d033924f0c",
            "select.json": "5cf123da4ee0505727050f3e4450067539c70654d68ba7ac0222db87ec75936e",
        },
    ),
    "exhaustive": (
        [["exhaustive", "--model", "quartic", "--summary", "exhaustive.json"]],
        {"exhaustive.json": "337eb3dc0b8367241f21a43044b366f50efe857d9fe2b9e89430003a362fd3ac"},
    ),
    "singularity": (
        [["singularity", "--g", 7, "--trials", 300, "--seed", 99,
          "--summary", "singularity.json"]],
        {"singularity.json": "21f8430273062423ef1618c0037d09c90224b152fb6850e27b762f38147be8fe"},
    ),
    # siegel-sample and the stats pins read numpy's PCG64 default_rng, whose
    # streams numpy may change between releases (NEP 19): a numpy upgrade
    # alone can move these two pins, with no change to periodlab.
    "siegel-sample": (
        [SAMPLE],
        {"sample.json": "9b4151f6aae45136958736cdfd2540f4de4a7205c18917a7f11b4a0a721603e1"},
    ),
    "stats": (
        [SAMPLE, ["stats", "--in", "sample.json", "--spectrum", "spec.csv",
                  "--hist", "hist.csv", "--fit", "fit.json"]],
        {
            "spec.csv": "ed56311589cc4f002722db3dd66911d7237ffd129bbd78fb7570e2d695061fef",
            "hist.csv": "af1cda524668022f615fb74dab2319956fc409a7169735fbb76a543b70c3f393",
            "fit.json": "b4c7135adfa2885b30c10e6f4abd0fba2de2ea6fd4178fb19f337b074482601b",
        },
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED_OUTPUTS))
def test_output_bytes_pinned(name, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    argvs, pinned = PINNED_OUTPUTS[name]
    for argv in argvs:
        assert run(argv) == 0
    capsys.readouterr()
    digests = {f: hashlib.sha256((tmp_path / f).read_bytes()).hexdigest() for f in pinned}
    assert digests == pinned


# Flag values for the exit-code contract: small and negative ints, and any
# float (NaN and +-inf included), passed as --flag=value so that negative
# values are not taken for options.  Ints stop at 12 so that no --g,
# --trials or --nodes draw allocates a large array.
FLAG_VALUES = st.one_of(
    st.integers(min_value=-5, max_value=12),
    st.floats(allow_nan=True, allow_infinity=True),
).map(repr)


def _curve_text(points):
    return json.dumps({"type": "hyperelliptic", "branch_points": points})


def _period_text(entries, kind):
    return periods.period_json_text(entries, kind, {})


# Input files every draw starts from, by name.
CONTRACT_INPUTS = {
    "member.json": _period_text(siegel.random_siegel(3, 1), "normalized"),
    "rectangular.json": _period_text(np.ones((4, 2)), "raw"),
    "one.json": _period_text(np.array([[1j]]), "normalized"),
    "broken.json": "{not json",
    "real.json": _curve_text([[float(k), 0.0] for k in range(5)]),
    "nan.json": _curve_text([[float("nan"), 0.0], [0.0, 0.0], [1.0, 0.0]]),
    "duplicate.json": _curve_text([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]),
    "huge.json": _curve_text([[k * 1e300, 0.0] for k in range(5)]),
    "plane.json": json.dumps({"type": "plane", "degree": 4}),
}
PERIOD_INPUTS = ("member.json", "rectangular.json", "one.json", "broken.json")
CURVE_INPUTS = ("real.json", "nan.json", "duplicate.json", "huge.json", "plane.json", "broken.json")

# Per command: the argument lists a draw picks its source from, the flags
# drawn from FLAG_VALUES, and the output flags, each given its own file.
CONTRACT = {
    "validate": ([[name] for name in PERIOD_INPUTS], ("tol",), ()),
    "siegel-sample": ([[]], ("g", "seed", "scale"), ("--out",)),
    "singularity": ([[]], ("g", "seed", "p", "trials"), ("--summary",)),
    "select": (
        [["--model", m] for m in ("quartic", "quintic", "sextic")],
        ("seed", "p", "trials"),
        ("--out", "--summary"),
    ),
    "exhaustive": ([["--model", m] for m in ("quartic", "quintic")], (), ("--summary",)),
    "periods": (
        [["--curve", name] for name in CURVE_INPUTS]
        + [["--bundled", name] for name in ("fermat_d4", "nope")],
        ("nodes",),
        ("--out", "--raw-out"),
    ),
    "stats": (
        [["--in", name] for name in PERIOD_INPUTS],
        ("k", "bins"),
        ("--spectrum", "--hist", "--fit"),
    ),
}


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(sorted(CONTRACT)), st.data())
def test_exit_code_contract(command, data):
    """Exit 0, 2, 3 or 4, never a traceback; every output on success, no file otherwise.

    A non-zero exit leaves one ``error:`` line.  No contract input is a
    Siegel non-member, the one exit 3 that is an answer, not a refusal.
    """
    sources, flags, writes = CONTRACT[command]
    with tempfile.TemporaryDirectory() as tmp:
        tmp = pathlib.Path(tmp)
        for name, text in CONTRACT_INPUTS.items():
            (tmp / name).write_text(text)
        source = data.draw(st.sampled_from(sources), label="source")
        argv = [command] + [str(tmp / a) if a in CONTRACT_INPUTS else a for a in source]
        argv += [f"--{flag}={data.draw(FLAG_VALUES, label=flag)}" for flag in flags]
        outputs = [f"{flag[2:]}.out" for flag in writes]
        argv += [f"{flag}={tmp / name}" for flag, name in zip(writes, outputs)]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        assert code in (0, 2, 3, 4)
        assert "Traceback" not in err.getvalue()
        if code:
            assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
        written = outputs if code == 0 else []
        assert sorted(p.name for p in tmp.iterdir()) == sorted([*CONTRACT_INPUTS, *written])


def test_process_exit_status_and_streams(tmp_path):
    """``python -m periodlab.cli``: the status and streams a shell sees."""
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    env = {**os.environ, "PYTHONPATH": str(pathlib.Path(__file__).parents[1] / "src")}
    cases = [
        (["--help"], 0, "usage: periodlab", ""),
        (["select", "--model", "sextic", "--trials", "5", "--seed", "1",
          "--out", str(tmp_path / "s.csv")], 2, "", "error: argument --model: invalid choice"),
        (["periods", "--bundled", "nope", "--out", str(tmp_path / "o.json")],
         2, "", "error: argument --bundled: invalid choice"),
        (["validate", str(broken)], 3, "", "error: malformed JSON input: "),
        (["bounds", "--g", "6"], 2, "", "error: argument command: invalid choice: 'bounds'"),
        (["singularity", "--g", "3", "--trials", "10", "--seed", "1"], 0, "singularity ", ""),
    ]
    for argv, code, out, err in cases:
        proc = subprocess.run(
            [sys.executable, "-m", "periodlab.cli", *argv],
            capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120,
        )
        assert proc.returncode == code, argv
        assert proc.stdout.startswith(out) and proc.stderr.startswith(err), argv
        if code:
            assert proc.stdout == "" and proc.stderr.count("\n") == 1, argv
        elif argv != ["--help"]:
            assert proc.stdout.count("\n") == 1 and proc.stderr == "", argv
    assert sorted(p.name for p in tmp_path.iterdir()) == ["broken.json"]


# One in-process run mixing every kind of call; each later call must not see
# what an earlier one did to the shared parser.
REUSE_RUN = [
    ["periods", "--bundled", "g2_x5_minus_1", "--kind", "raw", "--out", "raw.json"],
    ["periods", "--curve", "raw.json", "--bundled", "g1_lemniscatic", "--out", "x.json"],
    ["periods", "--bundled", "g2_x5_minus_1", "--out", "omega.json"],
    ["--help"],
    ["validate", "omega.json"],
    ["stats", "--in", "omega.json", "--spectrum", "spec.csv", "--fit", "fit.json"],
    ["select", "--model", "quartic", "--trials", "20", "--seed", "3",
     "--out", "log.csv", "--summary", "select.json"],
    ["singularity", "--g", "3", "--trials", "10", "--seed", "1"],
]


def test_parser_built_once_per_process(tmp_path, monkeypatch, capsys):
    """After one call, ``main`` reuses its parser, and no call leaks into the next."""
    monkeypatch.setenv("COLUMNS", "80")
    env = {**os.environ, "PYTHONPATH": str(pathlib.Path(__file__).parents[1] / "src")}
    fresh, reused = tmp_path / "fresh", tmp_path / "reused"
    fresh.mkdir()
    reused.mkdir()
    expected = []
    for argv in REUSE_RUN:
        proc = subprocess.run(
            [sys.executable, "-m", "periodlab.cli", *argv],
            capture_output=True, text=True, env=env, cwd=fresh, timeout=120,
        )
        expected.append((proc.returncode, proc.stdout, proc.stderr))

    monkeypatch.chdir(reused)
    assert run(["singularity", "--g", 3, "--trials", 10, "--seed", 1]) == 0
    capsys.readouterr()
    built = []
    init = cli._Parser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(cli._Parser, "__init__", counting_init)
    got = []
    for argv in REUSE_RUN:
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        got.append((code, *capsys.readouterr()))

    assert built == []
    assert [c for c, _out, _err in got] == [0, 2, 0, 0, 0, 0, 0, 0]
    assert got == expected
    assert json.loads((reused / "omega.json").read_text())["kind"] == "normalized"
    names = sorted(p.name for p in fresh.iterdir())
    assert names == sorted(p.name for p in reused.iterdir())
    for name in names:
        assert (reused / name).read_bytes() == (fresh / name).read_bytes(), name
