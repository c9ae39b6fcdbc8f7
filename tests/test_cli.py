import csv
import json

import numpy as np
import pytest

from periodlab import cli, periods
from periodlab.errors import NumericError


def run(argv):
    return cli.main([str(a) for a in argv])


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
        out = tmp_path / "fermat.json"
        assert run(["periods", "--bundled", "fermat_d4", "--out", out]) == 0
        entries, kind, _ = periods.load_period_json(out)
        assert kind == "raw"
        assert entries.shape == (6, 3)

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
        out, raw = tmp_path / "omega.json", tmp_path / "raw.json"
        assert run(argv + ["--out", out, "--raw-out", raw]) == code
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert "Traceback" not in captured.err
        assert not out.exists() and not raw.exists()
        assert [p.name for p in tmp_path.iterdir() if p.name.startswith(".periodlab-")] == []

    def test_non_siegel_omega_refused(self, tmp_path, monkeypatch, capsys):
        def asymmetric(raw, hom):
            return periods.PeriodMatrix(g=2, entries=np.array([[1j, 0.5], [0.0, 1j]]))

        monkeypatch.setattr(periods, "normalize", asymmetric)
        self._assert_refused(["periods", "--bundled", "g2_real_quintic"], 4, tmp_path, capsys)

    def test_nodes_above_limit_refused(self, tmp_path, capsys):
        # a value only twice the cap: even unguarded it would stay small
        argv = ["periods", "--bundled", "g1_lemniscatic", "--nodes", 2 * periods.MAX_NODES]
        self._assert_refused(argv, 2, tmp_path, capsys)

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


class TestValidateCommand:
    def test_member_exit_zero(self, tmp_path):
        out = tmp_path / "omega.json"
        run(["periods", "--bundled", "g2_x5_minus_1", "--out", out])
        assert run(["validate", out]) == 0

    def test_non_member_exit_three(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        m = np.array([[1j, 0.5], [0.0, 1j]])  # asymmetric
        periods.save_period_json(path, m, "normalized", {})
        assert run(["validate", path]) == 3
        assert "member=0" in capsys.readouterr().out

    def test_rectangular_rejected(self, tmp_path):
        path = tmp_path / "raw.json"
        periods.save_period_json(path, np.ones((4, 2), dtype=complex), "raw", {})
        assert run(["validate", path]) == 3

    def test_missing_file(self, tmp_path):
        assert run(["validate", tmp_path / "nope.json"]) == 2

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert run(["validate", path]) == 3


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
        assert "paper_bounds" in payload
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

    @pytest.mark.parametrize("bad", [["--p", "nan"], ["--p", 1.5], ["--trials", 0]])
    def test_bad_trial_arguments_exit_two(self, tmp_path, capsys, bad):
        assert run(["singularity", "--g", 3, "--trials", 10, "--seed", 1] + bad) == 2
        select = ["select", "--model", "quartic", "--trials", 10, "--seed", 1]
        assert run(select + ["--out", tmp_path / "log.csv"] + bad) == 2
        assert not (tmp_path / "log.csv").exists()
        assert "Traceback" not in capsys.readouterr().err


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

    def test_fit_failure_leaves_no_partial_output(self, tmp_path):
        src = tmp_path / "one.json"
        periods.save_period_json(src, np.array([[1j]]), "normalized", {})
        fit = tmp_path / "fit.json"
        assert run(["stats", "--in", src, "--fit", fit]) == 2
        assert not fit.exists()


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


class TestBoundsCommand:
    def test_prints_json(self, capsys):
        assert run(["bounds", "--g", 6]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["g"] == 6
        assert payload["bounds"]["displayed_expression"] == pytest.approx(15.0 / 16.0**15)

    def test_domain(self):
        assert run(["bounds", "--g", 1]) == 2

    def test_large_genus_underflows_cleanly(self, capsys):
        assert run(["bounds", "--g", 300]) == 0
        bounds = json.loads(capsys.readouterr().out)["bounds"]
        assert all(np.isfinite(v) for v in bounds.values())
        assert bounds["displayed_expression"] == 0.0
        assert bounds["union_bound_reading"] == 1.0


class TestExitCodes:
    def test_unknown_command(self, capsys):
        assert run(["frobnicate"]) == 2
        capsys.readouterr()

    def test_missing_required_flag(self, capsys):
        assert run(["select", "--model", "quartic"]) == 2
        capsys.readouterr()

    def test_numeric_error_maps_to_four(self, monkeypatch, capsys):
        def boom(args):
            raise NumericError("synthetic failure")

        monkeypatch.setattr(cli, "_cmd_bounds", boom)
        parser_args = ["bounds", "--g", "6"]
        parser = cli.build_parser()
        args = parser.parse_args(parser_args)
        args.func = boom
        monkeypatch.setattr(cli, "build_parser", lambda: parser)
        monkeypatch.setattr(parser, "parse_args", lambda argv: args)
        assert cli.main(parser_args) == 4
        assert "synthetic failure" in capsys.readouterr().err
