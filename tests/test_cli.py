from __future__ import annotations

import csv
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "robustfactors.cli", *args],
        capture_output=True, text=True, timeout=600,
    )


def write_panel_csv(path, values, header=True, time_labels=None):
    T, N = values.shape
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        names = [f"s{i}" for i in range(N)]
        if header:
            writer.writerow((["date"] if time_labels else []) + names)
        for t in range(T):
            row = [f"{v:.10g}" for v in values[t]]
            if time_labels:
                row = [time_labels[t]] + row
            writer.writerow(row)


@pytest.fixture(scope="module")
def factor_csv(tmp_path_factory):
    gen = np.random.default_rng(77)
    F = gen.standard_normal((60, 2))
    lam = gen.standard_normal((20, 2))
    Y = 6.0 * F @ lam.T + gen.standard_normal((60, 20))
    path = tmp_path_factory.mktemp("data") / "panel.csv"
    write_panel_csv(path, Y)
    return str(path)


@pytest.fixture(scope="module")
def drifting_csv(tmp_path_factory):
    """60 x 20 dated panel whose factor strengths grow over time, with t2 noise."""
    gen = np.random.default_rng(77)
    F = gen.standard_normal((60, 3))
    lam = gen.standard_normal((20, 3))
    strength = np.linspace(0.0, 6.0, 60)[:, None] * np.array([1.0, 0.5, 0.2])
    Y = (strength * F) @ lam.T + gen.standard_t(2, size=(60, 20))
    labels = [f"{2000 + t // 12}-{t % 12 + 1:02d}" for t in range(60)]
    path = tmp_path_factory.mktemp("data") / "drifting.csv"
    write_panel_csv(path, Y, time_labels=labels)
    return str(path)


GOLDEN = Path(__file__).parent / "data"


class TestSimulate:
    def test_easy_scenario_table(self):
        proc = run_cli("simulate", "--scenario", "A", "--dist", "gaussian",
                       "--N", "40", "--T", "40", "--reps", "4", "--seed", "1")
        assert proc.returncode == 0
        assert "scenario A-gaussian" in proc.stdout
        assert "3.000(0|0)" in proc.stdout
        assert "simulate: 4/4" in proc.stderr

    def test_table_matches_golden(self):
        proc = run_cli("simulate", "--scenario", "C1", "--N", "60", "--T", "60",
                       "--reps", "20", "--seed", "3")
        assert proc.returncode == 0
        assert proc.stdout == (GOLDEN / "simulate_c1.txt").read_text()

    def test_repeat_runs_byte_identical(self):
        args = ("simulate", "--scenario", "A", "--dist", "t3", "--N", "30",
                "--T", "30", "--reps", "3", "--seed", "9", "--methods", "mker")
        a = run_cli(*args)
        b = run_cli(*args)
        assert a.returncode == b.returncode == 0
        assert a.stdout == b.stdout

    def test_csv_output(self, tmp_path):
        out = tmp_path / "report.csv"
        proc = run_cli("simulate", "--scenario", "A", "--dist", "gaussian",
                       "--N", "30", "--T", "30", "--reps", "2", "--seed", "0",
                       "--methods", "mker,er", "--out", str(out))
        assert proc.returncode == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["method"] for r in rows] == ["mker", "er"]

    def test_fixed_distribution_scenario_rejects_dist(self):
        proc = run_cli("simulate", "--scenario", "B1", "--dist", "t3",
                       "--N", "30", "--T", "30", "--reps", "1")
        assert proc.returncode == 1
        assert "fixes its distribution" in proc.stderr

    def test_snr_required_for_weak_factor_scenario(self):
        proc = run_cli("simulate", "--scenario", "B3", "--reps", "1")
        assert proc.returncode == 1
        assert "requires snr" in proc.stderr

    def test_panel_too_small_for_kmax(self):
        proc = run_cli("simulate", "--scenario", "A", "--dist", "gaussian",
                       "--N", "2", "--T", "2", "--reps", "1")
        assert proc.returncode == 1
        assert "too small" in proc.stderr

    def test_kmax_zero_rejected(self):
        proc = run_cli("simulate", "--scenario", "C1", "--N", "30", "--T", "30",
                       "--reps", "1", "--kmax", "0")
        assert proc.returncode == 1
        assert "k_max must be >= 1" in proc.stderr

    def test_unknown_flag(self):
        proc = run_cli("simulate", "--scenario", "A", "--fast")
        assert proc.returncode == 1
        assert "error" in proc.stderr


class TestEstimate:
    def test_text_output(self, factor_csv):
        proc = run_cli("estimate", "--input", factor_csv, "--methods", "mker,er")
        assert proc.returncode == 0
        lines = [ln for ln in proc.stdout.splitlines() if ln]
        assert lines[0].startswith("mker r_hat=2 criterion=")
        assert lines[1].startswith("er r_hat=2 criterion=")

    def test_json_schema(self, factor_csv):
        proc = run_cli("estimate", "--input", factor_csv, "--json", "--kmax", "5")
        assert proc.returncode == 0
        payload = json.loads(proc.stdout)
        assert payload["schema_version"] == 1
        assert payload["N"] == 20
        assert payload["T"] == 60
        assert payload["k_max"] == 5
        assert set(payload["results"]) == {"mker", "mktcr", "er", "gr", "tcr"}
        for res in payload["results"].values():
            assert isinstance(res["r_hat"], int)
            assert len(res["criterion"]) == 5
            assert all(isinstance(v, float) for v in res["criterion"])

    def test_json_matches_golden(self, factor_csv):
        # captured before the criteria became one ratio formula; every
        # criterion float prints in full, so a last-bit change shows
        proc = run_cli("estimate", "--input", factor_csv, "--json", "--allow-zero")
        assert proc.returncode == 0
        out = proc.stdout.replace(json.dumps(factor_csv), '"panel.csv"')
        assert out == (GOLDEN / "estimate_allow_zero.json").read_text()

    def test_allow_zero_extends_series(self, factor_csv):
        proc = run_cli("estimate", "--input", factor_csv, "--json",
                       "--kmax", "4", "--allow-zero", "--methods", "mker")
        payload = json.loads(proc.stdout)
        assert len(payload["results"]["mker"]["criterion"]) == 5

    def test_missing_values_imputed_with_note(self, tmp_path):
        gen = np.random.default_rng(3)
        Y = gen.standard_normal((30, 8))
        path = tmp_path / "gaps.csv"
        write_panel_csv(path, Y)
        text = path.read_text().splitlines()
        parts = text[5].split(",")
        parts[2] = "NA"
        text[5] = ",".join(parts)
        path.write_text("\n".join(text) + "\n")
        proc = run_cli("estimate", "--input", str(path), "--methods", "mker", "--kmax", "3")
        assert proc.returncode == 0
        assert "imputing 1 missing entries" in proc.stderr

    def test_no_header_and_time_column(self, tmp_path):
        gen = np.random.default_rng(4)
        Y = gen.standard_normal((25, 6))
        bare = tmp_path / "bare.csv"
        write_panel_csv(bare, Y, header=False)
        dated = tmp_path / "dated.csv"
        write_panel_csv(dated, Y, time_labels=[f"t{i}" for i in range(25)])
        a = run_cli("estimate", "--input", str(bare), "--no-header",
                    "--methods", "er", "--kmax", "4")
        b = run_cli("estimate", "--input", str(dated), "--time-column",
                    "--methods", "er", "--kmax", "4")
        assert a.returncode == b.returncode == 0
        assert a.stdout == b.stdout

    def test_kmax_zero_rejected(self, factor_csv):
        proc = run_cli("estimate", "--input", factor_csv, "--json", "--kmax", "0")
        assert proc.returncode == 1
        assert "k_max must be >= 1" in proc.stderr
        assert proc.stdout == ""

    def test_missing_file_mentions_path(self):
        proc = run_cli("estimate", "--input", "/no/such/panel.csv")
        assert proc.returncode == 1
        assert "/no/such/panel.csv" in proc.stderr

    def test_input_flag_required(self):
        proc = run_cli("estimate")
        assert proc.returncode == 1


class TestRolling:
    def test_stdout_table(self, factor_csv):
        proc = run_cli("rolling", "--input", factor_csv, "--window", "30",
                       "--methods", "mker,er", "--kmax", "4")
        assert proc.returncode == 0
        lines = proc.stdout.splitlines()
        assert lines[0] == "time_label mker er"
        assert len(lines) == 1 + 31
        assert lines[1].split() == ["30", "2", "2"]

    def test_csv_out(self, factor_csv, tmp_path):
        out = tmp_path / "roll.csv"
        proc = run_cli("rolling", "--input", factor_csv, "--window", "40",
                       "--methods", "mker", "--kmax", "4", "--out", str(out))
        assert proc.returncode == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 21
        assert set(rows[0]) == {"time_label", "mker"}

    def test_stdout_matches_golden(self, drifting_csv):
        # captured from the CLI before RollingResult.rows() existed
        proc = run_cli("rolling", "--input", drifting_csv, "--time-column",
                       "--window", "20", "--kmax", "4")
        assert proc.returncode == 0
        assert proc.stdout == (GOLDEN / "rolling_stdout.txt").read_text()

    def test_csv_out_holds_the_stdout_rows(self, drifting_csv, tmp_path):
        out = tmp_path / "roll.csv"
        proc = run_cli("rolling", "--input", drifting_csv, "--time-column",
                       "--window", "20", "--kmax", "4", "--out", str(out))
        assert proc.returncode == 0
        with open(out, newline="") as fh:
            rows = [" ".join(row) for row in csv.reader(fh)]
        assert rows == (GOLDEN / "rolling_stdout.txt").read_text().splitlines()

    def test_kmax_zero_rejected(self, factor_csv):
        proc = run_cli("rolling", "--input", factor_csv, "--window", "30", "--kmax", "0")
        assert proc.returncode == 1
        assert "k_max must be >= 1" in proc.stderr

    def test_window_too_large(self, factor_csv):
        proc = run_cli("rolling", "--input", factor_csv, "--window", "100")
        assert proc.returncode == 1
        assert "exceeds panel length" in proc.stderr


class TestCatalogAndSelfcheck:
    def test_catalog_lists_all_scenarios(self):
        proc = run_cli("catalog")
        assert proc.returncode == 0
        names = [line.split()[0] for line in proc.stdout.splitlines()]
        assert names == ["A", "B1", "B2", "B3", "B4", "B5", "C1", "C2", "C3", "C4", "C5"]

    def test_catalog_matches_golden(self):
        proc = run_cli("catalog")
        assert proc.returncode == 0
        assert proc.stdout == (GOLDEN / "catalog.txt").read_text()

    def test_catalog_survives_stripped_docstrings(self):
        # python -OO drops docstrings; the catalog lines are assigned to __doc__
        proc = subprocess.run(
            [sys.executable, "-OO", "-m", "robustfactors.cli", "catalog"],
            capture_output=True, text=True, timeout=600,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == (GOLDEN / "catalog.txt").read_text()

    def test_selfcheck_passes(self):
        proc = run_cli("selfcheck")
        assert proc.returncode == 0
        assert proc.stdout.count("ok:") == 7
        assert "ok: eigenvalues match a full eigendecomposition" in proc.stdout
        assert "selfcheck passed (7 checks)" in proc.stdout

    def test_selfcheck_deterministic(self):
        a = run_cli("selfcheck", "--seed", "3")
        b = run_cli("selfcheck", "--seed", "3")
        assert a.stdout == b.stdout

    def test_corrupted_matrix_trips_invariant_gate(self):
        proc = run_cli("selfcheck", "--corrupt")
        assert proc.returncode == 3
        assert "invariant violation" in proc.stderr


class TestParser:
    def test_no_command(self):
        proc = run_cli()
        assert proc.returncode == 1

    def test_unknown_command(self):
        proc = run_cli("train")
        assert proc.returncode == 1

    def test_top_level_help(self):
        proc = run_cli("--help")
        assert proc.returncode == 0
        for cmd in ("simulate", "estimate", "rolling", "catalog", "selfcheck"):
            assert cmd in proc.stdout

    @pytest.mark.parametrize(
        "cmd,flags",
        [
            ("simulate", ["--scenario", "--dist", "--N", "--T", "--reps", "--seed",
                          "--snr", "--kmax", "--c", "--methods", "--out"]),
            ("estimate", ["--input", "--no-header", "--time-column", "--methods",
                          "--kmax", "--c", "--allow-zero", "--json"]),
            ("rolling", ["--input", "--no-header", "--time-column", "--window",
                         "--methods", "--kmax", "--c", "--out"]),
        ],
    )
    def test_subcommand_help_lists_flags(self, cmd, flags):
        proc = run_cli(cmd, "--help")
        assert proc.returncode == 0
        for flag in flags:
            assert flag in proc.stdout, flag
        assert "--workers" not in proc.stdout
