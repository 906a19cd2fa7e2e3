import gzip
import json
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from seqpava import DistributionFamilyEstimate, fit_family, group
from seqpava import cli
from seqpava.cli import main

from conftest import MIXED_Z


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write(path, text):
    path.write_text(text)
    return str(path)


@pytest.fixture
def mixed_file(tmp_path):
    return write(tmp_path / "series.txt", "\n".join(repr(float(v)) for v in MIXED_Z) + "\n")


class TestFit:
    def test_mixed_vector_json(self, capsys, mixed_file):
        code, out, _ = run_cli(capsys, "fit", mixed_file)
        assert code == 0
        payload = json.loads(out)
        assert payload["boundaries"] == [0, 3, 7, 9]
        assert payload["means"] == [2.0, 0.125, 0.0]
        assert payload["fit"] == [2.0, 2.0, 2.0, 0.125, 0.125, 0.125, 0.125, 0.0, 0.0]

    def test_single_row_is_its_own_fit(self, capsys, tmp_path):
        path = write(tmp_path / "one.txt", "4.5\n")
        code, out, _ = run_cli(capsys, "fit", path)
        assert code == 0
        assert json.loads(out)["fit"] == [4.5]

    def test_weights_file(self, capsys, tmp_path):
        series = write(tmp_path / "z.txt", "0\n1\n")
        weights = write(tmp_path / "w.txt", "1\n3\n")
        code, out, _ = run_cli(capsys, "fit", series, "--weights", weights)
        assert code == 0
        assert json.loads(out)["means"] == [0.75]

    def test_huge_equal_values_stay_finite(self, capsys, tmp_path):
        path = write(tmp_path / "huge.txt", "1e308\n1e308\n")
        code, out, _ = run_cli(capsys, "fit", path)
        assert code == 0
        assert "Infinity" not in out
        assert json.loads(out)["fit"] == [1e308, 1e308]

    def test_non_finite_output_exits_1(self, capsys, monkeypatch, mixed_file):
        monkeypatch.setattr(cli, "expand", lambda blocks: np.full(blocks.partition.m, np.inf))
        code, out, err = run_cli(capsys, "fit", mixed_file)
        assert code == 1
        assert "Infinity" not in out
        assert err.startswith("error:")

    def test_malformed_row_names_line(self, capsys, tmp_path):
        path = write(tmp_path / "bad.txt", "1.0\nabc\n2.0\n")
        code, _, err = run_cli(capsys, "fit", path)
        assert code == 2
        assert "line 2" in err

    def test_weight_length_mismatch(self, capsys, tmp_path):
        series = write(tmp_path / "z.txt", "0\n1\n")
        weights = write(tmp_path / "w.txt", "1\n")
        code, _, err = run_cli(capsys, "fit", series, "--weights", weights)
        assert code == 2

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "fit", str(tmp_path / "nope.txt"))
        assert code == 1

    def test_variants_agree(self, capsys, mixed_file):
        outputs = []
        for variant in ("standard", "modified", "abridged"):
            code, out, _ = run_cli(capsys, "fit", mixed_file, "--variant", variant)
            assert code == 0
            outputs.append(out)
        assert outputs[0] == outputs[1] == outputs[2]

    def test_abridged_changes_match_standard_batch(self, capsys, tmp_path):
        base = [1.0, 3.0, 2.0, 0.0, -1.0, 1.0, 0.5, -1.0, 1.0]
        changes = [(5, 1.0), (4, 2.0), (9, 3.0), (2, 3.5)]
        final = list(base)
        for index, value in changes:
            final[index - 1] = value
        base_path = write(tmp_path / "base.txt", "\n".join(map(repr, base)))
        final_path = write(tmp_path / "final.txt", "\n".join(map(repr, final)))
        changes_path = write(
            tmp_path / "changes.csv", "\n".join(f"{i},{v!r}" for i, v in changes)
        )
        code_a, out_a, _ = run_cli(
            capsys, "fit", base_path, "--variant", "abridged", "--changes", changes_path
        )
        code_b, out_b, _ = run_cli(capsys, "fit", final_path, "--variant", "standard")
        assert code_a == code_b == 0
        assert out_a == out_b

    def test_changes_with_decreases_still_match_batch(self, capsys, tmp_path):
        rng = np.random.default_rng(41)
        base = rng.integers(-3, 4, size=20).astype(float)
        current = base.copy()
        changes = []
        for _ in range(30):
            index = int(rng.integers(1, 21))
            value = float(rng.integers(-3, 7))
            changes.append((index, value))
            current[index - 1] = value
        base_path = write(tmp_path / "b.txt", "\n".join(repr(float(v)) for v in base))
        final_path = write(tmp_path / "f.txt", "\n".join(repr(float(v)) for v in current))
        changes_path = write(tmp_path / "c.csv", "\n".join(f"{i},{v!r}" for i, v in changes))
        code_a, out_a, _ = run_cli(
            capsys, "fit", base_path, "--variant", "abridged", "--changes", changes_path
        )
        code_b, out_b, _ = run_cli(capsys, "fit", final_path, "--variant", "standard")
        assert code_a == code_b == 0
        assert json.loads(out_a)["boundaries"] == json.loads(out_b)["boundaries"]
        assert_allclose(json.loads(out_a)["fit"], json.loads(out_b)["fit"], rtol=0, atol=1e-12)


    def test_abridged_increase_next_to_rounded_mean(self, capsys, tmp_path):
        # the initial fit keeps block 4..17 (mean 8.9e-17, true mean 0) apart
        # from block 18..20 (mean 0.0); raising position 8 must pool them
        base = [1, 3, 1, 0, -2, 1, 1, 0, -3, -2, -2, 3, 3, -3, 0, 1, 3, -3, 3, 0]
        final = list(base)
        final[7] = 2
        base_path = write(tmp_path / "s.txt", "\n".join(map(str, base)) + "\n")
        final_path = write(tmp_path / "f.txt", "\n".join(map(str, final)) + "\n")
        changes_path = write(tmp_path / "c.csv", "8,2\n")
        code_a, out_a, err_a = run_cli(
            capsys, "fit", base_path, "--variant", "abridged", "--changes", changes_path
        )
        code_b, out_b, _ = run_cli(capsys, "fit", final_path, "--variant", "standard")
        assert code_a == 0, err_a
        assert code_b == 0
        assert out_a == out_b
        assert json.loads(out_a)["boundaries"] == [0, 2, 3, 8, 20]

    def test_abridged_changes_go_through_public_updates(
        self, capsys, monkeypatch, tmp_path, mixed_file
    ):
        # the benchmark's traced fit times the spans of these two names
        calls = {"init": 0, "update_any": 0}

        def counted(name):
            fn = getattr(cli, name)

            def wrapper(*args):
                calls[name] += 1
                return fn(*args)

            return wrapper

        for name in calls:
            monkeypatch.setattr(cli, name, counted(name))
        changes = [(5, 1.0), (2, 0.0), (5, 1.0), (9, -1.0)]
        changes_path = write(tmp_path / "c.csv", "".join(f"{i},{v!r}\n" for i, v in changes))
        argv = ("fit", mixed_file, "--variant", "abridged", "--changes", changes_path)
        assert run_cli(capsys, *argv)[0] == 0
        assert calls == {"init": 1, "update_any": len(changes)}

    def test_abridged_decrease_of_huge_values_stays_finite(self, capsys, tmp_path):
        # lowering position 1 keeps 1..3 pooled; its weighted sum overflows
        base_path = write(tmp_path / "s.txt", "1e308\n1e308\n1e308\n")
        changes_path = write(tmp_path / "c.csv", "1,0\n")
        code, out, err = run_cli(
            capsys, "fit", base_path, "--variant", "abridged", "--changes", changes_path
        )
        assert code == 0, err
        assert "Infinity" not in out
        assert_allclose(json.loads(out)["fit"], [1e308 / 3 * 2] * 3, rtol=1e-15)

    def test_opposite_huge_values_print_no_warning(self, tmp_path):
        path = write(tmp_path / "z.txt", "1e308\n-1e308\n")
        proc = subprocess.run(
            [sys.executable, "-m", "seqpava", "fit", path], capture_output=True, text=True
        )
        assert proc.returncode == 0
        assert proc.stderr == ""
        assert json.loads(proc.stdout)["fit"] == [1e308, -1e308]


class TestIdr:
    def observations(self, tmp_path, rows):
        return write(tmp_path / "obs.csv", "x,y\n" + "\n".join(f"{x},{y}" for x, y in rows) + "\n")

    def test_two_pair_matrix(self, capsys, tmp_path):
        path = self.observations(tmp_path, [(1.0, 0.0), (2.0, 1.0)])
        code, out, _ = run_cli(capsys, "idr", path)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "y,1,2"
        assert [float(v) for v in lines[1].split(",")] == [0.0, 1.0, 0.0]
        assert [float(v) for v in lines[2].split(",")] == [1.0, 1.0, 1.0]

    def test_tied_covariates_give_ecdf(self, capsys, tmp_path):
        path = self.observations(tmp_path, [(2.0, 3.0), (2.0, 1.0), (2.0, 2.0), (2.0, 2.0)])
        code, out, _ = run_cli(capsys, "idr", path)
        assert code == 0
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        assert [float(r[1]) for r in rows] == [0.25, 0.75, 1.0]

    def test_empty_file(self, capsys, tmp_path):
        path = write(tmp_path / "empty.csv", "")
        code, _, err = run_cli(capsys, "idr", path)
        assert code == 2

    def test_header_only(self, capsys, tmp_path):
        path = write(tmp_path / "h.csv", "x,y\n")
        code, _, err = run_cli(capsys, "idr", path)
        assert code == 2

    def test_malformed_row_names_line(self, capsys, tmp_path):
        path = write(tmp_path / "bad.csv", "x,y\n1,2\n1,abc\n")
        code, _, err = run_cli(capsys, "idr", path)
        assert code == 2
        assert "line 3" in err

    def test_missing_header(self, capsys, tmp_path):
        path = write(tmp_path / "nohdr.csv", "1,2\n3,4\n")
        code, _, err = run_cli(capsys, "idr", path)
        assert code == 2
        assert "header" in err


class TestQuantiles:
    @pytest.fixture
    def estimate_file(self, capsys, tmp_path):
        rng = np.random.default_rng(42)
        rows = "\n".join(
            f"{x},{y}" for x, y in zip(rng.uniform(0, 5, 30), rng.uniform(0, 9, 30))
        )
        obs = write(tmp_path / "obs.csv", "x,y\n" + rows + "\n")
        out_path = tmp_path / "est.csv"
        assert main(["idr", obs, "--output", str(out_path)]) == 0
        capsys.readouterr()
        return obs, str(out_path)

    def test_matches_library_quantiles(self, capsys, tmp_path, estimate_file):
        obs_path, est_path = estimate_file
        code, out, _ = run_cli(capsys, "quantiles", est_path, "--betas", "0.1,0.5,0.9,1")
        assert code == 0
        from seqpava.cli import _read_observations

        est = fit_family(group(_read_observations(obs_path)))
        lines = out.strip().splitlines()
        assert lines[0] == "x,0.1,0.5,0.9,1.0"
        for j, line in enumerate(lines[1:], start=1):
            cells = [float(v) for v in line.split(",")]
            assert cells[0] == est.covariates[j - 1]
            for beta, got in zip((0.1, 0.5, 0.9, 1.0), cells[1:]):
                assert got == est.quantile(j, beta)

    def test_rows_monotone_in_beta_and_max_at_one(self, capsys, estimate_file):
        _, est_path = estimate_file
        code, out, _ = run_cli(capsys, "quantiles", est_path)
        assert code == 0
        for line in out.strip().splitlines()[1:]:
            values = [float(v) for v in line.split(",")][1:]
            assert values == sorted(values)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("y,1,2\n0,nan,0.5\n1,1,1\n", "cdf entries must be numbers in [0, 1]"),
            ("y,1,inf\n0,1,0.5\n1,1,1\n", "must be finite"),
            ("y,1,2\n-inf,1,0.5\n1,1,1\n", "must be finite"),
            ("y,2,1\n0,0.5,0\n1,1,1\n", "covariates must be strictly increasing"),
        ],
    )
    def test_invalid_estimate_exits_1(self, capsys, tmp_path, text, message):
        path = write(tmp_path / "est.csv", text)
        code, out, err = run_cli(capsys, "quantiles", path)
        assert (code, out) == (1, "")
        assert err.startswith("error:")
        assert message in err

    def test_curves_come_from_one_quantiles_call(self, capsys, monkeypatch, estimate_file):
        # one vectorized call for all levels, no per-cell quantile lookups
        def per_cell(*args):
            raise AssertionError("quantile called")

        calls = []
        quantiles = DistributionFamilyEstimate.quantiles
        monkeypatch.setattr(DistributionFamilyEstimate, "quantile", per_cell)
        monkeypatch.setattr(
            DistributionFamilyEstimate,
            "quantiles",
            lambda est, betas: calls.append(list(betas)) or quantiles(est, betas),
        )
        _, est_path = estimate_file
        assert run_cli(capsys, "quantiles", est_path, "--betas", "0.5,1")[0] == 0
        assert calls == [[0.5, 1.0]]

    @pytest.mark.parametrize("betas", ["0", "1.5", "-0.2", "abc", ""])
    def test_bad_betas(self, capsys, estimate_file, betas):
        _, est_path = estimate_file
        code, _, err = run_cli(capsys, "quantiles", est_path, "--betas", betas)
        assert code == 2


class TestGen:
    def test_row_count_and_support(self, capsys):
        code, out, _ = run_cli(capsys, "gen", "--n", "10", "--seed", "3")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "x,y"
        assert len(lines) == 11
        for line in lines[1:]:
            x, y = map(float, line.split(","))
            assert 0.0 <= x <= 10.0 and y > 0.0

    def test_same_seed_same_bytes(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["gen", "--n", "50", "--seed", "9", "--output", str(a)]) == 0
        assert main(["gen", "--n", "50", "--seed", "9", "--output", str(b)]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()

    def test_unwritable_output(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "gen", "--n", "10", "--output", str(tmp_path / "no" / "dir.csv")
        )
        assert code == 1


class TestBenchCommand:
    def test_small_run(self, capsys):
        code, out, _ = run_cli(capsys, "bench", "--n", "60", "--replications", "1", "--seed", "2")
        assert code == 0
        table, _, tail = out.partition("{")
        assert "standard" in table and "abridged" in table
        payload = json.loads("{" + tail)
        for variant in ("standard", "modified", "abridged"):
            assert payload["stats"][variant]["mean"] > 0.0

    def test_bad_flags(self, capsys):
        code, _, _ = run_cli(capsys, "bench", "--replications", "0")
        assert code == 1


class TestRoundTrip:
    @pytest.mark.parametrize("n", [10, 100])
    def test_gen_idr_quantiles(self, capsys, tmp_path, n):
        obs = tmp_path / "obs.csv"
        est = tmp_path / "est.csv"
        quants = tmp_path / "q.csv"
        assert main(["gen", "--n", str(n), "--seed", "1", "--output", str(obs)]) == 0
        assert main(["idr", str(obs), "--output", str(est)]) == 0
        assert main(["quantiles", str(est), "--output", str(quants)]) == 0
        capsys.readouterr()
        assert len(quants.read_text().strip().splitlines()) >= 2


class TestUsage:
    def test_unknown_command(self, capsys):
        assert run_cli(capsys, "polish")[0] == 2

    def test_unknown_flag(self, capsys, mixed_file):
        assert run_cli(capsys, "fit", mixed_file, "--wat")[0] == 2

    def test_help_exits_zero(self, capsys):
        assert run_cli(capsys, "--help")[0] == 0

    def test_module_entry_point(self, tmp_path, mixed_file):
        proc = subprocess.run(
            [sys.executable, "-m", "seqpava", "fit", mixed_file],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["boundaries"] == [0, 3, 7, 9]


SIX_ROWS = "x,y\n1,3\n1,1\n1,2\n2.5,1.5\n2.5,0.25\n3,5\n"

SIX_ESTIMATE = """\
y,1,2.5,3
0.25,0.20000000000000001,0.20000000000000001,0
1,0.40000000000000002,0.40000000000000002,0
1.5,0.59999999999999998,0.59999999999999998,0
2,0.80000000000000004,0.80000000000000004,0
3,1,1,0
5,1,1,1
"""

SIX_QUANTILES = """\
x,0.1,0.25,0.5,0.75,0.9
1,0.25,1,1.5,2,3
2.5,0.25,1,1.5,2,3
3,5,5,5,5,5
"""

# tie runs across all three covariates, and repeated (x, y) pairs
REPEATED_ROWS = """\
x,y
1,2
2,2
2,2
3,1
1,1
3,2
2,0
1,2
3,3
2,2
3,1
1,0.5
3,3
2,1
"""

REPEATED_ESTIMATE = """\
y,1,2,3
0,0.1111111111111111,0.1111111111111111,0
0.5,0.25,0.20000000000000001,0
1,0.5,0.40000000000000002,0.40000000000000002
2,1,1,0.59999999999999998
3,1,1,1
"""

REPEATED_QUANTILES = """\
x,0.1,0.25,0.5,0.75,0.9
1,0,0.5,1,2,2
2,0,1,2,2,2
3,1,1,2,3,3
"""

# zeros of both signs form one threshold, signed as the first zero in
# (covariate, input row) order
MIXED_ZERO_ROWS = ("x,y\n2,0.0\n1,-0.0\n2,-0.0\n1,0.0\n2,1\n", "x,y\n2,-0.0\n1,0.0\n1,-0.0\n2,-1e-300\n")

MIXED_ZERO_ESTIMATES = (
    "y,1,2\n-0,1,0.66666666666666663\n1,1,1\n",
    "y,1,2\n-1e-300,0.25,0.25\n0,1,1\n",
)

GEN_5_SEED_1 = """\
x,y
5.1182162470025672,2.8358302597545659
9.5046369632593528,7.4845119077596252
1.4415961271963373,0.082799490983916771
9.4864944713724384,7.3383230716964443
3.1183145201048545,0.25000395082261528
"""


class TestFileFormat:
    """The rules every command's files share, and golden outputs that pin them."""

    def test_gen_golden(self, capsys):
        assert run_cli(capsys, "gen", "--n", "5", "--seed", "1") == (0, GEN_5_SEED_1, "")

    def test_idr_golden(self, capsys, tmp_path):
        path = write(tmp_path / "six.csv", SIX_ROWS)
        for variant in ("standard", "modified", "abridged"):
            assert run_cli(capsys, "idr", path, "--variant", variant) == (0, SIX_ESTIMATE, "")

    def test_quantiles_golden(self, capsys, tmp_path):
        path = write(tmp_path / "est.csv", SIX_ESTIMATE)
        assert run_cli(capsys, "quantiles", path) == (0, SIX_QUANTILES, "")

    def test_idr_golden_with_repeated_rows(self, capsys, tmp_path):
        path = write(tmp_path / "repeated.csv", REPEATED_ROWS)
        for variant in ("standard", "modified", "abridged"):
            result = run_cli(capsys, "idr", path, "--variant", variant)
            assert result == (0, REPEATED_ESTIMATE, "")

    @pytest.mark.parametrize("rows, estimate", zip(MIXED_ZERO_ROWS, MIXED_ZERO_ESTIMATES))
    def test_idr_golden_with_mixed_zeros(self, capsys, tmp_path, rows, estimate):
        path = write(tmp_path / "zeros.csv", rows)
        for variant in ("standard", "modified", "abridged"):
            assert run_cli(capsys, "idr", path, "--variant", variant) == (0, estimate, "")

    def test_quantiles_golden_with_repeated_rows(self, capsys, tmp_path):
        path = write(tmp_path / "est.csv", REPEATED_ESTIMATE)
        assert run_cli(capsys, "quantiles", path) == (0, REPEATED_QUANTILES, "")

    def test_blank_lines_are_skipped(self, capsys, tmp_path):
        obs = write(tmp_path / "obs.csv", "\n  \n" + SIX_ROWS.replace("\n", "\n\n"))
        assert run_cli(capsys, "idr", obs) == (0, SIX_ESTIMATE, "")
        est = write(tmp_path / "est.csv", "\n" + SIX_ESTIMATE.replace("\n", "\n \n"))
        assert run_cli(capsys, "quantiles", est) == (0, SIX_QUANTILES, "")
        series = write(tmp_path / "z.txt", "\n1\n\n3\n\n")
        weights = write(tmp_path / "w.txt", "1\n\n\n1\n")
        changes = write(tmp_path / "c.csv", "\n\n2,0\n\n")
        code, out, _ = run_cli(capsys, "fit", series, "--weights", weights, "--changes", changes)
        assert code == 0
        assert json.loads(out)["fit"] == [1.0, 0.0]

    @pytest.mark.parametrize(
        "command, text, line",
        [
            ("fit", "1\n\n\nabc\n", 4),
            ("idr", "\nx,y\n\n1,2\n\n1,abc\n", 6),
            ("quantiles", "y,1\n\n0,1\n\n1,1,1\n", 5),
            ("fit", "1\r\r\rabc\r", 4),
            ("idr", "\rx,y\r\r1,2\r\r1,abc\r", 6),
            ("quantiles", "y,1\r\r0,1\r\r1,1,1\r", 5),
            ("idr", "x,y\r\n\r\nx,y\r\n", 3),
        ],
    )
    def test_blank_lines_count_in_line_numbers(self, capsys, tmp_path, command, text, line):
        code, _, err = run_cli(capsys, command, write(tmp_path / "in.csv", text))
        assert code == 2
        assert f"line {line}:" in err

    def test_crlf_line_endings(self, capsys, tmp_path):
        for end in ("\r\n", "\r"):  # Windows and old Mac OS line endings
            obs = tmp_path / "obs.csv"
            obs.write_bytes(SIX_ROWS.replace("\n", end).encode())
            assert run_cli(capsys, "idr", str(obs)) == (0, SIX_ESTIMATE, "")
            est = tmp_path / "est.csv"
            est.write_bytes(SIX_ESTIMATE.replace("\n", end).encode())
            assert run_cli(capsys, "quantiles", str(est)) == (0, SIX_QUANTILES, "")
            series, weights, changes = tmp_path / "z.txt", tmp_path / "w.txt", tmp_path / "c.csv"
            series.write_bytes(f"1{end}3{end}".encode())
            weights.write_bytes(f"1{end}3{end}".encode())
            changes.write_bytes(f"1,4{end}".encode())
            code, out, _ = run_cli(
                capsys, "fit", str(series), "--weights", str(weights), "--changes", str(changes)
            )
            assert code == 0
            assert json.loads(out)["fit"] == [4.0, 3.0]

    def test_write_csv_matches_per_cell_formatting(self, capsys, tmp_path):
        special = [-0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308, 3.0, -7.0, 0.1, 1 / 3]
        # more cells than one write of the writer, so rows span several writes
        table = np.random.default_rng(5).choice(special, size=(30_000, 3))
        table[:2, 0] = [-0.0, 0.0]
        expected = "a,b,c\n" + "".join(
            ",".join("%.17g" % value for value in row) + "\n" for row in table.tolist()
        )
        assert expected.startswith("a,b,c\n-0,")
        path = tmp_path / "table.csv"
        cli._write_csv(str(path), "a,b,c", table)
        assert path.read_text() == expected
        cli._write_csv("-", "a,b,c", table)
        assert capsys.readouterr().out == expected

    def test_bad_weights_line(self, capsys, tmp_path):
        series = write(tmp_path / "z.txt", "0\n1\n2\n")
        weights = write(tmp_path / "w.txt", "1\n1,2\n1\n")
        code, _, err = run_cli(capsys, "fit", series, "--weights", weights)
        assert code == 2
        assert "line 2:" in err

    @pytest.mark.parametrize("bad", ["3", "2.5,1", "2.0,1", "1,abc", "1,2,3"])
    def test_bad_changes_line(self, capsys, tmp_path, bad):
        series = write(tmp_path / "z.txt", "0\n1\n2\n")
        changes = write(tmp_path / "c.csv", f"1,5\n\n{bad}\n2,0\n")
        code, _, err = run_cli(capsys, "fit", series, "--changes", changes)
        assert code == 2
        assert "line 3:" in err

    def test_malformed_changes_line_before_bad_index_is_named(self, capsys, tmp_path):
        series = write(tmp_path / "z.txt", "0\n1\n2\n")
        changes = write(tmp_path / "c.csv", "1,abc\n2.0,1\n")
        code, _, err = run_cli(capsys, "fit", series, "--changes", changes)
        assert code == 2
        assert "line 1:" in err

    @pytest.mark.parametrize("variant", ["standard", "modified", "abridged"])
    def test_empty_changes_file_is_no_changes(self, capsys, tmp_path, mixed_file, variant):
        changes = write(tmp_path / "c.csv", "\n \n")
        plain = run_cli(capsys, "fit", mixed_file, "--variant", variant)
        assert plain[0] == 0
        argv = ("fit", mixed_file, "--variant", variant, "--changes", changes)
        assert run_cli(capsys, *argv) == plain

    def test_ragged_estimate_row(self, capsys, tmp_path):
        path = write(tmp_path / "est.csv", "y,1,2\n0,1,0\n1,1\n")
        code, _, err = run_cli(capsys, "quantiles", path)
        assert code == 2
        assert "line 3:" in err

    @pytest.mark.parametrize("header", ["x,1,2", "1,2", "y"])
    def test_estimate_header_must_start_with_y(self, capsys, tmp_path, header):
        path = write(tmp_path / "est.csv", f"\n{header}\n0,1,0\n1,1,1\n")
        code, _, err = run_cli(capsys, "quantiles", path)
        assert code == 2
        assert "line 2:" in err



# Texts near the number syntax: the characters of numbers, inf and nan, the
# separators, whitespace numpy and float() treat differently, a non-ASCII
# digit (float() reads it, numpy does not), and comment and quote marks.
READER_ALPHABET = "0123456789+-.eE_infatyINFATY, \t\x0c\r\n\u0661#\""
_NUMBER = st.one_of(st.floats().map(repr), st.integers(-10**20, 10**20).map(str))
_FIELD = st.one_of(
    _NUMBER,
    st.text(READER_ALPHABET.replace("\n", "").replace("\r", "").replace(",", ""), max_size=5),
)
_LINE = st.one_of(
    st.lists(_FIELD, min_size=1, max_size=3).map(",".join),
    st.text(READER_ALPHABET, max_size=8),
)
# well-formed tables, mostly read by numpy, next to lines that mostly are not
_TABLE = st.integers(1, 3).flatmap(
    lambda width: st.lists(
        st.lists(_NUMBER, min_size=width, max_size=width).map(",".join), min_size=1, max_size=6
    )
)
READER_TEXTS = st.one_of(
    st.tuples(st.one_of(_TABLE, st.lists(_LINE, max_size=6)), st.sampled_from(["\n", "\r\n", "\r"])).map(
        lambda lines_end: lines_end[1].join(lines_end[0])
    ),
    st.text(READER_ALPHABET, max_size=30),
)


def _outcome(read, *args):
    """What ``read(*args)`` returns, or the message of the InputFormatError it raises."""
    try:
        return read(*args)
    except cli.InputFormatError as exc:
        return str(exc)


def _same(got, want):
    if isinstance(want, str) or isinstance(got, str):
        return got == want
    return got.shape == want.shape and (got.view(np.uint64) == want.view(np.uint64)).all()


def _series_per_line(path):
    lines = cli._scan(path)
    if not lines:
        raise cli.InputFormatError(f"{path}: no values found")
    return cli._parse(path, lines, 1).ravel()


def _observations_per_line(path):
    lines = cli._scan(path)
    if len(lines) < 2:
        raise cli.InputFormatError(f"{path}: expected a header 'x,y' and at least one row")
    if lines[0].replace(" ", "").lower() != "x,y":
        raise cli.InputFormatError(f"{cli._at(path, 0)}: expected header 'x,y', got {lines[0]!r}")
    return cli._parse(path, lines[1:], 2, 1)


def _changes_per_line(path):
    lines = cli._scan(path)
    indices = []
    for index, text in enumerate(lines):
        try:
            indices.append(int(text.partition(",")[0]))
        except ValueError:
            cli._parse(path, lines[:index], 2)
            raise cli.InputFormatError(f"{cli._at(path, index)}: not an integer index") from None
    return list(zip(indices, cli._parse(path, lines, 2)[:, 1].tolist()))


@pytest.fixture(scope="module")
def reader_file(tmp_path_factory):
    return tmp_path_factory.mktemp("reader") / "in.csv"


@settings(max_examples=200, deadline=None)
@given(text=READER_TEXTS, width=st.integers(1, 3))
def test_reader_matches_per_line_float(reader_file, text, width):
    # numpy's reader gives the rows float() gives, bit for bit, or hands the
    # file to the per-line loop, which names the same bad line
    path = str(reader_file)
    reader_file.write_bytes(text.encode())
    lines = cli._scan(path)
    for header, first in ((False, 0), (True, 1)):
        found, rows = cli._load(path, header)
        if rows is not None:
            assert found == (lines[0] if header else "")
        got = _outcome(cli._rows, path, rows, width, first)
        assert _same(got, _outcome(cli._parse, path, lines[first:], width, first))
    assert _same(_outcome(cli._read_series, path), _outcome(_series_per_line, path))
    # repr keeps the sign of zero apart
    assert repr(_outcome(cli._read_changes, path)) == repr(_outcome(_changes_per_line, path))
    reader_file.write_bytes(("x,y\n" + text).encode())
    assert _same(_outcome(cli._read_observations, path), _outcome(_observations_per_line, path))


# Inputs without rows or with one, and a .gz name, which numpy would
# decompress if it were given the path; the CLI reads every file as text.
STDERR_TEXTS = {
    "header only": {"idr": "x,y\n", "quantiles": "y,1,2\n", "fit": "x,y\n"},
    "blank only": dict.fromkeys(("idr", "quantiles", "fit"), "\n \n\t\n"),
    "one row": {"idr": "x,y\n1,2\n", "quantiles": "y,1\n1,1\n", "fit": "4.5\n"},
}
STDERR_EXPECTED = {
    ("header only", "idr"): (2, "error: {path}: expected a header 'x,y' and at least one row\n"),
    ("header only", "quantiles"): (
        2, "error: {path}: expected a header 'y,<covariates>' and at least one row\n"
    ),
    ("header only", "fit"): (2, "error: {path}: line 1: could not convert string to float: 'x'\n"),
    ("blank only", "idr"): (2, "error: {path}: expected a header 'x,y' and at least one row\n"),
    ("blank only", "quantiles"): (
        2, "error: {path}: expected a header 'y,<covariates>' and at least one row\n"
    ),
    ("blank only", "fit"): (2, "error: {path}: no values found\n"),
}


@pytest.mark.parametrize("command", ["idr", "quantiles", "fit"])
@pytest.mark.parametrize(
    "case, name",
    [(case, "in.csv") for case in STDERR_TEXTS] + [("one row", "in.csv.gz"), ("gzip", "in.csv.gz")],
)
def test_stderr_and_exit_code_in_a_fresh_interpreter(tmp_path, command, case, name):
    # capsys does not see warnings, so each command runs in its own interpreter
    path = tmp_path / name
    if case == "gzip":
        path.write_bytes(gzip.compress(STDERR_TEXTS["one row"][command].encode(), mtime=0))
        expected = (1, "error: 'utf-8' codec can't decode byte 0x8b in position 1: invalid start byte\n")
    else:
        path.write_text(STDERR_TEXTS[case][command])
        expected = STDERR_EXPECTED.get((case, command), (0, ""))
    env = {**os.environ, "PYTHONUTF8": "1", "PYTHONWARNINGS": "default"}
    proc = subprocess.run(
        [sys.executable, "-m", "seqpava", command, str(path)], capture_output=True, text=True, env=env
    )
    code, message = expected
    assert (proc.returncode, proc.stderr) == (code, message.format(path=path))
