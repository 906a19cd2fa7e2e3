import json
import subprocess
import sys

import numpy as np
import pytest
from numpy.testing import assert_allclose

from seqpava import fit_family, group
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
        ],
    )
    def test_blank_lines_count_in_line_numbers(self, capsys, tmp_path, command, text, line):
        code, _, err = run_cli(capsys, command, write(tmp_path / "in.csv", text))
        assert code == 2
        assert f"line {line}:" in err

    def test_crlf_line_endings(self, capsys, tmp_path):
        obs = tmp_path / "obs.csv"
        obs.write_bytes(SIX_ROWS.replace("\n", "\r\n").encode())
        assert run_cli(capsys, "idr", str(obs)) == (0, SIX_ESTIMATE, "")
        est = tmp_path / "est.csv"
        est.write_bytes(SIX_ESTIMATE.replace("\n", "\r\n").encode())
        assert run_cli(capsys, "quantiles", str(est)) == (0, SIX_QUANTILES, "")
        series, weights, changes = tmp_path / "z.txt", tmp_path / "w.txt", tmp_path / "c.csv"
        series.write_bytes(b"1\r\n3\r\n")
        weights.write_bytes(b"1\r\n3\r\n")
        changes.write_bytes(b"1,4\r\n")
        code, out, _ = run_cli(
            capsys, "fit", str(series), "--weights", str(weights), "--changes", str(changes)
        )
        assert code == 0
        assert json.loads(out)["fit"] == [4.0, 3.0]

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

