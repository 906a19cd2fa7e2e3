"""End-to-end acceptance checks with pinned tolerances and workloads.

Each test prints one ``ACCEPTANCE PASS`` line on success; run with
``pytest tests/test_acceptance.py -v -s`` to see them. Workload sizes,
tolerances, and wall-time budgets are fixed here on purpose.
"""
import itertools
from time import perf_counter

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from seqpava import (
    ExperimentConfig,
    WeightedSeries,
    check_fit,
    expand,
    fit_family,
    fit_standard,
    generate_dataset,
    group,
    iter_prefix_fits,
    minmax_fit,
    run_benchmark,
)
from seqpava.cli import main
from seqpava.sequential import init, update_increase

from conftest import MIXED_Z


def _announce(label):
    print(f"\nACCEPTANCE PASS: {label}")


def test_fixed_vector_batch_fit(mixed_series):
    blocks = fit_standard(mixed_series)
    assert_array_equal(blocks.partition.boundaries, [0, 3, 7, 9])
    assert_allclose(blocks.means, [2.0, 0.125, 0.0], rtol=0, atol=1e-12)

    snapshots = list(iter_prefix_fits(mixed_series))
    after7 = snapshots[6]
    assert_array_equal(after7.partition.boundaries, [0, 3, 7])
    assert abs(after7.means[1] - 0.125) <= 1e-12

    best = min(_timed(fit_standard, mixed_series) for _ in range(50))
    assert best < 1e-3, f"batch fit took {best * 1e3:.3f} ms"
    _announce(f"fixed-vector batch fit (best {best * 1e6:.1f} us)")


def _timed(fn, *args):
    start = perf_counter()
    fn(*args)
    return perf_counter() - start


def test_single_increase_updates(mixed_series):
    state = init(mixed_series)

    raised_mid = update_increase(state, 5, 1.0)
    assert_array_equal(raised_mid.blocks.partition.boundaries, [0, 3, 6, 7, 9])
    want_mid = [2.0, 2.0, 2.0, 2 / 3, 2 / 3, 2 / 3, 0.5, 0.0, 0.0]
    assert_allclose(raised_mid.fit(), want_mid, rtol=0, atol=1e-12)

    raised_left = update_increase(state, 4, 2.0)
    assert_array_equal(raised_left.blocks.partition.boundaries, [0, 4, 7, 9])
    want_left = [2.0, 2.0, 2.0, 2.0, 1 / 6, 1 / 6, 1 / 6, 0.0, 0.0]
    assert_allclose(raised_left.fit(), want_left, rtol=0, atol=1e-12)

    best = min(
        min(_timed(update_increase, state, 5, 1.0), _timed(update_increase, state, 4, 2.0))
        for _ in range(50)
    )
    assert best < 1e-3, f"single update took {best * 1e3:.3f} ms"
    _announce(f"single-increase updates (best {best * 1e6:.1f} us)")


def test_oracle_equivalence():
    start = perf_counter()
    checked = 0
    for m in range(1, 11):
        for bits in itertools.product((0.0, 1.0), repeat=m):
            series = WeightedSeries(np.array(bits))
            fit = expand(fit_standard(series))
            assert_allclose(fit, minmax_fit(series), rtol=0, atol=1e-9)
            result = check_fit(fit, series)
            assert result.valid, result.reason
            checked += 1

    rng = np.random.default_rng(1000)
    for _ in range(1000):
        m = int(rng.integers(1, 9))
        series = WeightedSeries(
            rng.integers(-3, 4, size=m).astype(float),
            rng.integers(1, 4, size=m).astype(float),
        )
        fit = expand(fit_standard(series))
        assert_allclose(fit, minmax_fit(series), rtol=0, atol=1e-9)
        result = check_fit(fit, series)
        assert result.valid, result.reason
        checked += 1

    elapsed = perf_counter() - start
    assert elapsed < 30.0, f"oracle equivalence took {elapsed:.1f} s"
    _announce(f"oracle equivalence on {checked} instances ({elapsed:.1f} s)")


@pytest.fixture(scope="module")
def sequential_trials():
    """500 random increase sequences; records outcomes for the two tests below."""
    rng = np.random.default_rng(2025)
    outcome = {
        "updates": 0,
        "max_gap": 0.0,
        "partition_mismatch": None,
        "domination_failure": None,
        "tail_failure": None,
        "coarsening_failure": None,
        "junction_failure": None,
    }
    start = perf_counter()
    for trial in range(500):
        m = int(rng.integers(1, 41))
        w = rng.uniform(0.5, 3.0, size=m) if rng.integers(2) else np.ones(m)
        state = init(WeightedSeries(np.zeros(m), w))
        for _ in range(200):
            j = int(rng.integers(1, m + 1))
            value = float(state.z[j - 1] + rng.uniform(0.01, 1.0))
            new_state = update_increase(state, j, value)
            outcome["updates"] += 1

            batch = fit_standard(WeightedSeries(new_state.z, w))
            gap = float(np.max(np.abs(new_state.fit() - expand(batch))))
            outcome["max_gap"] = max(outcome["max_gap"], gap)
            new_bounds = new_state.blocks.partition.boundaries
            if not np.array_equal(new_bounds, batch.partition.boundaries):
                outcome["partition_mismatch"] = (trial, new_state.z.tolist())

            old_bounds = state.blocks.partition.boundaries
            touched_end = int(old_bounds[int(np.searchsorted(old_bounds, j))])
            old_fit = state.fit()
            new_fit = new_state.fit()
            if not (new_fit >= old_fit).all():
                outcome["domination_failure"] = (trial, j)
            if not np.array_equal(new_fit[touched_end:], old_fit[touched_end:]):
                outcome["tail_failure"] = (trial, j)
            old_left = set(old_bounds[(old_bounds > 0) & (old_bounds < j)].tolist())
            new_left = set(new_bounds[(new_bounds > 0) & (new_bounds < j)].tolist())
            if not new_left <= old_left:
                outcome["coarsening_failure"] = (trial, j)
            if not (np.diff(new_state.blocks.means) < 0).all():
                outcome["junction_failure"] = (trial, j)

            state = new_state
    outcome["elapsed"] = perf_counter() - start
    return outcome


def test_sequential_equivalence(sequential_trials):
    out = sequential_trials
    assert out["updates"] == 100_000
    assert out["max_gap"] <= 1e-12, f"worst fit gap {out['max_gap']}"
    assert out["partition_mismatch"] is None, out["partition_mismatch"]
    assert out["elapsed"] < 60.0, f"sequential run took {out['elapsed']:.1f} s"
    _announce(
        f"sequential equivalence over {out['updates']} updates "
        f"(max gap {out['max_gap']:.2e}, {out['elapsed']:.1f} s)"
    )


def test_update_order_properties(sequential_trials):
    out = sequential_trials
    assert out["domination_failure"] is None, out["domination_failure"]
    assert out["tail_failure"] is None, out["tail_failure"]
    assert out["coarsening_failure"] is None, out["coarsening_failure"]
    assert out["junction_failure"] is None, out["junction_failure"]
    _announce("update order properties (domination, bitwise tail, coarsening, seam)")


def test_cdf_family_pipeline():
    start = perf_counter()
    config = ExperimentConfig(n=200, replications=1, seed=4242)
    variants = ("standard", "modified", "abridged")
    for r in range(50):
        obs = group(generate_dataset(config, r))
        estimates = {v: fit_family(obs, v) for v in variants}
        reference = estimates["standard"]
        for variant in variants:
            estimate = estimates[variant]
            assert_array_equal(estimate.thresholds, reference.thresholds)
            gap = float(np.max(np.abs(estimate.cdf - reference.cdf)))
            assert gap <= 1e-12, f"{variant} deviates by {gap} on dataset {r}"
            estimate.validate()

        order = np.lexsort((obs.group_index, obs.y))
        groups_sorted = obs.group_index[order]
        y_sorted = obs.y[order]
        counts = np.zeros(obs.m)
        col = 0
        for t in range(obs.n):
            counts[groups_sorted[t]] += 1
            if t == obs.n - 1 or y_sorted[t + 1] != y_sorted[t]:
                series = WeightedSeries(counts / obs.weights, obs.weights)
                for variant in variants:
                    result = check_fit(estimates[variant].cdf[:, col], series)
                    assert result.valid, (r, variant, col, result.reason)
                col += 1
        assert col == reference.k

    elapsed = perf_counter() - start
    assert elapsed < 60.0, f"pipeline suite took {elapsed:.1f} s"
    _announce(f"CDF-family pipeline on 50 datasets ({elapsed:.1f} s)")


def test_variant_timing_order():
    start = perf_counter()
    report = run_benchmark(ExperimentConfig(n=1000, replications=20, seed=2024))
    elapsed = perf_counter() - start

    medians = {v: report.median(v) for v in ("standard", "modified", "abridged")}
    assert medians["abridged"] < medians["modified"] < medians["standard"], medians
    ratio_sa = report.ratio_mean("standard", "abridged")
    ratio_sm = report.ratio_mean("standard", "modified")
    assert ratio_sa >= 5.0, f"standard/abridged ratio {ratio_sa:.2f}"
    assert ratio_sm >= 1.5, f"standard/modified ratio {ratio_sm:.2f}"
    assert elapsed < 300.0, f"benchmark took {elapsed:.1f} s"
    _announce(
        f"variant timing order (T1/T3 {ratio_sa:.1f}, T1/T2 {ratio_sm:.1f}, {elapsed:.1f} s)"
    )


def test_variant_work_order(pushed):
    # the timing order above in units pushed through the pooling kernel,
    # which does not depend on how fast the kernel or the machine is
    obs = group(generate_dataset(ExperimentConfig(n=1000, replications=20, seed=2024), 0))
    units = {}
    for variant in ("abridged", "modified", "standard"):
        pushed.clear()
        fit_family(obs, variant)
        units[variant] = sum(pushed)
    assert units["abridged"] <= units["modified"] <= units["standard"], units
    assert units == {"abridged": 16_479, "modified": 136_298, "standard": 1_000_001}
    _announce(f"variant work order (units pushed {units})")


def test_cli_round_trip(tmp_path, capsys):
    def pipeline(tag):
        base = tmp_path / tag
        base.mkdir()
        obs = base / "observations.csv"
        est = base / "estimate.csv"
        quants = base / "quantiles.csv"
        assert main(["gen", "--n", "1000", "--seed", "42", "--output", str(obs)]) == 0
        assert main(["idr", str(obs), "--output", str(est)]) == 0
        assert main(["quantiles", str(est), "--output", str(quants)]) == 0
        return obs.read_bytes(), est.read_bytes(), quants.read_bytes()

    first = pipeline("first")
    second = pipeline("second")
    capsys.readouterr()
    assert first == second, "rerun with the same seed must be byte-identical"
    _announce("CLI round trip (gen -> idr -> quantiles, byte-identical rerun)")
