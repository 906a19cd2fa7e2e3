import dataclasses
import json

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from seqpava import ExperimentConfig, TimingReport, bench, fit_family, generate_dataset, group, run_benchmark
from seqpava.bench import response_scale, response_shape, sample_responses


class TestConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n": 1},
            {"replications": 0},
            {"seed": -1},
            {"n": 0},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            ExperimentConfig(**kwargs)

    def test_defaults(self):
        cfg = ExperimentConfig()
        assert cfg.n == 1000 and cfg.replications == 20 and cfg.seed == 0


class TestResponseModel:
    def test_scale_at_center(self):
        assert response_scale(5.0) == 1.0

    def test_scale_left_of_center(self):
        assert response_scale(4.0) == pytest.approx(1.0 - 1.0 / np.sqrt(3.0), abs=1e-12)

    def test_scale_stays_positive(self):
        x = np.linspace(0.0, 10.0, 1001)
        s = response_scale(x)
        assert (s > 0.0).all() and (s < 2.0).all()

    def test_shape_is_sqrt(self):
        assert response_shape(4.0) == 2.0

    def test_sampler_matches_gamma_mean(self):
        # gamma mean is shape * scale; 3 standard errors of 1e5 draws
        rng = np.random.default_rng(77)
        x = np.full(100_000, 4.0)
        draws = sample_responses(x, rng)
        want = response_shape(4.0) * response_scale(4.0)
        se = np.sqrt(response_shape(4.0)) * response_scale(4.0) / np.sqrt(draws.size)
        assert abs(draws.mean() - want) < 3 * se


class TestGenerateDataset:
    def test_shape_and_support(self):
        cfg = ExperimentConfig(n=500, replications=1, seed=4)
        pairs = generate_dataset(cfg, 0)
        assert pairs.shape == (500, 2)
        assert (pairs[:, 0] >= 0.0).all() and (pairs[:, 0] <= 10.0).all()
        assert (pairs[:, 1] > 0.0).all()

    def test_deterministic_per_seed_and_replication(self):
        cfg = ExperimentConfig(n=100, replications=1, seed=4)
        assert_array_equal(generate_dataset(cfg, 3), generate_dataset(cfg, 3))
        assert not np.array_equal(generate_dataset(cfg, 3), generate_dataset(cfg, 4))
        other = ExperimentConfig(n=100, replications=1, seed=5)
        assert not np.array_equal(generate_dataset(cfg, 3), generate_dataset(other, 3))

    def test_rejects_negative_replication(self):
        with pytest.raises(ValueError):
            generate_dataset(ExperimentConfig(), -1)

    def test_fits_are_deterministic(self):
        cfg = ExperimentConfig(n=100, replications=1, seed=6)
        a = fit_family(group(generate_dataset(cfg, 0)))
        b = fit_family(group(generate_dataset(cfg, 0)))
        assert_array_equal(a.cdf, b.cdf)


@pytest.fixture(scope="module")
def report():
    return run_benchmark(ExperimentConfig(n=60, replications=3, seed=13))


class TestRunBenchmark:
    def test_times_positive_and_counted(self, report):
        for variant in ("standard", "modified", "abridged"):
            times = np.asarray(report.times[variant])
            assert times.shape == (3,)
            assert (times > 0).all()

    def test_ratios_are_aggregated_per_replication(self, report):
        t1 = np.asarray(report.times["standard"])
        t3 = np.asarray(report.times["abridged"])
        assert report.ratio_mean("standard", "abridged") == pytest.approx((t1 / t3).mean())
        assert report.ratio_sd("standard", "abridged") == pytest.approx((t1 / t3).std(ddof=1))

    def test_json_round_trips(self, report):
        payload = json.loads(report.to_json())
        assert payload["config"]["n"] == 60
        assert payload["config"]["x_range"] == [0.0, 10.0]  # a constant, kept in the JSON
        assert set(payload["times"]) == {"standard", "modified", "abridged"}
        assert set(payload["ratios"]) == {"standard/modified", "standard/abridged", "modified/abridged"}

    def test_table_bytes(self):
        cfg = ExperimentConfig(n=50, replications=2, seed=0)
        times = {"standard": (1.0, 3.0), "modified": (0.5, 1.0), "abridged": (0.25, 0.5)}
        assert TimingReport(cfg, times).format_table().splitlines() == [
            "variant      mean T [s]     sd T [s]   T1/Tj mean   T1/Tj sd   T2/T3 mean   T2/T3 sd",
            "standard       2.000000     1.414214" + " " * 48,
            "modified       0.750000     0.353553       2.5000     0.7071" + " " * 24,
            "abridged       0.375000     0.176777       5.0000     1.4142       2.0000     0.0000",
        ]

    @pytest.mark.parametrize("field", ["cdf", "thresholds"])
    def test_estimates_one_ulp_apart_are_refused(self, monkeypatch, field):
        fit = bench.fit_family

        def nudged(obs, variant):
            estimate = fit(obs, variant)
            if variant != "abridged":
                return estimate
            values = getattr(estimate, field).copy()
            values[(-1,) * values.ndim] = np.nextafter(values[(-1,) * values.ndim], np.inf)
            return dataclasses.replace(estimate, **{field: values})

        monkeypatch.setattr(bench, "fit_family", nudged)
        with pytest.raises(RuntimeError, match="^abridged differs from standard on replication 0$"):
            run_benchmark(ExperimentConfig(n=30, replications=1, seed=2))

    def test_table_lists_all_variants(self, report):
        table = report.format_table()
        lines = table.splitlines()
        assert len(lines) == 4
        for variant in ("standard", "modified", "abridged"):
            assert any(line.startswith(variant) for line in lines)

    def test_single_replication_has_zero_sd(self):
        report = run_benchmark(ExperimentConfig(n=50, replications=1, seed=14))
        assert report.sd("standard") == 0.0
        assert report.ratio_sd("standard", "abridged") == 0.0

    def test_report_rejects_nonpositive_times(self):
        cfg = ExperimentConfig(n=50, replications=1, seed=15)
        with pytest.raises(ValueError):
            TimingReport(cfg, {"standard": (0.0,), "modified": (1.0,), "abridged": (1.0,)})
