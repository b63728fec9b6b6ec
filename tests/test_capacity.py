"""Tests for the Monte-Carlo retrieval-error and response harness."""

import numpy as np
import pytest

from hrrkit import capacity, core
from hrrkit.capacity import (
    CapacityTrialConfig,
    build_statement,
    capacity_at_threshold,
    capacity_curve,
    capacity_sweep,
    query_response_distribution,
    retrieval_error_probability,
    sqrt2_grid,
)
from hrrkit.vsa import VsaKind, vsa_bind, vsa_sample, vsa_unbind


class TestGrid:
    def test_rounded_sqrt2_powers(self):
        assert sqrt2_grid(64) == [8, 11, 16, 23, 32, 45, 64]

    def test_deduplicated_and_bounded(self):
        grid = sqrt2_grid(2048)
        assert len(set(grid)) == len(grid)
        assert grid[-1] <= 2048


class TestBuildStatement:
    @pytest.mark.parametrize(
        "kind", [VsaKind.HRR_NAIVE, VsaKind.HRR_PROJECTED, VsaKind.VTB]
    )
    def test_single_pair_equals_binding(self, kind):
        d = 16
        rng = np.random.default_rng(0)
        x, y = rng.standard_normal(d), rng.standard_normal(d)
        np.testing.assert_allclose(
            build_statement(kind, [(x, y)]), vsa_bind(kind, x, y), atol=1e-12
        )

    def test_single_pair_mapc_is_saturated_binding(self):
        rng = np.random.default_rng(1)
        x, y = rng.uniform(-1, 1, 16), rng.uniform(-1, 1, 16)
        np.testing.assert_array_equal(
            build_statement(VsaKind.MAP_C, [(x, y)]),
            np.sign(vsa_bind(VsaKind.MAP_C, x, y)),
        )

    def test_disjoint_delta_pairs_sum_elementwise(self):
        d = 8
        e = np.eye(d)
        pairs = [(e[0], e[1]), (e[2], e[3])]
        expected = core.bind(e[0], e[1]) + core.bind(e[2], e[3])
        np.testing.assert_allclose(
            build_statement(VsaKind.HRR_NAIVE, pairs), expected, atol=1e-12
        )

    @pytest.mark.parametrize("kind", list(VsaKind))
    @pytest.mark.parametrize("d", [121, 256])
    def test_many_pairs_equal_sum_of_bindings(self, kind, d):
        # HRR statements are summed in the spectral domain; the reference
        # binds every pair and sums the rows.
        xs = vsa_sample(kind, d, 3, count=40)
        ys = vsa_sample(kind, d, 4, count=40)
        want = vsa_bind(kind, xs, ys).sum(axis=0)
        if kind is VsaKind.MAP_C:
            want = np.sign(want)
        got = build_statement(kind, list(zip(xs, ys)))
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_empty_pairs_raise(self):
        with pytest.raises(ValueError):
            build_statement(VsaKind.HRR_NAIVE, [])


class TestRetrievalError:
    def test_orthonormal_delta_pairs_retrieve_exactly(self):
        # Disjoint delta keys and values with non-overlapping delta
        # distractors: recovery is exact, so no distractor can win.
        d = 32
        e = np.eye(d)
        pairs = [(e[i], e[8 + i]) for i in range(4)]
        distractors = [e[20 + j] for j in range(4)]
        s = build_statement(VsaKind.HRR_PROJECTED, pairs)
        errors = 0
        for value, key in pairs:
            xhat = vsa_unbind(VsaKind.HRR_PROJECTED, s, key)
            true_sim = core.cosine_similarity(xhat, value)
            best = max(core.cosine_similarity(xhat, z) for z in distractors)
            errors += best > true_sim
        assert errors == 0

    def test_projected_small_load_is_reliable(self):
        est = retrieval_error_probability(
            CapacityTrialConfig(kind=VsaKind.HRR_PROJECTED, d=256, n=8, seed=0)
        )
        assert est.p_error <= 0.05

    def test_naive_saturates_at_high_load(self):
        est = retrieval_error_probability(
            CapacityTrialConfig(kind=VsaKind.HRR_NAIVE, d=256, n=1024, trials=2, seed=0)
        )
        assert est.p_error > 0.95

    def test_deterministic_given_config(self):
        cfg = CapacityTrialConfig(kind=VsaKind.VTB, d=64, n=11, seed=3)
        a = retrieval_error_probability(cfg)
        b = retrieval_error_probability(cfg)
        assert a == b

    def test_rejects_bad_counts(self):
        with pytest.raises(ValueError):
            CapacityTrialConfig(kind=VsaKind.VTB, d=64, n=0)


class TestCapacity:
    def test_projected_1024_matches_published_within_one_step(self):
        _, cap = capacity_at_threshold(VsaKind.HRR_PROJECTED, 1024, seed=0)
        assert cap in (45, 64, 91)  # published value 64

    def test_naive_1024_matches_published_within_one_step(self):
        _, cap = capacity_at_threshold(VsaKind.HRR_NAIVE, 1024, seed=0)
        assert cap in (8, 11, 16)  # published value 12

    def test_mapc_1024_matches_published_within_one_step(self):
        _, cap = capacity_at_threshold(VsaKind.MAP_C, 1024, seed=0)
        assert cap in (23, 32, 45)  # published value 32

    def test_sweep_reports_saturation_when_nothing_fails(self):
        cap, saturated, _ = capacity_sweep(
            VsaKind.HRR_PROJECTED, 256, threshold=0.999, n_max=16, seed=0
        )
        assert saturated and cap == 16

    def test_curve_points_sorted_by_dimension(self):
        curve = capacity_curve(VsaKind.HRR_PROJECTED, [64, 25], trials=4, seed=0)
        assert [d for d, _ in curve.points] == [25, 64]

    def test_n_max_below_first_grid_point_raises(self):
        with pytest.raises(ValueError, match="n_max must be >= 8"):
            capacity_sweep(VsaKind.HRR_NAIVE, 64, n_max=7)

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            capacity_sweep(VsaKind.HRR_NAIVE, 64, threshold=0.0)

    def test_projected_capacity_monotone_across_dimension_grid(self):
        curve = capacity_curve(
            VsaKind.HRR_PROJECTED, [25, 64, 121, 256, 484, 1024], seed=0
        )
        caps = [c for _, c in curve.points]
        assert all(b >= a for a, b in zip(caps, caps[1:])), caps


class TestResponses:
    def test_single_unitary_pair_responds_exactly_one(self):
        stats = query_response_distribution(64, [1], trials=3, seed=0)
        assert stats[0].mean_present == pytest.approx(1.0, abs=1e-8)
        assert stats[0].std_present == pytest.approx(0.0, abs=1e-8)

    def test_small_statement_matches_published_point(self):
        stats = query_response_distribution(256, [4], trials=10, seed=0)
        assert stats[0].mean_present == pytest.approx(0.96, abs=0.2)
        assert stats[0].mean_absent == pytest.approx(-0.06, abs=0.2)

    def test_large_statement_keeps_mean_despite_noise(self):
        stats = query_response_distribution(
            256, [65536], trials=6, seed=0, max_queries=1024
        )
        assert stats[0].mean_present == pytest.approx(0.99, abs=0.3)
        assert stats[0].mean_absent == pytest.approx(-0.05, abs=0.3)

    def test_rejects_non_hrr_kinds(self):
        with pytest.raises(ValueError):
            query_response_distribution(64, [4], kind=VsaKind.MAP_C)

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"n_values": [4, 0]}, "pair count must be >= 1, got 0"),
            ({"trials": 0}, "trial count must be >= 1, got 0"),
            ({"max_queries": 0}, "query count must be >= 1, got 0"),
        ],
    )
    def test_rejects_bad_counts_before_any_work(self, kwargs, message, monkeypatch):
        def no_sampling(*args, **kw):
            raise AssertionError("sampled before validating")

        monkeypatch.setattr(capacity, "vsa_sample", no_sampling)
        args = {"d": 64, "n_values": [4, 8], **kwargs}
        with pytest.raises(ValueError, match=message):
            query_response_distribution(**args)
