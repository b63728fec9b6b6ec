"""Tests for the Monte-Carlo retrieval-error and response harness."""

import math
import multiprocessing
import os
import threading
import time
import tracemalloc

import numpy as np
import pytest

from hrrkit import capacity, cli, core, seeds
from hrrkit.capacity import (
    build_statement,
    capacity_sweep,
    predicted_error,
    query_response_distribution,
    retrieval_error_probability,
    sqrt2_grid,
)
from hrrkit.seeds import mix64
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
            build_statement(kind, [x], [y]), vsa_bind(kind, x, y), atol=1e-12
        )

    def test_single_pair_mapc_is_saturated_binding(self):
        rng = np.random.default_rng(1)
        x, y = rng.uniform(-1, 1, 16), rng.uniform(-1, 1, 16)
        np.testing.assert_array_equal(
            build_statement(VsaKind.MAP_C, [x], [y]),
            np.sign(vsa_bind(VsaKind.MAP_C, x, y)),
        )

    def test_disjoint_delta_pairs_sum_elementwise(self):
        d = 8
        e = np.eye(d)
        expected = core.bind(e[0], e[1]) + core.bind(e[2], e[3])
        np.testing.assert_allclose(
            build_statement(VsaKind.HRR_NAIVE, e[[0, 2]], e[[1, 3]]), expected, atol=1e-12
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
        got = build_statement(kind, xs, ys)
        np.testing.assert_allclose(got, want, atol=1e-12)

    @pytest.mark.parametrize("key_shape", [(3, 9), (2, 8), (8,)])
    def test_values_and_keys_of_different_shapes_raise(self, key_shape):
        with pytest.raises(ValueError) as info:
            build_statement(VsaKind.HRR_NAIVE, np.ones((3, 8)), np.ones(key_shape))
        assert str(info.value) == (
            f"values and keys must be one (n, d) shape, got (3, 8), {key_shape}"
        )

    def test_empty_pairs_raise(self):
        with pytest.raises(ValueError):
            build_statement(VsaKind.HRR_NAIVE, np.empty((0, 8)), np.empty((0, 8)))


class TestRetrievalError:
    def test_orthonormal_delta_pairs_retrieve_exactly(self):
        # Disjoint delta keys and values with non-overlapping delta
        # distractors: recovery is exact, so no distractor can win.
        d = 32
        e = np.eye(d)
        pairs = [(e[i], e[8 + i]) for i in range(4)]
        distractors = [e[20 + j] for j in range(4)]
        s = build_statement(VsaKind.HRR_PROJECTED, e[0:4], e[8:12])
        errors = 0
        for value, key in pairs:
            xhat = vsa_unbind(VsaKind.HRR_PROJECTED, s, key)
            true_sim = core.cosine_similarity(xhat, value)
            best = max(core.cosine_similarity(xhat, z) for z in distractors)
            errors += best > true_sim
        assert errors == 0

    def test_projected_small_load_is_reliable(self):
        est = retrieval_error_probability(VsaKind.HRR_PROJECTED, d=256, n=8, seed=0)
        assert est.p_error <= 0.05

    def test_naive_saturates_at_high_load(self):
        est = retrieval_error_probability(VsaKind.HRR_NAIVE, d=256, n=1024, trials=2, seed=0)
        assert est.p_error > 0.95

    def test_deterministic_given_config(self):
        cfg = dict(kind=VsaKind.VTB, d=64, n=11, seed=3)
        a = retrieval_error_probability(**cfg)
        b = retrieval_error_probability(**cfg)
        assert a == b

    def test_rejects_bad_counts(self):
        with pytest.raises(ValueError):
            retrieval_error_probability(VsaKind.VTB, d=64, n=0)
        with pytest.raises(ValueError, match="trial count must be >= 1, got 0"):
            retrieval_error_probability(VsaKind.VTB, d=64, n=11, trials=0)


class TestCapacity:
    def test_projected_1024_matches_published_within_one_step(self):
        cap, _, _ = capacity_sweep(VsaKind.HRR_PROJECTED, 1024, seed=0)
        assert cap in (45, 64, 91)  # published value 64

    def test_naive_1024_matches_published_within_one_step(self):
        cap, _, _ = capacity_sweep(VsaKind.HRR_NAIVE, 1024, seed=0)
        assert cap in (8, 11, 16)  # published value 12

    def test_mapc_1024_matches_published_within_one_step(self):
        cap, _, _ = capacity_sweep(VsaKind.MAP_C, 1024, seed=0)
        assert cap in (23, 32, 45)  # published value 32

    def test_sweep_reports_saturation_when_nothing_fails(self):
        cap, saturated, _ = capacity_sweep(
            VsaKind.HRR_PROJECTED, 256, threshold=0.999, n_max=16, seed=0
        )
        assert saturated and cap == 16

    def test_n_max_below_first_grid_point_raises(self):
        with pytest.raises(ValueError, match="n_max must be >= 8"):
            capacity_sweep(VsaKind.HRR_NAIVE, 64, n_max=7)

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            capacity_sweep(VsaKind.HRR_NAIVE, 64, threshold=0.0)

    def test_projected_capacity_monotone_across_dimension_grid(self):
        caps = [
            capacity_sweep(VsaKind.HRR_PROJECTED, d, seed=0)[0]
            for d in [25, 64, 121, 256, 484, 1024]
        ]
        assert all(b >= a for a, b in zip(caps, caps[1:])), caps


class TestResponses:
    def test_single_unitary_pair_responds_exactly_one(self):
        stats = query_response_distribution(64, 1, trials=3, seed=0)
        assert stats.mean_present == pytest.approx(1.0, abs=1e-8)
        assert stats.std_present == pytest.approx(0.0, abs=1e-8)

    def test_small_statement_matches_published_point(self):
        stats = query_response_distribution(256, 4, trials=10, seed=0)
        assert stats.mean_present == pytest.approx(0.96, abs=0.2)
        assert stats.mean_absent == pytest.approx(-0.06, abs=0.2)

    def test_large_statement_keeps_mean_despite_noise(self):
        stats = query_response_distribution(
            256, 65536, trials=6, seed=0, max_queries=1024
        )
        assert stats.mean_present == pytest.approx(0.99, abs=0.3)
        assert stats.mean_absent == pytest.approx(-0.05, abs=0.3)

    def test_rejects_non_hrr_kinds(self):
        with pytest.raises(ValueError):
            query_response_distribution(64, 4, kind=VsaKind.MAP_C)

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"n": 0}, "pair count must be >= 1, got 0"),
            ({"trials": 0}, "trial count must be >= 1, got 0"),
            ({"max_queries": 0}, "query count must be >= 1, got 0"),
        ],
    )
    def test_rejects_bad_counts_before_any_work(self, kwargs, message, monkeypatch):
        def no_sampling(*args, **kw):
            raise AssertionError("sampled before validating")

        monkeypatch.setattr(core, "sample_spectra", no_sampling)
        args = {"d": 64, "n": 4, **kwargs}
        with pytest.raises(ValueError, match=message):
            query_response_distribution(**args)


# Time-domain reference: the trial and response loop as they were before
# trials moved to the frequency domain (every symbol drawn in the time
# domain, the statement formed by bind_sum, unbinding by vsa_unbind).


TINY = 1e-9  # a planted key bin: far under exact_inverse's floor, but not 0


def plant_bin(ys, row, bin_):
    """Keys ys with spectral bin bin_ of the given row set to TINY."""
    spec = np.fft.rfft(ys)
    spec[row, bin_] = TINY
    return np.fft.irfft(spec, n=ys.shape[1])


def divide_through(s, ys):
    """Naive unbinding by plain spectral division, with no floor."""
    return np.fft.irfft(np.fft.rfft(s) / np.fft.rfft(ys), n=ys.shape[1])


def reference_trial_errors(kind, d, n, trials, seed, planted=()):
    # planted maps a trial to the (row, bin) of its keys set to TINY; that
    # trial's keys are divided through, as exact_inverse would refuse them.
    kind = VsaKind(kind)
    errors = []
    for trial in range(trials):
        base = mix64(seed, trial)
        xs = vsa_sample(kind, d, mix64(base, 0), count=n)
        ys = vsa_sample(kind, d, mix64(base, 1), count=n)
        zs = vsa_sample(kind, d, mix64(base, 2), count=n)
        unbind = lambda s, ys: vsa_unbind(kind, s, ys)
        if trial in planted:
            ys, unbind = plant_bin(ys, *planted[trial]), divide_through
        s = core.bind_sum(xs, ys)
        xhat = unbind(s, ys)
        xhat_n = xhat / (np.linalg.norm(xhat, axis=1, keepdims=True) + core.COSINE_EPS)
        true_sim = np.sum(
            xhat_n * xs / (np.linalg.norm(xs, axis=1, keepdims=True) + core.COSINE_EPS),
            axis=1,
        )
        zs_n = zs / (np.linalg.norm(zs, axis=1, keepdims=True) + core.COSINE_EPS)
        best_distractor = (xhat_n @ zs_n.T).max(axis=1)
        errors.append(int(np.count_nonzero(best_distractor > true_sim)))
    return tuple(errors)


def reference_responses(d, n_values, trials, seed, kind, max_queries, planted=()):
    # planted as in reference_trial_errors, keyed by (n, trial)
    out = []
    for n in n_values:
        present, absent = [], []
        q = min(int(n), max_queries)
        for trial in range(trials):
            base = mix64(seed, n, trial)
            xs = vsa_sample(kind, d, mix64(base, 0), count=n)
            ys = vsa_sample(kind, d, mix64(base, 1), count=n)
            unbind = lambda s, ys: vsa_unbind(kind, s, ys)
            if (n, trial) in planted:
                ys, unbind = plant_bin(ys, *planted[n, trial]), divide_through
            s = core.bind_sum(xs, ys)
            fresh = vsa_sample(kind, d, mix64(base, 2), count=2 * q)
            present.append(np.sum(xs[:q] * unbind(s, ys[:q]), axis=1))
            absent.append(np.sum(fresh[:q] * unbind(s, fresh[q:]), axis=1))
        present, absent = np.concatenate(present), np.concatenate(absent)
        out.append((present.mean(), present.std(), absent.mean(), absent.std()))
    return out


HRR_KINDS = [VsaKind.HRR_NAIVE, VsaKind.HRR_PROJECTED]
BLOCK = capacity._RESPONSE_BLOCK


class TestSpectralTrials:
    @pytest.mark.parametrize("kind", HRR_KINDS)
    @pytest.mark.parametrize("d", [121, 256, 1024])  # 121 is odd: no Nyquist bin
    def test_error_counts_equal_the_time_domain_trial(self, kind, d):
        for n in (1, 8, 45, 128):
            for seed in range(3):
                cfg = dict(kind=kind, d=d, n=n, trials=3, seed=seed)
                got = retrieval_error_probability(**cfg).per_trial_errors
                assert got == reference_trial_errors(**cfg), (n, seed)

    @pytest.mark.parametrize("kind", HRR_KINDS)
    @pytest.mark.parametrize(
        "n_values, max_queries",
        [
            ([1, 255, BLOCK - 1, BLOCK + 1, 3 * BLOCK + 5], 256),
            # more queries than a block holds: the first block grows to q rows
            ([3 * BLOCK + 5], BLOCK + 3),
        ],
    )
    def test_response_stats_equal_the_time_domain_loop(self, kind, n_values, max_queries):
        got = [
            query_response_distribution(64, n, trials=2, seed=5, kind=kind, max_queries=max_queries)
            for n in n_values
        ]
        want = reference_responses(64, n_values, 2, 5, kind, max_queries)
        assert [s.n for s in got] == n_values
        for stats, ref in zip(got, want):
            values = (stats.mean_present, stats.std_present, stats.mean_absent, stats.std_absent)
            np.testing.assert_allclose(values, ref, rtol=1e-12, atol=1e-12)

    @staticmethod
    def planted_bin_sampler(monkeypatch, key_seed, row, bin_, value):
        sample = core.sample_spectra
        planted = []

        def patched(d, seed, count, unitary=False, block=None):
            start = 0
            for spec in sample(d, seed, count, unitary, block):
                if seed == key_seed and start <= row < start + len(spec):
                    spec[row - start, bin_] = value
                    planted.append(np.fft.irfft(spec[row - start], n=d))
                start += len(spec)
                yield spec

        monkeypatch.setattr(core, "sample_spectra", patched)
        return planted  # the planted key, in the time domain, once drawn

    def test_naive_trial_divides_through_a_tiny_key_bin(self, monkeypatch):
        cfg = dict(kind=VsaKind.HRR_NAIVE, d=64, n=20, trials=2, seed=9)
        keys = mix64(mix64(cfg["seed"], 1), 1)  # trial 1's keys
        planted = self.planted_bin_sampler(monkeypatch, keys, row=13, bin_=5, value=TINY)
        got = retrieval_error_probability(**cfg).per_trial_errors
        monkeypatch.undo()
        assert got == reference_trial_errors(**cfg, planted={1: (13, 5)})
        with pytest.raises(core.SpectralInverseError, match=r"^spectral bin 5 has magnitude"):
            core.exact_inverse(planted[0])

    def test_naive_response_divides_through_a_tiny_key_bin(self, monkeypatch):
        n = BLOCK + 40
        keys = mix64(mix64(3, n, 0), 1)
        planted = self.planted_bin_sampler(monkeypatch, keys, row=7, bin_=32, value=TINY)  # Nyquist at d=64
        got = query_response_distribution(64, n, trials=1, seed=3, kind=VsaKind.HRR_NAIVE)
        monkeypatch.undo()
        (want,) = reference_responses(64, [n], 1, 3, VsaKind.HRR_NAIVE, 256, planted={(n, 0): (7, 32)})
        values = (got.mean_present, got.std_present, got.mean_absent, got.std_absent)
        # The reference's key goes through irfft and back, which moves the
        # 1e-9 bin by about 1e-17, so the responses it dominates by 1e-8.
        np.testing.assert_allclose(values, want, rtol=1e-6)
        with pytest.raises(core.SpectralInverseError, match=r"^spectral bin 32 has magnitude"):
            core.exact_inverse(planted[0])

    def test_naive_response_inverts_only_the_queried_keys(self, monkeypatch):
        # As in the time-domain loop, only the first q keys are unbound.
        n = BLOCK + 40
        keys = mix64(mix64(3, n, 0), 1)
        self.planted_bin_sampler(monkeypatch, keys, row=BLOCK + 1, bin_=5, value=0.0)
        stats = query_response_distribution(
            64, n, trials=1, seed=3, kind=VsaKind.HRR_NAIVE, max_queries=16
        )
        assert np.isfinite(stats.mean_present)

    def test_response_memory_stays_below_a_quarter_of_one_batch(self):
        # One 65,536 x 256 float64 batch is 134 MB; the statement is summed
        # over row blocks, so the call peaks below 32 MB (the time-domain
        # loop peaked at 540 MB under the same measurement).
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            query_response_distribution(256, 65536, trials=1, seed=0)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 32e6, peak


class TestPredictedError:
    def test_single_pair_is_one_gaussian_tail(self):
        # With n = 1 there is no crosstalk: p = P(N(0, 1/d) > 1) = 1 - Phi(sqrt(d)).
        for d in (4, 9, 16):
            assert predicted_error(d, 1) == pytest.approx(
                0.5 * math.erfc(math.sqrt(d / 2.0)), rel=1e-12
            )

    @pytest.mark.parametrize("d, n", [(256, 32), (1024, 181), (64, 40)])
    def test_quadrature_matches_sampling_the_model(self, d, n):
        rng = np.random.default_rng(11)
        draws = 20000
        true = 1.0 + rng.standard_normal(draws) * math.sqrt((n - 1) / d)
        best = rng.standard_normal((draws, n)).max(axis=1) * math.sqrt(n / d)
        p_sampled = float(np.mean(best > true))
        p = predicted_error(d, n)
        assert abs(p_sampled - p) <= 4 * math.sqrt(p * (1 - p) / draws)

    def test_rejects_empty_cells(self):
        with pytest.raises(ValueError):
            predicted_error(256, 0)

    # Band stated before measuring: Monte Carlo within three binomial
    # standard errors of the model plus 0.03 for the model's simplifications
    # (Gaussian, independent responses; cosines rather than dot products).
    MODEL_BAND = 0.03

    @pytest.mark.parametrize(
        "d, n", [(256, 32), (256, 45), (256, 64), (256, 91), (1024, 91), (1024, 128), (1024, 256)]
    )
    def test_monte_carlo_agrees_with_the_model(self, d, n):
        trials = 10
        est = retrieval_error_probability(VsaKind.HRR_PROJECTED, d, n, trials=trials, seed=3)
        p = predicted_error(d, n)
        binomial = 3 * math.sqrt(p * (1 - p) / (n * trials))
        assert abs(est.p_error - p) <= binomial + self.MODEL_BAND, (est.p_error, p)

    @pytest.mark.parametrize("d, n", [(256, 11), (256, 16), (1024, 32), (1024, 45)])
    def test_model_is_conservative_near_the_knee(self, d, n):
        trials = 10
        est = retrieval_error_probability(VsaKind.HRR_PROJECTED, d, n, trials=trials, seed=3)
        p = predicted_error(d, n)
        assert est.p_error <= p + 3 * math.sqrt(p * (1 - p) / (n * trials)), (est.p_error, p)


def trial_threads(monkeypatch):
    """Record the thread each trial runs on, keyed by its seed."""
    threads = {}
    original = capacity._trial_errors

    def recording(kind, d, n, base):
        threads[base] = threading.current_thread()
        return original(kind, d, n, base)

    monkeypatch.setattr(capacity, "_trial_errors", recording)
    return threads


class TestWorkerThread:
    """Trials two at a time (even ones on the caller's thread, odd ones on a
    worker), and response value blocks drawn a block ahead on a worker."""

    @pytest.mark.parametrize("kind", list(VsaKind))
    @pytest.mark.parametrize("d, n", [(4096, 128), (121, 45)])  # 121 is odd: no Nyquist bin
    def test_per_trial_errors_equal_the_inline_path(self, kind, d, n, monkeypatch):
        cfg = dict(kind=kind, d=d, n=n, trials=5, seed=11)
        threads = trial_threads(monkeypatch)
        monkeypatch.setattr(seeds, "_usable_cpus", lambda: 1)
        inline = retrieval_error_probability(**cfg)
        assert set(threads.values()) == {threading.main_thread()}
        monkeypatch.setattr(seeds, "_usable_cpus", lambda: 2)
        pooled = retrieval_error_probability(**cfg)
        on_main = [threads[mix64(11, t)] is threading.main_thread() for t in range(5)]
        assert on_main == [True, False, True, False, True]
        assert pooled == inline
        assert pooled.per_trial_errors == inline.per_trial_errors

    @pytest.mark.parametrize("first, second", [(1, 2), (0, 1)])
    def test_first_failing_trial_in_order_is_raised(self, first, second, monkeypatch):
        # Two trials fail, the earlier one made slow so that it fails last:
        # its error is the one raised, whichever thread ran it (trial 1 runs
        # on the worker; trials 0 and 2 on this thread).
        monkeypatch.setattr(seeds, "_usable_cpus", lambda: 2)
        cfg = dict(kind=VsaKind.HRR_NAIVE, d=64, n=20, trials=4, seed=9)
        bases = lambda trial: mix64(cfg["seed"], trial)
        planted = {bases(first): (13, 5), bases(second): (4, 7)}
        original = capacity._trial_errors
        ran_on = {}

        def failing(kind, d, n, base):
            if base not in planted:
                return original(kind, d, n, base)
            ran_on[base] = threading.current_thread()
            if base == bases(first):
                time.sleep(0.2)
            row, bin_ = planted[base]
            raise core.SpectralInverseError(f"spectral bin {bin_} of row {row} has magnitude 0")

        monkeypatch.setattr(capacity, "_trial_errors", failing)
        before = threading.active_count()
        with pytest.raises(core.SpectralInverseError, match=r"^spectral bin 5 of row 13 "):
            retrieval_error_probability(**cfg)
        assert ran_on[bases(1)] is not threading.main_thread()
        assert threading.active_count() == before
        monkeypatch.setattr(seeds, "_usable_cpus", lambda: 1)
        with pytest.raises(core.SpectralInverseError, match=r"^spectral bin 5 of row 13 "):
            retrieval_error_probability(**cfg)

    @pytest.mark.parametrize("kind", HRR_KINDS)
    def test_response_with_the_worker_equals_inline(self, kind, monkeypatch):
        sample = core.sample_spectra
        drawn_on = set()

        def recording(*args, **kwargs):
            for spec in sample(*args, **kwargs):
                drawn_on.add(threading.current_thread())
                yield spec

        monkeypatch.setattr(core, "sample_spectra", recording)
        run = lambda: [
            query_response_distribution(64, n, trials=2, seed=4, kind=kind) for n in (3 * BLOCK + 5, 300)
        ]
        monkeypatch.setattr(seeds, "_usable_cpus", lambda: 1)
        inline = run()
        assert drawn_on == {threading.main_thread()}
        monkeypatch.setattr(seeds, "_usable_cpus", lambda: 2)
        assert run() == inline
        assert len(drawn_on) > 1  # worker threads drew blocks too

    def test_two_trials_in_flight_hold_at_most_six_spectra(self):
        # Two trials in flight, each holding at most three n x (d/2 + 1)
        # complex arrays: 6 * 128 * 2049 * 16 B = 25.2 MB, plus 1.8 MB for
        # the small arrays. One trial alone peaked at 29.5 MB when it kept
        # every array to the end.
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            retrieval_error_probability(VsaKind.HRR_PROJECTED, d=4096, n=128, trials=10, seed=3)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 27e6, peak

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="the --jobs children must inherit the recording patch",
    )
    def test_capacity_jobs_children_run_their_trials_inline(self, tmp_path, monkeypatch):
        # Even with two usable CPUs, a --jobs child starts no trial thread:
        # its sibling processes hold the other CPUs.
        monkeypatch.setattr(seeds, "_usable_cpus", lambda: 2)
        log = tmp_path / "threads.log"
        original = capacity._trial_errors

        def logging_trial(kind, d, n, base):
            with open(log, "a", encoding="utf-8") as fh:
                fh.write(f"{os.getpid()} {threading.current_thread() is threading.main_thread()}\n")
            return original(kind, d, n, base)

        monkeypatch.setattr(capacity, "_trial_errors", logging_trial)
        out = tmp_path / "c.csv"
        assert cli.main([
            "capacity", "--vsa", "hrr,hrr-proj", "--dims", "64", "--trials", "4",
            "--n-max", "11", "--jobs", "2", "--out", str(out),
        ]) == 0
        lines = [line.split() for line in log.read_text().splitlines()]
        pids = {pid for pid, _ in lines}
        assert pids and str(os.getpid()) not in pids
        assert {on_main for _, on_main in lines} == {"True"}
