"""Tests for the dense label encoding, query loss, and decoders."""

import os
import sys
import threading
import weakref

import numpy as np
import pytest

from hrrkit import core
from hrrkit import data as dataio
from hrrkit import labels as lb
from hrrkit import trainer as tr
from hrrkit.seeds import mix64


def encode_direct(space, present):
    """Term-by-term two-sum encoding, the oracle for the shortcut form.

    Binds the present role with each present class and the missing role
    with each absent class individually; the absent bundle carries the same
    1/sqrt(|absent|) normalization as the production encoder.
    """
    present = set(int(i) for i in present)
    absent = [i for i in range(space.n_classes) if i not in present]
    out = np.zeros(space.dim)
    for i in sorted(present):
        out += core.bind(space.p, space.class_vectors([i])[0])
    w = 1.0 / np.sqrt(len(absent)) if absent else 1.0
    for i in absent:
        out += w * core.bind(space.m, space.class_vectors([i])[0])
    return out


class TestLabelSpace:
    @pytest.mark.parametrize(
        "n_classes, dim, message",
        [(0, 8, "class count must be >= 1, got 0"), (4, 1, "dimension must be >= 2, got 1")],
    )
    def test_rejects_too_few_classes_or_dimensions(self, n_classes, dim, message):
        with pytest.raises(ValueError) as info:
            lb.make_label_space(n_classes, dim, seed=0)
        assert str(info.value) == message

    def test_roles_are_orthogonal(self):
        sp = lb.make_label_space(20, 128, seed=0)
        assert abs(core.cosine_similarity(sp.p, sp.m)) < 1e-6

    def test_present_role_is_unitary(self):
        sp = lb.make_label_space(20, 128, seed=0)
        np.testing.assert_allclose(np.abs(np.fft.fft(sp.p)), 1.0, atol=1e-9)

    def test_class_vectors_regenerate_deterministically(self):
        sp = lb.make_label_space(50, 64, seed=1)
        np.testing.assert_array_equal(sp.class_vectors([17])[0], sp.class_vectors([17])[0])
        np.testing.assert_array_equal(
            sp.class_vectors([17])[0], core.sample_unitary(64, mix64(sp.seed, 17))
        )

    def test_all_classes_vector_matches_explicit_sum(self):
        sp = lb.make_label_space(37, 64, seed=2)
        total = sum(sp.class_vectors([i])[0] for i in range(37))
        np.testing.assert_allclose(sp.all_classes, total, atol=1e-8)

    def test_construction_regenerates_no_class_vectors(self, monkeypatch):
        calls = []
        original = lb.LabelSpace.class_vectors

        def counting(self, indices):
            calls.append(len(np.atleast_1d(indices)))
            return original(self, indices)

        monkeypatch.setattr(lb.LabelSpace, "class_vectors", counting)
        sp = lb.make_label_space(1100, 16, seed=2)
        assert calls == []
        total = sp.all_classes
        assert sum(calls) == 1100
        assert sp.all_classes is total  # computed once, then cached
        assert sum(calls) == 1100

    def test_class_vectors_nearly_orthogonal(self):
        sp = lb.make_label_space(1000, 256, seed=3)
        rng = np.random.default_rng(4)
        sims = []
        for _ in range(100):
            i, j = rng.choice(1000, size=2, replace=False)
            sims.append(abs(core.cosine_similarity(sp.class_vectors([i])[0], sp.class_vectors([j])[0])))
        assert np.mean(sims) < 0.1

    def test_out_of_range_index_raises(self):
        sp = lb.make_label_space(5, 32, seed=5)
        with pytest.raises(IndexError):
            sp.class_vectors([5])[0]
        for bad in ([0, 5, 1], [2, -1]):
            with pytest.raises(IndexError, match=rf"^class index {bad[1]} out of range \[0, 5\)$"):
                sp.class_vectors(bad)


def sample_unitary_rows(space, indices):
    """Per-class reference: one SeedSequence, PCG64 and draw per class."""
    return np.stack(
        [core.sample_unitary(space.dim, mix64(space.seed, int(i))) for i in indices]
    )


class TestBatchedClassVectors:
    @pytest.mark.parametrize("n, d, seed", [(1100, 121, -3), (700, 400, 2**40), (50, 64, 1)])
    def test_bitwise_equal_to_per_class_sampling(self, n, d, seed):
        sp = lb.make_label_space(n, d, seed)
        got = sp.class_vectors(np.arange(n))
        assert got.shape == (n, d)
        ref = sample_unitary_rows(sp, range(n))
        np.testing.assert_array_equal(got.view(np.int64), ref.view(np.int64))

    def test_empty_duplicate_and_unsorted_indices(self):
        sp = lb.make_label_space(300, 64, seed=11)
        assert sp.class_vectors([]).shape == (0, 64)
        assert sp.class_vectors(np.empty(0, dtype=np.int64)).shape == (0, 64)
        idx = [299, 3, 3, 150, 0, 3]
        got = sp.class_vectors(idx)
        assert got.shape == (6, 64)
        ref = sample_unitary_rows(sp, idx)
        np.testing.assert_array_equal(got.view(np.int64), ref.view(np.int64))
        np.testing.assert_array_equal(got[1], got[5])
        single = sp.class_vectors(7)
        assert single.shape == (1, 64)
        np.testing.assert_array_equal(sp.class_vectors([7])[0], single[0])


def pin_cpus(monkeypatch, n):
    """Make the process look as if it may run on n CPUs."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)


@pytest.fixture(params=[1, 2], ids=["1cpu", "2cpus"])
def usable_cpus(request, monkeypatch):
    pin_cpus(monkeypatch, request.param)
    return request.param


def serial_class_blocks(space):
    """The one-block-at-a-time producer, the reference for iter_class_blocks."""
    for start in range(0, space.n_classes, lb._CLASS_BLOCK):
        stop = min(start + lb._CLASS_BLOCK, space.n_classes)
        yield start, space.class_vectors(np.arange(start, stop))


class TestClassBlockProducer:
    @pytest.mark.parametrize("n", [lb._CLASS_BLOCK - 12, 2 * lb._CLASS_BLOCK + 300])
    def test_blocks_are_class_vectors_bit_for_bit(self, n, usable_cpus):
        sp = lb.make_label_space(n, 48, seed=31)
        blocks = list(sp.iter_class_blocks())
        assert [start for start, _ in blocks] == list(range(0, n, lb._CLASS_BLOCK))
        for start, rows in blocks:
            want = sp.class_vectors(np.arange(start, min(start + lb._CLASS_BLOCK, n)))
            assert rows.shape == want.shape
            assert np.array_equal(rows.view(np.int64), want.view(np.int64))

    def test_closing_a_partly_consumed_iterator_stops_the_worker(self, monkeypatch):
        pin_cpus(monkeypatch, 2)
        sp = lb.make_label_space(4 * lb._CLASS_BLOCK, 16, seed=32)
        before = threading.active_count()
        blocks = sp.iter_class_blocks()
        next(blocks)
        next(blocks)
        assert threading.active_count() == before + 1  # the worker, one block ahead
        blocks.close()
        assert threading.active_count() == before

    def test_worker_error_reaches_the_caller_and_leaves_no_thread(self, usable_cpus, monkeypatch):
        original = lb.LabelSpace.class_vectors
        raised_on = []

        def failing(self, indices):
            if np.atleast_1d(indices)[0] == 2 * lb._CLASS_BLOCK:
                raised_on.append(threading.current_thread())
                raise RuntimeError("block 2 failed")
            return original(self, indices)

        monkeypatch.setattr(lb.LabelSpace, "class_vectors", failing)
        sp = lb.make_label_space(3 * lb._CLASS_BLOCK + 5, 16, seed=33)
        before = threading.active_count()
        starts = []
        with pytest.raises(RuntimeError, match="^block 2 failed$"):
            for start, _ in sp.iter_class_blocks():
                starts.append(start)
        assert starts == [0, lb._CLASS_BLOCK]
        assert (raised_on == [threading.main_thread()]) == (usable_cpus == 1)
        assert threading.active_count() == before

    @pytest.mark.parametrize("n, cpus", [(3 * lb._CLASS_BLOCK, 1), (lb._CLASS_BLOCK, 2)])
    def test_one_cpu_or_one_block_starts_no_thread(self, n, cpus, monkeypatch):
        pin_cpus(monkeypatch, cpus)
        sp = lb.make_label_space(n, 16, seed=34)
        before = threading.active_count()
        counts = [threading.active_count() for _ in sp.iter_class_blocks()]
        assert counts == [before] * (n // lb._CLASS_BLOCK)

    def test_cpu_count_stands_in_without_an_affinity_call(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        sp = lb.make_label_space(3 * lb._CLASS_BLOCK, 16, seed=35)
        before = threading.active_count()
        assert [threading.active_count() for _ in sp.iter_class_blocks()] == [before] * 3
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        blocks = sp.iter_class_blocks()
        next(blocks)
        assert threading.active_count() == before + 1
        blocks.close()

    def test_predict_rankings_equal_the_serial_producer(self, usable_cpus, monkeypatch):
        n_labels, d = 2 * lb._CLASS_BLOCK + 76, 64
        ds = dataio.synth_generate(40, 3 * n_labels, n_labels, 3, seed=36, noise=0.1)
        sp = lb.make_label_space(n_labels, d, seed=37)
        model = tr.init_model(ds.n_features, (32,), d, "hrr", seed=38)
        got = tr.predict_rankings(model, ds, space=sp, k=25)
        monkeypatch.setattr(lb.LabelSpace, "iter_class_blocks", serial_class_blocks)
        assert got == tr.predict_rankings(model, ds, space=sp, k=25)

    def test_threads_sharing_one_space_each_get_every_block(self, monkeypatch):
        # four callers, each with its own worker, on two CPUs' worth of threads
        pin_cpus(monkeypatch, 2)
        sp = lb.make_label_space(3 * lb._CLASS_BLOCK + 40, 16, seed=39)
        s_hat = np.stack([core.sample_standard(16, seed) for seed in range(5)])
        want = lb.topk(lb.score_blocks(sp, s_hat), 30)
        results = [None] * 4

        def decode(slot):
            results[slot] = lb.topk(lb.score_blocks(sp, s_hat), 30)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=decode, args=(slot,)) for slot in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for got in results:
            np.testing.assert_array_equal(got, want)


class TestEncode:
    @pytest.mark.parametrize("n_classes,n_present", [(20, 3), (64, 1), (64, 10)])
    def test_shortcut_matches_two_sum_oracle(self, n_classes, n_present):
        sp = lb.make_label_space(n_classes, 64, seed=6)
        rng = np.random.default_rng(n_classes + n_present)
        for _ in range(5):
            present = sorted(rng.choice(n_classes, size=n_present, replace=False).tolist())
            np.testing.assert_allclose(
                lb.encode_labels(sp, present), encode_direct(sp, present), atol=1e-8
            )

    def test_empty_present_set_is_scaled_missing_bundle(self):
        sp = lb.make_label_space(25, 64, seed=7)
        expected = core.bind(sp.m, sp.all_classes) / np.sqrt(25)
        np.testing.assert_allclose(lb.encode_labels(sp, []), expected, atol=1e-12)

    def test_full_present_set_binds_all_classes_with_present_role(self):
        sp = lb.make_label_space(12, 64, seed=8)
        got = lb.encode_labels(sp, range(12))
        np.testing.assert_allclose(got, core.bind(sp.p, sp.all_classes), atol=1e-8)

    def test_out_of_range_label_raises(self):
        sp = lb.make_label_space(4, 32, seed=9)
        with pytest.raises(IndexError):
            lb.encode_labels(sp, [4])


class TestLoss:
    def test_perfect_encoding_sits_near_noise_floor(self):
        totals = []
        for seed in range(100):
            sp = lb.make_label_space(10, 256, seed=3000 + seed)
            s = lb.encode_labels(sp, [3])
            totals.append(lb.loss(sp, s, [3]).total)
        assert np.mean(totals) < 0.35

    def test_missing_only_prediction_has_unit_present_loss(self):
        values = []
        for seed in range(20):
            sp = lb.make_label_space(50, 512, seed=4000 + seed)
            s_hat = core.bind(sp.m, sp.all_classes)
            values.append(lb.loss(sp, s_hat, [7]).j_p)
        assert 0.85 <= np.mean(values) <= 1.1

    def test_empty_present_set_is_degenerate_zero(self):
        sp = lb.make_label_space(10, 64, seed=10)
        out = lb.loss(sp, np.ones(64), [])
        assert out.degenerate and out.j_p == 0.0 and out.j_n == 0.0 and out.total == 0.0
        np.testing.assert_array_equal(lb.loss_gradient(sp, np.ones(64), []), np.zeros(64))

    def test_total_is_sum_of_terms(self):
        sp = lb.make_label_space(10, 64, seed=11)
        out = lb.loss(sp, core.sample_standard(64, 1), [2, 5])
        assert out.total == out.j_p + out.j_n

    def test_permutation_invariant_in_label_order(self):
        sp = lb.make_label_space(30, 64, seed=12)
        s_hat = core.sample_standard(64, 2)
        a = lb.loss(sp, s_hat, [4, 9, 21])
        b = lb.loss(sp, s_hat, [21, 4, 9])
        assert a == b

    def test_separates_correct_from_disjoint_targets(self):
        wins = 0
        for seed in range(100):
            sp = lb.make_label_space(50, 512, seed=5000 + seed)
            rng = np.random.default_rng(seed)
            picks = rng.choice(50, size=6, replace=False)
            right, wrong = sorted(picks[:3]), sorted(picks[3:])
            good = lb.loss(sp, lb.encode_labels(sp, right), right).total
            bad = lb.loss(sp, lb.encode_labels(sp, wrong), right).total
            wins += good < bad
        assert wins >= 95

    def test_gradient_matches_central_differences(self):
        sp = lb.make_label_space(10, 64, seed=13)
        rng = np.random.default_rng(14)
        s_hat = 0.4 * rng.standard_normal(64)
        present = [1, 4, 7]
        grad = lb.loss_gradient(sp, s_hat, present)
        h = 1e-6
        fd = np.zeros(64)
        for j in range(64):
            e = np.zeros(64)
            e[j] = h
            hi = lb.loss(sp, s_hat + e, present).total
            lo = lb.loss(sp, s_hat - e, present).total
            fd[j] = (hi - lo) / (2 * h)
        assert np.linalg.norm(grad - fd) / np.linalg.norm(fd) < 1e-5

    def test_gradient_vanishes_at_descent_fixed_point(self):
        sp = lb.make_label_space(10, 64, seed=15)
        s_hat = lb.encode_labels(sp, [6])
        for _ in range(4000):
            s_hat = s_hat - 0.05 * lb.loss_gradient(sp, s_hat, [6])
        assert np.linalg.norm(lb.loss_gradient(sp, s_hat, [6])) < 1e-4

    def test_combined_call_matches_separate_ops(self):
        sp = lb.make_label_space(16, 64, seed=16)
        s_hat = core.sample_standard(64, 3)
        breakdown, grad = lb.loss_with_gradient(sp, s_hat, [2, 9])
        assert breakdown == lb.loss(sp, s_hat, [2, 9])
        np.testing.assert_array_equal(grad, lb.loss_gradient(sp, s_hat, [2, 9]))


def reference_cosines_and_grads(u, rows):
    nu = np.linalg.norm(u)
    nv = np.linalg.norm(rows, axis=1)
    den = nu * nv + core.COSINE_EPS
    cs = (rows @ u) / den
    grads = (rows - np.outer(cs * nv / max(nu, 1e-300), u)) / den[:, None]
    return cs, grads


def reference_query_loss_terms(u_p, u_m, class_rows):
    """Per-example query loss as it was before the batched path."""
    cs, grads = reference_cosines_and_grads(u_p, class_rows)
    j_p = float(np.sum(1.0 - cs))
    g_up = -grads.sum(axis=0)
    cs_n, grads_n = reference_cosines_and_grads(u_m, class_rows.sum(axis=0)[None, :])
    return j_p, float(cs_n[0]), g_up, grads_n[0]


class TestBatchedQueryLoss:
    def test_matches_per_example_reference(self):
        sp = lb.make_label_space(30, 48, seed=22)
        rng = np.random.default_rng(23)
        label_sets = [[4], [0, 7, 29], [], [3, 11], [5, 6, 8, 9]]
        u_p = rng.standard_normal((5, 48))
        u_m = rng.standard_normal((5, 48))
        owner = np.repeat(np.arange(5), [len(ls) for ls in label_sets])
        rows = sp.class_vectors(np.concatenate([ls for ls in label_sets if ls]))
        j_p, j_n, g_up, g_um = lb.query_loss_terms(u_p, u_m, rows, owner)
        for b, present in enumerate(label_sets):
            class_rows = sp.class_vectors(present) if present else np.zeros((0, 48))
            want = reference_query_loss_terms(u_p[b], u_m[b], class_rows)
            assert j_p[b] == pytest.approx(want[0], rel=1e-12, abs=1e-15)
            assert j_n[b] == pytest.approx(want[1], rel=1e-12, abs=1e-15)
            np.testing.assert_allclose(g_up[b], want[2], rtol=1e-10, atol=1e-14)
            np.testing.assert_allclose(g_um[b], want[3], rtol=1e-10, atol=1e-14)
        assert j_p[2] == j_n[2] == 0.0
        assert not g_up[2].any() and not g_um[2].any()


class TestDecode:
    def test_single_label_roundtrip_rate(self):
        hits = 0
        for seed in range(100):
            sp = lb.make_label_space(100, 256, seed=6000 + seed)
            s = lb.encode_labels(sp, [7])
            hits += lb.decode_topk(sp, s, 1) == [7]
        assert hits >= 99

    def test_pair_roundtrip_rate(self):
        hits = 0
        for seed in range(100):
            sp = lb.make_label_space(50, 512, seed=7000 + seed)
            s = lb.encode_labels(sp, [3, 9])
            hits += sorted(lb.decode_topk(sp, s, 2)) == [3, 9]
        assert hits >= 95

    def test_full_k_returns_permutation(self):
        sp = lb.make_label_space(40, 64, seed=18)
        order = lb.decode_topk(sp, core.sample_standard(64, 5), 40)
        assert sorted(order) == list(range(40))

    def test_rankings_invariant_under_positive_rescaling(self):
        sp = lb.make_label_space(30, 64, seed=19)
        s_hat = core.sample_standard(64, 6)
        base = lb.decode_topk(sp, s_hat, 30)
        for lam in (0.25, 3.0, 1e4):
            assert lb.decode_topk(sp, lam * s_hat, 30) == base

    @pytest.mark.parametrize("shape", [(33,), (1, 32)])
    def test_prediction_of_the_wrong_shape_raises(self, shape):
        sp = lb.make_label_space(5, 32, seed=20)
        with pytest.raises(ValueError) as info:
            lb.decode_topk(sp, np.ones(shape), 1)
        assert str(info.value) == "prediction must have shape (32,)"

    def test_k_bounds(self):
        sp = lb.make_label_space(5, 32, seed=20)
        with pytest.raises(ValueError):
            lb.decode_topk(sp, np.ones(32), 0)
        with pytest.raises(ValueError):
            lb.decode_topk(sp, np.ones(32), 6)

    def test_threshold_recovers_single_label(self):
        hits = 0
        for seed in range(100):
            sp = lb.make_label_space(20, 256, seed=8000 + seed)
            s = lb.encode_labels(sp, [2])
            hits += lb.decode_threshold(sp, s, 0.5) == [2]
        assert hits >= 95

    def test_threshold_extremes(self):
        sp = lb.make_label_space(10, 64, seed=21)
        s_hat = core.sample_standard(64, 7)
        assert lb.decode_threshold(sp, s_hat, np.inf) == []
        assert lb.decode_threshold(sp, s_hat, -np.inf) == list(range(10))


def column_blocks(scores, widths):
    """Split a score matrix into (start, block) pairs of the given widths."""
    start = 0
    for width in widths:
        yield start, scores[:, start : start + width]
        start += width


def stable_topk(scores, k):
    """The full stable argsort of descending scores that labels.topk streams."""
    return np.argsort(-scores, axis=1, kind="stable")[:, :k]


def class_scores(space, s_hat):
    """Every class's score for one prediction, joined from score_blocks."""
    return np.concatenate([row for _, (row,) in lb.score_blocks(space, s_hat[None])])


class TestTopk:
    @pytest.mark.parametrize("tied", [False, True])
    @pytest.mark.parametrize("k", [1, 5, 17, 101, 401])
    @pytest.mark.parametrize("n", [1, 7, 300, 1100])
    def test_matches_full_stable_argsort(self, tied, k, n):
        # small n merges a block in one step; n=300 and n=1100 split each
        # 100-column block into several steps of fewer columns than k=101
        rng = np.random.default_rng(k + 1000 * tied + 7 * n)
        for trial in range(3):
            n_cols = 350
            if tied:  # few distinct integer values: many exact ties
                scores = rng.integers(-3, 4, size=(n, n_cols)).astype(np.float64)
            else:
                scores = rng.standard_normal((n, n_cols))
            # blocks of 100 columns with an uneven last block of 50
            got = lb.topk(column_blocks(scores, [100, 100, 100, 50]), k)
            np.testing.assert_array_equal(got, stable_topk(scores, k))
            assert got.shape == (n, min(k, n_cols))

    @staticmethod
    def special_rows(n_cols=350):
        """Rows with NaN, infinities, signed zeros and monotone runs."""
        rng = np.random.default_rng(11)
        normal = rng.standard_normal(n_cols)
        return np.stack([
            np.full(n_cols, np.nan),  # all NaN
            np.r_[np.full(150, np.nan), normal[150:]],  # starts with NaN
            np.r_[np.full(200, np.nan), np.full(n_cols - 200, -np.inf)],  # NaN, then -inf
            np.r_[1.0, np.full(120, np.nan), 2.0, np.full(n_cols - 122, np.nan)],  # two finite
            np.r_[normal[:3], np.full(n_cols - 3, -np.inf)],  # -inf tail
            np.full(n_cols, -np.inf),
            np.where(rng.random(n_cols) < 0.4, np.nan, normal),  # scattered NaN
            np.where(rng.random(n_cols) < 0.1, np.inf, np.where(normal < -1, np.nan, normal)),
            np.arange(n_cols, dtype=np.float64),  # strictly increasing: every column enters
            -np.arange(n_cols, dtype=np.float64),
            rng.choice([0.0, -0.0, 1.0], n_cols),  # signed zeros tie
        ])

    @pytest.mark.parametrize("k", [1, 5, 17, 101, 401])
    @pytest.mark.parametrize(
        "widths", [[100, 100, 100, 50], [1, 2, 64, 33, 7, 96, 147]], ids=["even", "uneven"]
    )
    def test_nan_infinities_and_increasing_rows_match_full_argsort(self, k, widths):
        rows = self.special_rows()
        # the rows together, each as a single row (the decode_topk shape), and
        # tiled to 1100 rows, where each block takes several steps
        for scores in [rows, *rows[:, None], np.tile(rows, (100, 1))]:
            got = lb.topk(column_blocks(scores, widths), k)
            np.testing.assert_array_equal(got, stable_topk(scores, k))

    def test_increasing_rows_over_many_blocks(self):
        scores = np.tile(np.arange(5000, dtype=np.float64), (3, 1))
        scores[1] = np.sqrt(scores[1])
        for k in (1, 5, 513):
            got = lb.topk(column_blocks(scores, [512] * 9 + [392]), k)
            np.testing.assert_array_equal(got, stable_topk(scores, k))

    @pytest.mark.parametrize("tied", [True, False])
    def test_columns_that_cannot_enter_are_never_merged(self, tied, monkeypatch):
        # a tie with the k-th best, or anything below it, leaves a full row
        # as it is: only the first step, which fills the rows, sorts
        n, n_cols, k = 40, 3000, 5
        row = np.zeros(n_cols) if tied else -np.arange(n_cols, dtype=np.float64)
        scores = np.tile(row, (n, 1))
        want = stable_topk(scores, k)
        sorted_rows = []
        argsort = np.argsort
        monkeypatch.setattr(
            np, "argsort", lambda a, **kw: sorted_rows.append(len(a)) or argsort(a, **kw)
        )
        got = lb.topk(column_blocks(scores, [512] * 5 + [440]), k)
        monkeypatch.undo()
        np.testing.assert_array_equal(got, want)
        assert sorted_rows == [n]

    @pytest.mark.parametrize("tied", [True, False])
    def test_each_block_is_released_before_the_next_is_made(self, tied):
        # a step that merges nothing must not keep a view of its block alive
        rng = np.random.default_rng(12)
        scores = np.zeros((300, 2000)) if tied else rng.standard_normal((300, 2000))
        alive = []

        def fresh_blocks():
            for start in range(0, 2000, 500):
                block = scores[:, start : start + 500].copy()
                ref = weakref.ref(block)
                yield start, block
                del block
                alive.append(ref() is not None)

        np.testing.assert_array_equal(lb.topk(fresh_blocks(), 5), stable_topk(scores, 5))
        assert alive == [False] * 4

    def test_empty_blocks_are_skipped(self):
        scores = np.random.default_rng(13).standard_normal((6, 45))
        for k in (1, 5, 50):
            got = lb.topk(column_blocks(scores, [0, 5, 0, 40, 0]), k)
            np.testing.assert_array_equal(got, stable_topk(scores, k))

    def test_uneven_and_narrow_blocks(self):
        rng = np.random.default_rng(3)
        scores = rng.integers(0, 2, size=(17, 203)).astype(np.float64)
        widths = [1, 2, 64, 33, 7, 96]
        for k in (1, 3, 40, 203, 500):
            got = lb.topk(column_blocks(scores, widths), k)
            np.testing.assert_array_equal(got, stable_topk(scores, k))

    def test_ties_break_toward_lower_index(self):
        scores = np.zeros((2, 90))
        scores[1, [80, 5, 40]] = 1.0
        got = lb.topk(column_blocks(scores, [30, 30, 30]), 4)
        assert got.tolist() == [[0, 1, 2, 3], [5, 40, 80, 0]]

    def test_zero_rows(self):
        got = lb.topk(column_blocks(np.zeros((0, 70)), [50, 20]), 5)
        assert got.shape == (0, 5)

    def test_k_below_one_raises(self):
        with pytest.raises(ValueError, match="k must be >= 1"):
            lb.topk([(0, np.zeros((2, 3)))], 0)

    def test_class_scores_span_blocks(self):
        sp = lb.make_label_space(1100, 16, seed=23)
        s_hat = core.sample_standard(16, 8)
        query = core.unbind(s_hat, sp.p)
        want = sp.class_vectors(np.arange(1100)) @ query
        np.testing.assert_allclose(class_scores(sp, s_hat), want, rtol=1e-12, atol=1e-14)
        tau = np.sort(want)[[999, 1000]].mean()  # the 100 best classes, across blocks
        assert lb.decode_threshold(sp, s_hat, tau) == np.flatnonzero(want > tau).tolist()

    def test_score_blocks_of_a_batch_match_class_scores_row_by_row(self):
        sp = lb.make_label_space(1100, 16, seed=25)
        s_hat = np.stack([core.sample_standard(16, seed) for seed in range(3)])
        blocks = list(lb.score_blocks(sp, s_hat))
        assert [start for start, _ in blocks] == [0, 512, 1024]
        scores = np.concatenate([block for _, block in blocks], axis=1)
        want = np.stack([class_scores(sp, row) for row in s_hat])
        np.testing.assert_allclose(scores, want, rtol=1e-12, atol=1e-14)

    def test_decode_topk_matches_full_argsort_of_class_scores(self):
        sp = lb.make_label_space(1100, 16, seed=24)
        s_hat = core.sample_standard(16, 9)
        scores = class_scores(sp, s_hat)
        for k in (1, 5, 600, 1100):
            got = lb.decode_topk(sp, s_hat, k)
            assert got == np.argsort(-scores, kind="stable")[:k].tolist()
            assert all(type(i) is int for i in got)
