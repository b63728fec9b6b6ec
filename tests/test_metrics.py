"""Tests for the ranking metric family."""

import math

import numpy as np
import pytest

import reference_metrics as ref
from hrrkit import data as dataio
from hrrkit import metrics as mx


def brute_precision(ranked, truth, k):
    return len(set(ranked[:k]) & set(truth)) / k


def brute_psp(ranked, truth, props, k):
    return sum(1.0 / props[l] for l in ranked[:k] if l in set(truth)) / k


def brute_ndcg(ranked, truth, k):
    truth = set(truth)
    if not truth:
        return 0.0
    dcg = sum(1.0 / math.log2(i + 2) for i, l in enumerate(ranked[:k]) if l in truth)
    ideal = sum(1.0 / math.log2(i + 2) for i in range(min(k, len(truth))))
    return dcg / ideal


def brute_psndcg(ranked, truth, props, k):
    truth = set(truth)
    num = sum(
        1.0 / (props[l] * math.log2(i + 2))
        for i, l in enumerate(ranked[:k])
        if l in truth
    )
    den = sum(1.0 / math.log2(i + 2) for i in range(k))
    return num / den


def random_case(rng, n_labels=20):
    ranked = rng.permutation(n_labels).tolist()
    truth = rng.choice(n_labels, size=rng.integers(1, 6), replace=False).tolist()
    props = rng.uniform(0.05, 1.0, size=n_labels)
    return ranked, truth, props


class TestExamples:
    def test_precision_top1_hit(self):
        assert mx.precision_at_k([3, 1, 2], {3}, 1) == 1.0

    def test_precision_two_of_five(self):
        assert mx.precision_at_k([0, 1, 2, 3, 4], {1, 3, 9}, 5) == pytest.approx(0.4)

    def test_psp_reduces_to_precision_at_unit_propensity(self):
        props = np.ones(10)
        assert mx.psp_at_k([4, 2, 0], {2, 4}, props, 3) == mx.precision_at_k(
            [4, 2, 0], {2, 4}, 3
        )

    def test_psp_rare_hit_scales_inverse(self):
        props = np.full(10, 0.25)
        assert mx.psp_at_k([7], {7}, props, 1) == pytest.approx(4.0)

    def test_psp_zero_when_all_missed(self):
        assert mx.psp_at_k([0, 1], {5}, np.ones(10), 2) == 0.0

    def test_ndcg_top_hit_is_one(self):
        assert mx.ndcg_at_k([2, 0], {2}, 1) == 1.0

    def test_ndcg_second_place_single_truth(self):
        got = mx.ndcg_at_k([0, 2], {2}, 2)
        assert got == pytest.approx(math.log(2) / math.log(3), abs=1e-12)

    def test_ndcg_no_hits_zero(self):
        assert mx.ndcg_at_k([0, 1, 2], {9}, 3) == 0.0

    def test_ndcg_empty_truth_zero(self):
        assert mx.ndcg_at_k([0, 1], set(), 2) == 0.0

    def test_psndcg_unit_propensity_top_hit(self):
        assert mx.psndcg_at_k([5], {5}, np.ones(10), 1) == pytest.approx(1.0)

    def test_k_beyond_ranking_raises(self):
        with pytest.raises(ValueError, match="exceeds"):
            mx.precision_at_k([0, 1], {0}, 3)

    def test_bad_propensity_raises(self):
        with pytest.raises(ValueError, match="propensity"):
            mx.psp_at_k([0], {0}, np.zeros(4), 1)

    def test_duplicate_ranking_raises(self):
        with pytest.raises(ValueError, match="unique"):
            mx.precision_at_k([1, 1], {1}, 2)


class TestAgainstBruteForce:
    def test_all_metrics_match_oracles(self):
        rng = np.random.default_rng(0)
        for _ in range(300):
            ranked, truth, props = random_case(rng)
            for k in (1, 3, 5):
                assert mx.precision_at_k(ranked, truth, k) == pytest.approx(
                    brute_precision(ranked, truth, k), abs=1e-12
                )
                assert mx.psp_at_k(ranked, truth, props, k) == pytest.approx(
                    brute_psp(ranked, truth, props, k), abs=1e-12
                )
                assert mx.ndcg_at_k(ranked, truth, k) == pytest.approx(
                    brute_ndcg(ranked, truth, k), abs=1e-12
                )
                assert mx.psndcg_at_k(ranked, truth, props, k) == pytest.approx(
                    brute_psndcg(ranked, truth, props, k), abs=1e-12
                )

    def test_rank_one_identities_exact(self):
        rng = np.random.default_rng(1)
        for _ in range(1000):
            ranked, truth, props = random_case(rng)
            assert mx.precision_at_k(ranked, truth, 1) == mx.ndcg_at_k(ranked, truth, 1)
            assert mx.psp_at_k(ranked, truth, props, 1) == mx.psndcg_at_k(
                ranked, truth, props, 1
            )


class TestReport:
    def test_excludes_empty_truths(self):
        report = mx.metric_report([[0, 1], [1, 0]], [[0], []], ks=(1,))
        assert report["evaluated_examples"] == 1
        assert report["P@1"] == 1.0

    def test_includes_propensity_metrics_when_given(self):
        report = mx.metric_report([[0]], [[0]], np.array([0.5]), ks=(1,))
        assert report["PSP@1"] == pytest.approx(2.0)
        assert report["PSnDCG@1"] == pytest.approx(2.0)

    def test_mean_over_examples(self):
        report = mx.metric_report([[0], [1]], [[0], [0]], ks=(1,))
        assert report["P@1"] == pytest.approx(0.5)

    @pytest.mark.parametrize(
        "rankings, truths, message",
        [
            ([[1], [2]], [[1]], "2 rankings, 1 truth sets"),
            ([[1]], [[1], [2]], "1 rankings, 2 truth sets"),
            ([[1], [2], [3]], dataio.SparseDataset(3, 5, [0, 0, 0], [], [], [0, 1, 2], [1, 2]),
             "3 rankings, 2 truth sets"),
        ],
    )
    def test_unequal_counts_raise(self, rankings, truths, message):
        with pytest.raises(ValueError, match=message):
            mx.metric_report(rankings, truths, ks=(1,))


def outcome(fn, *args, **kwargs):
    """("value", result) or the raised exception's (type, message)."""
    try:
        return "value", fn(*args, **kwargs)
    except Exception as exc:  # noqa: BLE001 - the comparison is the point
        return type(exc), str(exc)


def assert_same_outcome(got, want):
    assert got[0] == want[0], (got, want)
    if got[0] != "value":
        assert got == want
    elif isinstance(want[1], dict):
        assert list(got[1]) == list(want[1])
        for key, value in want[1].items():
            assert abs(got[1][key] - value) <= 1e-12 * max(1.0, abs(value)), key
    else:
        assert abs(got[1] - want[1]) <= 1e-12 * max(1.0, abs(want[1]))


def ragged_case(rng):
    """Rankings of any length (some empty), truths of 0-5 labels, 1-3 ks in any order."""
    n_labels, n = int(rng.integers(1, 30)), int(rng.integers(0, 12))
    rankings = [rng.permutation(n_labels)[: rng.integers(0, n_labels + 1)].tolist() for _ in range(n)]
    truths = [
        rng.choice(n_labels, size=rng.integers(0, min(n_labels, 5) + 1), replace=False).tolist()
        for _ in range(n)
    ]
    props = rng.uniform(0.05, 1.0, n_labels) if rng.random() < 0.6 else None
    ks = [int(k) for k in rng.choice(np.arange(1, 8), size=rng.integers(1, 4), replace=False)]
    return rankings, truths, props, ks


def assert_matches_reference(rankings, truths, props, ks):
    assert_same_outcome(
        outcome(mx.metric_report, rankings, truths, props, ks=ks),
        outcome(ref.metric_report, rankings, truths, props, ks=ks),
    )
    for ranked, truth in zip(rankings[:2], truths[:2]):  # each a batch of one
        for k in [*ks, len(ranked) + 1]:
            for name in ("precision_at_k", "ndcg_at_k"):
                assert_same_outcome(
                    outcome(getattr(mx, name), ranked, truth, k),
                    outcome(getattr(ref, name), ranked, truth, k),
                )
            for name in ("psp_at_k", "psndcg_at_k"):
                if props is not None:
                    assert_same_outcome(
                        outcome(getattr(mx, name), ranked, truth, props, k),
                        outcome(getattr(ref, name), ranked, truth, props, k),
                    )


class TestAgainstReference:
    """The batched path against a verbatim copy of the per-example loops."""

    def test_random_ragged_corpus(self):
        rng = np.random.default_rng(2016)
        for _ in range(400):
            assert_matches_reference(*ragged_case(rng))

    def test_random_corpus_with_faults(self):
        # duplicates, propensities outside (0, 1] and k < 1 planted at random,
        # so the first error raised must be the reference's first error too
        rng = np.random.default_rng(2017)
        for _ in range(400):
            rankings, truths, props, ks = ragged_case(rng)
            if rankings and rng.random() < 0.3:
                row = rankings[rng.integers(len(rankings))]
                row += row[:1]
            if props is not None and rng.random() < 0.3:
                props[rng.integers(props.size)] = rng.choice([0.0, -0.5, 1.5, np.nan])
            if rng.random() < 0.1:
                ks.insert(int(rng.integers(len(ks) + 1)), int(rng.integers(-1, 1)))
            assert_matches_reference(rankings, truths, props, ks)

    def test_unsorted_ks_and_short_rankings(self):
        rankings = [[0, 1, 2, 3, 4], [4, 3], [], [2, 0, 1], [1]]
        truths = [[1, 3], [3, 4], [0], [], [1, 2]]
        props = np.array([0.5, 0.25, 1.0, 0.125, 0.75])
        assert_matches_reference(rankings, truths, props, [5, 1, 3])
        report = mx.metric_report(rankings, truths, props, ks=(5, 1, 3))
        assert report["evaluated_examples"] == 4
        assert list(report)[1:5] == ["P@5", "nDCG@5", "PSP@5", "PSnDCG@5"]

    @pytest.mark.parametrize(
        "rankings, truths, props, ks, message",
        [
            ([[1, 2, 1]], [[1]], None, (1,), "ranked labels must be unique"),
            ([[0, 1], [1, 0]], [[0], [1]], None, (2, 0), "k must be >= 1, got 0"),
            ([[0, 1]], [[0]], None, (-1,), "k must be >= 1, got -1"),
            ([[2, 0]], [[0]], [0.0, 0.5, 0.5], (2,), "propensity for label 0 must be in (0, 1], got 0.0"),
            ([[2, 0]], [[2]], [0.5, 0.5, 0.0], (2,), "propensity for label 2 must be in (0, 1], got 0.0"),
            ([[1]], [[1]], [0.5, 1.5], (1,), "propensity for label 1 must be in (0, 1], got 1.5"),
            ([[1]], [[1]], [0.5, np.nan], (1,), "propensity for label 1 must be in (0, 1], got nan"),
        ],
    )
    def test_report_errors_match(self, rankings, truths, props, ks, message):
        got = outcome(mx.metric_report, rankings, truths, props, ks=ks)
        assert got == (ValueError, message)
        assert got == outcome(ref.metric_report, rankings, truths, props, ks=ks)

    @pytest.mark.parametrize(
        "ranked, truth, k, message",
        [
            ([1, 1], [1], 2, "ranked labels must be unique"),
            ([3, 1, 3], [], 1, "ranked labels must be unique"),
            ([0, 1], [0], 0, "k must be >= 1, got 0"),
            ([0, 1], [0], 3, "k=3 exceeds ranking length 2"),
            ([], [], 1, "k=1 exceeds ranking length 0"),
        ],
    )
    def test_per_example_errors_match(self, ranked, truth, k, message):
        props = np.full(4, 0.5)
        for name in ("precision_at_k", "ndcg_at_k", "psp_at_k", "psndcg_at_k"):
            args = (ranked, truth, props, k) if name.startswith("ps") else (ranked, truth, k)
            got = outcome(getattr(mx, name), *args)
            assert got == (ValueError, message)
            assert got == outcome(getattr(ref, name), *args)

    def test_propensities_are_read_only_at_hits(self):
        # a miss, a row shorter than every k and an unlabelled row never read theirs
        props = np.array([0.5, 0.0, np.nan, 2.0])
        report = mx.metric_report([[0, 1], [2], [3, 0]], [[0], [2], []], props, ks=(2,))
        assert report == ref.metric_report([[0, 1], [2], [3, 0]], [[0], [2], []], props, ks=(2,))
        assert report["PSP@2"] == 1.0

    def test_memory_follows_the_largest_k_not_the_longest_ranking(self):
        rankings = [list(range(50_000))] + [[0]] * 99
        report = mx.metric_report(rankings, [[49_999]] * 100, ks=(1,))
        assert report == ref.metric_report(rankings, [[49_999]] * 100, ks=(1,))


class TestStoreTruths:
    """A SparseDataset's label rows, read as stored, against the same rows as lists."""

    @staticmethod
    def store_case(rng, n, n_labels):
        # 0-6 labels a row (about one row in four empty, the last row always),
        # rankings of 0-8 distinct labels
        sizes = np.where(rng.random(n) < 0.25, 0, rng.integers(1, 7, n))
        sizes[-1] = 0
        labels = [np.sort(rng.choice(n_labels, size=s, replace=False)) for s in sizes]
        ds = dataio.SparseDataset(
            3, n_labels, np.zeros(n + 1, np.int64), [], [],
            np.cumsum(np.append(0, sizes)), np.concatenate(labels),
        )
        rankings = [rng.permutation(n_labels)[: rng.integers(0, 9)].tolist() for _ in range(n)]
        return ds, rankings, [row.tolist() for row in labels]

    @pytest.mark.parametrize("seed", range(20))
    def test_store_report_is_the_ragged_report_bit_for_bit(self, seed):
        rng = np.random.default_rng(seed)
        ds, rankings, ragged = self.store_case(rng, int(rng.integers(1, 60)), 40)
        props = rng.uniform(0.05, 1.0, 40) if seed % 2 else None
        ks = (1, 3, 5, 8)
        got = mx.metric_report(rankings, ds, props, ks=ks)
        want = mx.metric_report(rankings, ragged, props, ks=ks)
        assert list(got) == list(want)
        assert [float(v).hex() for v in got.values()] == [float(v).hex() for v in want.values()]
        assert_same_outcome(("value", got), outcome(ref.metric_report, rankings, ragged, props, ks=ks))
        assert got["evaluated_examples"] == int(np.count_nonzero(np.diff(ds.label_indptr)))

    def test_store_of_only_empty_label_sets(self):
        ds = dataio.SparseDataset(3, 5, [0, 0, 0], [], [], [0, 0, 0], [])
        got = mx.metric_report([[0, 1], [2]], ds, ks=(1,))
        assert got == mx.metric_report([[0, 1], [2]], [[], []], ks=(1,))
        assert got == ref.metric_report([[0, 1], [2]], [[], []], ks=(1,))
        assert got == {"evaluated_examples": 0}
