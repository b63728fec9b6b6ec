"""Ranking metrics for multi-label prediction.

All metrics consume a ranked list of predicted label indices (best first)
and a ground-truth label set; they are therefore invariant under monotone
transforms of the underlying scores. The discounted family uses base-2
logarithms. Propensity-scored variants divide each hit by the label's
propensity, rewarding correct predictions of rare labels.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

__all__ = ["metric_report", "ndcg_at_k", "precision_at_k", "psndcg_at_k", "psp_at_k"]


def _csr(rows):
    # (row lengths, flat values): a SparseDataset's label rows as stored, ragged rows flattened
    if hasattr(rows, "label_indptr") and hasattr(rows, "labels"):
        return np.diff(rows.label_indptr), rows.labels
    rows = list(rows)
    lengths = np.fromiter(map(len, rows), np.int64, len(rows))
    return lengths, np.fromiter(itertools.chain.from_iterable(rows), np.int64)


def _evaluate(rankings, truths, propensities, ks, strict):
    """The one metrics path: (labelled row count, {"P@k": counted rows' values}).

    Row i counts at k if its truth is non-empty and its ranking holds k labels,
    or always if strict. One (n x k) hit matrix and cumulative gains along it
    give every k; each k checks its rows before it takes their values.
    """
    (lengths, ranked), (truth_sizes, truth) = _csr(rankings), _csr(truths)
    n, kv = len(lengths), np.asarray(ks, dtype=np.int64)
    if len(truth_sizes) != n:
        raise ValueError(f"{n} rankings, {len(truth_sizes)} truth sets")
    both = np.concatenate([ranked, truth, [0]])
    lo, span = both.min(), both.max() - both.min() + 1
    # row * span + (label - lo) keys a label to its row; sorted keys run by (row, label)
    keys = np.repeat(np.arange(n), lengths) * span + (ranked - lo)
    truth = np.sort(np.repeat(np.arange(n), truth_sizes) * span + (truth - lo))
    truth = truth[np.diff(truth, prepend=-1) != 0]  # a truth is a set
    sizes = np.bincount(truth // span, minlength=n)  # distinct true labels a row
    ordered = np.sort(keys)
    dup = np.bincount(ordered[1:][np.diff(ordered) == 0] // span, minlength=n) > 0
    counted = (sizes[:, None] > 0) & (lengths[:, None] >= kv) | strict
    reach = np.where(counted, kv, 0).max(axis=1, initial=0)  # the largest k a row counts at
    pos = np.arange(max(1, min(kv.max(initial=1), lengths.max(initial=0))))
    at = np.where(pos < lengths[:, None], np.cumsum(lengths)[:, None] - lengths[:, None] + pos, -1)
    top = np.append(keys, -1)[at]  # the keys of each row's top labels, -1 past its end
    hits = (np.append(truth, -2)[np.searchsorted(truth, top)] == top) & (pos < reach[:, None])
    p = np.ones(hits.shape)
    if propensities is not None:
        p[hits] = np.asarray(propensities, dtype=np.float64)[top[hits] % span + lo]
    bad = hits & ~((p > 0.0) & (p <= 1.0))
    safe = np.where(bad, 1.0, p)  # a bad hit raises before its gain is read
    log2 = np.array([math.log2(q + 1.0) for q in pos + 1])
    norm = np.cumsum(1.0 / log2)  # the ideal discounted gain of k hits
    gains = {"P": hits, "nDCG": hits / log2, "PSP": hits / safe, "PSnDCG": hits / (safe * log2)}
    sums = {m: np.cumsum(gains[m], axis=1) for m in list(gains)[: 2 if propensities is None else 4]}
    values = {}
    for k, rows in zip(ks, counted.T):
        if not rows.any():
            continue
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        if np.any(rows & (lengths < k)):
            raise ValueError(f"k={k} exceeds ranking length {lengths[rows & (lengths < k)][0]}")
        if np.any(rows & dup):
            raise ValueError("ranked labels must be unique")
        for i, q in np.argwhere(bad[:, :k] & rows[:, None])[:1]:  # the first bad hit, if any
            label = top[i, q] % span + lo
            raise ValueError(f"propensity for label {label} must be in (0, 1], got {p[i, q]}")
        over = {"P": k, "nDCG": norm[np.clip(sizes, 1, k) - 1], "PSP": k, "PSnDCG": norm[k - 1]}
        values.update({f"{m}@{k}": (cum[:, k - 1] / over[m])[rows] for m, cum in sums.items()})
    return int(np.count_nonzero(sizes)), values


def _one(metric, ranked, truth, k, propensities=None):
    _, values = _evaluate([list(ranked)], [list(truth)], propensities, [k], strict=True)
    return float(values[f"{metric}@{k}"][0])


def precision_at_k(ranked, truth, k):
    """Fraction of the top-k predictions that are true labels."""
    return _one("P", ranked, truth, k)


def psp_at_k(ranked, truth, propensities, k):
    """Propensity-scored precision; each hit counts 1 / p_l."""
    return _one("PSP", ranked, truth, k, propensities)


def ndcg_at_k(ranked, truth, k):
    """Discounted gain of the top-k, normalized by the ideal ranking.

    Rank position l (1-based) is discounted by 1/log2(l + 1); the ideal
    places min(k, |truth|) hits first. Empty truth scores zero.
    """
    return _one("nDCG", ranked, truth, k)


def psndcg_at_k(ranked, truth, propensities, k):
    """Propensity-scored discounted gain over a fixed k-term normalizer."""
    return _one("PSnDCG", ranked, truth, k, propensities)


def metric_report(rankings, truths, propensities=None, ks=(1, 3, 5)):
    """Dataset-level means of the four metrics at each k.

    truths may be a SparseDataset, whose label rows are read as stored.
    Examples with empty truth sets are left out of the averages, and at each
    k so are rankings shorter than k. Keys are like "P@1", "PSP@3", "nDCG@5"
    and "PSnDCG@5"; propensity metrics only when propensities are given.
    """
    labelled, values = _evaluate(rankings, truths, propensities, list(ks), strict=False)
    return {"evaluated_examples": labelled, **{key: float(np.mean(v)) for key, v in values.items()}}
