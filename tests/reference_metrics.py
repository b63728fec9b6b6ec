"""Ranking metrics of hrrkit before they were batched, kept verbatim.

tests/test_metrics.py checks the batched hrrkit.metrics against these
per-example loops: the same values within 1e-12 and the same exceptions.
"""

from __future__ import annotations

import math

import numpy as np


def _top(ranked, k):
    ranked = list(ranked)
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if k > len(ranked):
        raise ValueError(f"k={k} exceeds ranking length {len(ranked)}")
    if len(set(ranked)) != len(ranked):
        raise ValueError("ranked labels must be unique")
    return ranked[:k]


def _propensity(propensities, label):
    p = float(propensities[label])
    if not 0.0 < p <= 1.0:
        raise ValueError(f"propensity for label {label} must be in (0, 1], got {p}")
    return p


def precision_at_k(ranked, truth, k):
    """Fraction of the top-k predictions that are true labels."""
    truth = set(truth)
    return sum(1.0 for l in _top(ranked, k) if l in truth) / k


def psp_at_k(ranked, truth, propensities, k):
    """Propensity-scored precision; each hit counts 1 / p_l."""
    truth = set(truth)
    total = 0.0
    for l in _top(ranked, k):
        if l in truth:
            total += 1.0 / _propensity(propensities, l)
    return total / k


def ndcg_at_k(ranked, truth, k):
    """Discounted gain of the top-k, normalized by the ideal ranking.

    Rank position l (1-based) is discounted by 1/log2(l + 1); the ideal
    places min(k, |truth|) hits first. Empty truth scores zero.
    """
    truth = set(truth)
    top = _top(ranked, k)
    if not truth:
        return 0.0
    dcg = sum(
        1.0 / math.log2(pos + 1.0)
        for pos, l in enumerate(top, start=1)
        if l in truth
    )
    ideal = sum(1.0 / math.log2(pos + 1.0) for pos in range(1, min(k, len(truth)) + 1))
    return dcg / ideal


def psndcg_at_k(ranked, truth, propensities, k):
    """Propensity-scored discounted gain over a fixed k-term normalizer."""
    truth = set(truth)
    top = _top(ranked, k)
    psdcg = sum(
        1.0 / (_propensity(propensities, l) * math.log2(pos + 1.0))
        for pos, l in enumerate(top, start=1)
        if l in truth
    )
    norm = sum(1.0 / math.log2(pos + 1.0) for pos in range(1, k + 1))
    return psdcg / norm


def metric_report(rankings, truths, propensities=None, ks=(1, 3, 5)):
    """Dataset-level means of the four metrics at each k.

    Examples with empty truth sets are excluded from the averages. Returns
    a dict keyed like "P@1", "PSP@3", "nDCG@5", "PSnDCG@5"; propensity
    metrics are included only when propensities are given.
    """
    pairs = [(r, t) for r, t in zip(rankings, truths) if len(t)]
    report = {"evaluated_examples": len(pairs)}
    for k in ks:
        usable = [(r, t) for r, t in pairs if len(r) >= k]
        if not usable:
            continue
        report[f"P@{k}"] = float(np.mean([precision_at_k(r, t, k) for r, t in usable]))
        report[f"nDCG@{k}"] = float(np.mean([ndcg_at_k(r, t, k) for r, t in usable]))
        if propensities is not None:
            report[f"PSP@{k}"] = float(
                np.mean([psp_at_k(r, t, propensities, k) for r, t in usable])
            )
            report[f"PSnDCG@{k}"] = float(
                np.mean([psndcg_at_k(r, t, propensities, k) for r, t in usable])
            )
    return report
