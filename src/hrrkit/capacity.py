"""Monte-Carlo benchmarks for binding capacity and query-response stability.

The workload is the key-value statement

    S = sum_{i=1..n} bind(x_i, y_i)

Retrieval protocol: unbind each key y_i, compare the estimate against the
true x_i and a pool of n fresh distractors by cosine similarity; the item
is an error when any distractor scores strictly higher. The pair count n
is swept over rounded powers of sqrt(2) and the reported capacity is the
grid point at which the pooled error fraction first exceeds the threshold
t (the breaking point). When even the smallest tested n exceeds t the
capacity is that smallest n, which keeps hopeless configurations plottable
on a log axis instead of reporting zero.

For the two HRR kinds a trial never leaves the frequency domain: symbols
are drawn as half spectra, the statement is the sum of their products,
unbinding multiplies by the conjugate (projected) or divides by the key
spectrum (naive; with no floor, so a near-zero key bin is measured as the
noise it makes instead of aborting the sweep), and cosines are dot
products of Parseval rows (core.parseval_rows). `predicted_error` is the
crosstalk model that the projected kind's Monte-Carlo estimates are
checked against.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import time

import numpy as np

from . import core
from .seeds import mix64, run_ahead
from .vsa import VsaKind, vsa_bind, vsa_sample, vsa_unbind

__all__ = [
    "CapacityTrialConfig",
    "ResponseStats",
    "RetrievalErrorEstimate",
    "build_statement",
    "capacity_sweep",
    "predicted_error",
    "query_response_distribution",
    "retrieval_error_probability",
    "sqrt2_grid",
]

DEFAULT_THRESHOLD = 0.03
DEFAULT_TRIALS = 10
MIN_PAIRS = 8  # first point of the default sqrt(2) grid, round(sqrt(2) ** 6)
# Key and value rows summed into a response statement per step; at d=256
# one block is 4 MB of draws, where the n=65,536 batch would be 134 MB.
_RESPONSE_BLOCK = 2048
_QUADRATURE_POINTS = 80


@dataclasses.dataclass(frozen=True)
class CapacityTrialConfig:
    kind: VsaKind
    d: int
    n: int
    trials: int = DEFAULT_TRIALS
    seed: int = 0

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"pair count must be >= 1, got {self.n}")
        if self.trials < 1:
            raise ValueError(f"trial count must be >= 1, got {self.trials}")


@dataclasses.dataclass(frozen=True)
class RetrievalErrorEstimate:
    kind: VsaKind
    d: int
    n: int
    trials: int
    p_error: float
    std: float
    per_trial_errors: tuple
    seconds: float = dataclasses.field(default=0.0, compare=False)  # wall time, telemetry only

    def __post_init__(self):
        if not 0.0 <= self.p_error <= 1.0:
            raise ValueError(f"p_error out of range: {self.p_error}")


@dataclasses.dataclass(frozen=True)
class ResponseStats:
    n: int
    mean_present: float
    std_present: float
    mean_absent: float
    std_absent: float


def sqrt2_grid(n_max):
    """Pair counts round(sqrt(2)**j) <= n_max for j = 6, 7, ...: 8, 11, 16, 23, ...

    The counts rise strictly from MIN_PAIRS, so none repeats.
    """
    grid, j = [], 6
    while (n := round(2.0 ** (j / 2.0))) <= n_max:
        grid.append(n)
        j += 1
    return grid


def build_statement(kind, pairs):
    """Superpose the bindings of (value, key) pairs into one statement.

    Binding itself is linear for every kind. MAP-C statements are
    saturated elementwise to {-1, 0, +1} after the summation; entries of a
    multi-pair sum leave the unit range almost surely, and the hard
    saturation is what reproduces the published MAP-C capacity knees (a
    soft clip retains noticeably more capacity than reported).
    """
    kind = VsaKind(kind)
    if len(pairs) == 0:
        raise ValueError("at least one pair is required")
    xs = np.stack([np.asarray(x, dtype=np.float64) for x, _ in pairs])
    ys = np.stack([np.asarray(y, dtype=np.float64) for _, y in pairs])
    if xs.shape != ys.shape:
        raise ValueError("pair members must share one dimension")
    return _statement(kind, xs, ys)


def _statement(kind, xs, ys):
    if kind is VsaKind.MAP_C:
        return np.sign((xs * ys).sum(axis=0))
    if kind is VsaKind.VTB:
        return vsa_bind(kind, xs, ys).sum(axis=0)
    return core.bind_sum(xs, ys)


def _unit(rows):
    # in place: every caller owns rows
    rows /= np.linalg.norm(rows, axis=1, keepdims=True) + core.COSINE_EPS
    return rows


def _trial_errors(kind, d, n, base):
    # Items whose best distractor is strictly more similar than the true value.
    # Each array is dropped after its last use and the distractors are drawn
    # last, so a trial holds at most three (n, d)-sized arrays at once.
    if kind in (VsaKind.HRR_NAIVE, VsaKind.HRR_PROJECTED):
        unitary = kind is VsaKind.HRR_PROJECTED
        draw = lambda i: next(core.sample_spectra(d, mix64(base, i), n, unitary))
        rows = lambda spec: core.parseval_rows(spec, d)
        xs, ys = draw(0), draw(1)
        xhat = core.unbind_spectra((xs * ys).sum(axis=0), ys, exact=not unitary)
    else:
        draw = lambda i: vsa_sample(kind, d, mix64(base, i), count=n)
        rows = lambda v: v
        xs, ys = draw(0), draw(1)
        xhat = vsa_unbind(kind, _statement(kind, xs, ys), ys)
    del ys
    # rebind before _unit, so that its temporary never meets the old array
    xhat = rows(xhat)
    xhat = _unit(xhat)
    xs = rows(xs)
    true_sim = np.multiply(xhat, _unit(xs), out=xs).sum(axis=1)
    del xs
    zs = rows(draw(2))
    best_distractor = (xhat @ _unit(zs).T).max(axis=1)
    return int(np.count_nonzero(best_distractor > true_sim))


def retrieval_error_probability(cfg):
    """Estimate the per-item retrieval error rate for one (kind, d, n) cell.

    With two or more usable CPUs the trials run two at a time, the even
    ones on this thread and the odd ones on a worker (seeds.run_ahead). The
    counts are taken in trial order, and the first failing trial's error is
    the one raised, as when they run one after another.
    """
    started = time.perf_counter()
    kind = VsaKind(cfg.kind)
    n, d = cfg.n, cfg.d
    bases = [mix64(cfg.seed, trial) for trial in range(cfg.trials)]
    errors = list(run_ahead(functools.partial(_trial_errors, kind, d, n), bases, alternate=True))
    per_trial = np.asarray(errors, dtype=np.float64) / n
    std = float(per_trial.std(ddof=1)) if cfg.trials > 1 else 0.0
    return RetrievalErrorEstimate(
        kind=kind,
        d=d,
        n=n,
        trials=cfg.trials,
        p_error=float(sum(errors)) / (n * cfg.trials),
        std=std,
        per_trial_errors=tuple(errors),
        seconds=time.perf_counter() - started,
    )


def predicted_error(d, n):
    """Crosstalk-model retrieval error of projected HRR with n pairs in R^d.

    Unbinding a key returns its value plus the crosstalk of the other n - 1
    pairs, so the true value responds 1 + t with t ~ N(0, (n - 1) / d),
    while each of the n distractors responds N(0, n / d), independently
    (Plate 1995; Frady, Kleyko & Sommer 2018). An item is an error when a
    distractor responds more:

        p = 1 - E_t[Phi((1 + t) / sqrt(n / d)) ** n],

    with the expectation taken by 80-point Gauss-Hermite quadrature.
    """
    if d < 1 or n < 1:
        raise ValueError(f"need d >= 1 and n >= 1, got d={d}, n={n}")
    nodes, weights = np.polynomial.hermite.hermgauss(_QUADRATURE_POINTS)
    z = (1.0 + math.sqrt(2.0 * (n - 1) / d) * nodes) / math.sqrt(n / d)
    phi = np.array([0.5 * (1.0 + math.erf(v / math.sqrt(2.0))) for v in z])
    return min(1.0, max(0.0, 1.0 - float(weights @ phi**n) / math.sqrt(math.pi)))


def capacity_sweep(
    kind,
    d,
    threshold=DEFAULT_THRESHOLD,
    seed=0,
    trials=DEFAULT_TRIALS,
    n_max=4096,
):
    """Sweep pair counts and locate the capacity at the error threshold.

    Returns (capacity, saturated, estimates). Capacity is the first grid
    point whose pooled error exceeds the threshold; `saturated` marks the
    case where every tested n up to n_max stayed within the threshold, in
    which case the largest tested n is reported as a lower bound.
    """
    kind = VsaKind(kind)
    if not 0.0 < threshold < 1.0:
        raise ValueError(f"threshold must be in (0, 1), got {threshold}")
    grid = sqrt2_grid(n_max)
    if not grid:
        raise ValueError(
            f"n_max must be >= {MIN_PAIRS}, the first grid point; got {n_max}"
        )
    estimates = []
    for n in grid:
        cfg = CapacityTrialConfig(
            kind=kind, d=d, n=n, trials=trials, seed=mix64(seed, _kind_tag(kind), d, n)
        )
        est = retrieval_error_probability(cfg)
        estimates.append(est)
        if est.p_error > threshold:
            return n, False, estimates
    return grid[-1], True, estimates


def _kind_tag(kind):
    return list(VsaKind).index(kind)


def query_response_distribution(
    d,
    n_values,
    trials=DEFAULT_TRIALS,
    seed=0,
    kind=VsaKind.HRR_PROJECTED,
    max_queries=256,
):
    """Dot-product responses x . (S (x) y^-1) for present and absent pairs.

    Present queries reuse pairs bound into the statement; absent queries use
    fresh pairs. The projected variant unbinds with the index-permutation
    inverse (exact for unitary keys); the naive variant unbinds with the
    exact spectral inverse, whose instability is the point of the
    comparison. Statistics pool individual responses across trials.
    """
    kind = VsaKind(kind)
    if kind not in (VsaKind.HRR_NAIVE, VsaKind.HRR_PROJECTED):
        raise ValueError("response distribution is defined for the HRR variants")
    counts = [("trial count", trials), ("query count", max_queries)]
    for name, value in counts + [("pair count", n) for n in n_values]:
        if value < 1:
            raise ValueError(f"{name} must be >= 1, got {value}")
    out = []
    for n in n_values:
        q = min(int(n), max_queries)
        draws = [_responses(kind, d, int(n), q, mix64(seed, n, trial)) for trial in range(trials)]
        present = np.concatenate([p for p, _ in draws])
        absent = np.concatenate([a for _, a in draws])
        out.append(
            ResponseStats(
                n=int(n),
                mean_present=float(present.mean()),
                std_present=float(present.std()),
                mean_absent=float(absent.mean()),
                std_absent=float(absent.std()),
            )
        )
    return out


def _responses(kind, d, n, q, base):
    # The statement is summed over row blocks of at least q rows, so the q
    # present queries all come from the first block; the draws are the
    # same rows as one batch draw per generator. The value blocks are drawn
    # one block ahead on a worker thread (seeds.run_ahead) while this one
    # draws the key blocks; one generator is only ever advanced by one
    # thread at a time, so its rows are the same.
    unitary = kind is VsaKind.HRR_PROJECTED
    block = max(_RESPONSE_BLOCK, q)
    values, keys = (core.sample_spectra(d, mix64(base, i), n, unitary, block) for i in (0, 1))
    s, queries = 0.0, None
    for xs in run_ahead(next, [values] * len(range(0, n, block))):
        ys = next(keys)
        if queries is None:
            queries = xs[:q].copy(), ys[:q].copy()
        xs *= ys
        s += xs.sum(axis=0)
        del xs, ys  # dropped before the next blocks are taken
    fresh = next(core.sample_spectra(d, mix64(base, 2), 2 * q, unitary))
    present = _dots(queries[0], core.unbind_spectra(s, queries[1], exact=not unitary), d)
    absent = _dots(fresh[:q], core.unbind_spectra(s, fresh[q:], exact=not unitary), d)
    return present, absent


def _dots(xs, ys, d):
    return np.sum(core.parseval_rows(xs, d) * core.parseval_rows(ys, d), axis=1)
