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
class RetrievalErrorEstimate:
    kind: VsaKind
    d: int
    n: int
    trials: int
    p_error: float
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


def build_statement(kind, xs, ys):
    """Superpose the bindings of values xs[i] with keys ys[i] into one statement.

    xs and ys are (n, d) arrays with n >= 1. Binding itself is linear for
    every kind. MAP-C statements are saturated elementwise to {-1, 0, +1}
    after the summation; entries of a multi-pair sum leave the unit range
    almost surely, and the hard saturation is what reproduces the published
    MAP-C capacity knees (a soft clip retains noticeably more capacity than
    reported).
    """
    kind = VsaKind(kind)
    xs, ys = np.asarray(xs, dtype=np.float64), np.asarray(ys, dtype=np.float64)
    if xs.ndim != 2 or xs.shape != ys.shape:
        raise ValueError(f"values and keys must be one (n, d) shape, got {xs.shape}, {ys.shape}")
    if not len(xs):
        raise ValueError("at least one pair is required")
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
        xhat = vsa_unbind(kind, build_statement(kind, xs, ys), ys)
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


def retrieval_error_probability(kind, d, n, trials=DEFAULT_TRIALS, seed=0):
    """Estimate the per-item retrieval error rate for one (kind, d, n) cell.

    Trial t draws its symbols from mix64(seed, t). With two or more usable
    CPUs the trials run two at a time, the even ones on this thread and the
    odd ones on a worker (seeds.run_ahead). The counts are taken in trial
    order, and the first failing trial's error is the one raised, as when
    they run one after another.
    """
    started = time.perf_counter()
    kind = VsaKind(kind)
    if n < 1:
        raise ValueError(f"pair count must be >= 1, got {n}")
    if trials < 1:
        raise ValueError(f"trial count must be >= 1, got {trials}")
    bases = [mix64(seed, trial) for trial in range(trials)]
    errors = list(run_ahead(functools.partial(_trial_errors, kind, d, n), bases, alternate=True))
    return RetrievalErrorEstimate(
        kind=kind,
        d=d,
        n=n,
        trials=trials,
        p_error=float(sum(errors)) / (n * trials),
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
        est = retrieval_error_probability(kind, d, n, trials, mix64(seed, _kind_tag(kind), d, n))
        estimates.append(est)
        if est.p_error > threshold:
            return n, False, estimates
    return grid[-1], True, estimates


def _kind_tag(kind):
    return list(VsaKind).index(kind)


def query_response_distribution(
    d,
    n,
    trials=DEFAULT_TRIALS,
    seed=0,
    kind=VsaKind.HRR_PROJECTED,
    max_queries=256,
):
    """Dot-product responses x . (S (x) y^-1) for present and absent pairs.

    The statement S holds n pairs. Present queries reuse pairs bound into
    it; absent queries use fresh pairs. The projected variant unbinds with
    the index-permutation inverse (exact for unitary keys); the naive
    variant unbinds with the exact spectral inverse, whose instability is
    the point of the comparison. Statistics pool individual responses
    across trials; trial t draws from mix64(seed, n, t), so each n's
    statistics depend only on the seed, n and the trial count.
    """
    kind = VsaKind(kind)
    if kind not in (VsaKind.HRR_NAIVE, VsaKind.HRR_PROJECTED):
        raise ValueError("response distribution is defined for the HRR variants")
    for name, value in [("trial count", trials), ("query count", max_queries), ("pair count", n)]:
        if value < 1:
            raise ValueError(f"{name} must be >= 1, got {value}")
    n = int(n)
    q = min(n, max_queries)
    draws = [_responses(kind, d, n, q, mix64(seed, n, trial)) for trial in range(trials)]
    present = np.concatenate([p for p, _ in draws])
    absent = np.concatenate([a for _, a in draws])
    return ResponseStats(
        n=n,
        mean_present=float(present.mean()),
        std_present=float(present.std()),
        mean_absent=float(absent.mean()),
        std_absent=float(absent.std()),
    )


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
