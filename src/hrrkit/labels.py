"""Dense label encoding, the query loss, and decoding for multi-label tasks.

A task with L classes is represented in d' << L dimensions by fixed random
unitary vectors: one per class (c_i), a shared "present" role p, and a
"missing" role m orthogonal to p. A label set maps to the statement

    s = p (x) sum_{i in present} c_i + w * m (x) (A - sum_{i in present} c_i)

where A = sum_i c_i is the all-classes vector and w = 1/sqrt(|absent|)
scales the absent bundle to unit expected norm. Without w the absent
bundle's norm grows like sqrt(L) and drowns present-class queries, making
round-trip decoding fail at realistic L; the scaling keeps the decoder's
signal-to-noise ratio independent of L while the two-term structure and
the O(|present|) shortcut through A are unchanged.

The loss never needs the encoded target: it queries the prediction
directly. Unbinding the present role should reveal every present class
vector (cosine near one), and unbinding the missing role should reveal
nothing about them (cosine near zero). Class vectors are regenerated from
a counter-based seed on demand, so the space stores no L x d' matrix;
trainer.train caches one for the loss when L * d' <= 4,000,000.

Class i's vector is derived as mix64(seed, i) -> numpy SeedSequence ->
PCG64 -> d' standard normals / sqrt(d') -> core.project(eps=0): the
sample_unitary(d', mix64(seed, i)) draw. `class_vectors` derives the
SeedSequence state words of all requested classes in one vectorized pass
(`seeds.seed_sequence_words`) instead of building a SeedSequence per
class; the batched path reproduces numpy's per-class construction bit for
bit.

Decoding streams the classes in blocks of _CLASS_BLOCK
(`LabelSpace.iter_class_blocks`). When there are two or more blocks and
the process may use two or more CPUs, one worker thread (`seeds.run_ahead`)
starts when the iterator is made and keeps up to _CLASS_LEAD blocks
regenerated ahead of the caller, so regeneration runs beside the caller's
forward pass and scoring; the blocks are the same bits either way.

`screened_topk` is the one top-k routine, for both heads: the hrr head's
class blocks, and the fc head's blocks of [W_out^T | b_out] rows against
its [a | 1] queries (trainer.predict_rankings). What is exact is the top k
of the per-pair float64 scores, by (score desc, index asc): float32 only
drops classes it certifies cannot enter. A class is dropped when its
float32 score lies more than the margin eps = g(d + 2) ||q|| max||c||
below the row's k-th best float64 score, with g(m) = m u / (1 - m u) and
u = 2^-24 (Higham 2002, section 3.1), plus the float64 rescoring error
and an absolute term for float32 underflow; the survivors are rescored
in float64. At the benchmark's Wiki10-31K shape (1,024 rows, L = 30,938,
d' = 400, k = 5) 29.7 pairs a row are rescored, and an `xml-decode-wide`
round took 0.521 s against 0.602 s with the dense float64 decode (medians
of ten alternating pairs, 9 won, on a 2-vCPU Xeon with BLAS on one
thread).
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools

import numpy as np

from . import core
from .seeds import mix64, mix64_array, pcg64_generators, run_ahead

__all__ = [
    "LabelSpace",
    "LossBreakdown",
    "decode_threshold",
    "decode_topk",
    "encode_labels",
    "loss",
    "loss_gradient",
    "loss_terms",
    "loss_with_gradient",
    "make_label_space",
    "query_loss_terms",
    "screened_topk",
]

_CLASS_BLOCK = 512  # classes regenerated per chunk when streaming
_CLASS_LEAD = 4  # blocks the producer keeps made ahead of the caller
_RESCORE_CELLS = 1 << 16  # float64 products per rescoring gather; bounds its temporaries
_F32_SAFE = 2.0**120  # ||q|| max||c|| below this keeps float32 scores finite


@dataclasses.dataclass(frozen=True)
class LossBreakdown:
    """Two-part query loss; degenerate marks an empty present set."""

    j_p: float
    j_n: float
    degenerate: bool = False

    @property
    def total(self):
        return self.j_p + self.j_n


class LabelSpace:
    """Fixed random role and class vectors for one labeling task.

    Class vectors are deterministic functions of (seed, class index), made
    on demand, not stored; their sum is cached on first access. Sharing
    across threads is safe: the space is read-only after construction, each
    iter_class_blocks iterator owns its worker thread, and a first-access
    race computes the same sum twice.
    """

    def __init__(self, n_classes, dim, seed):
        if n_classes < 1:
            raise ValueError(f"class count must be >= 1, got {n_classes}")
        if dim < 2:
            raise ValueError(f"dimension must be >= 2, got {dim}")
        self.n_classes = int(n_classes)
        self.dim = int(dim)
        self.seed = int(seed)
        self.p = core.sample_unitary(self.dim, mix64(self.seed, self.n_classes, 1))
        raw = core.sample_unitary(self.dim, mix64(self.seed, self.n_classes, 2))
        # Orthogonalize the second unitary draw against p and restore its
        # norm. The result is no longer exactly unitary: decoding unbinds
        # only p, and the loss's absent term unbinds by m with the same
        # permutation inverse, which for m is an approximate unbinding.
        p_hat = self.p / np.linalg.norm(self.p)
        m = raw - (raw @ p_hat) * p_hat
        self.m = m * (np.linalg.norm(self.p) / np.linalg.norm(m))
        self.roles = np.stack([self.p, self.m])

    def class_vectors(self, indices):
        """Regenerate class vectors for the given indices, one per row.

        Row k is core.sample_unitary(dim, mix64(seed, indices[k])), bit for
        bit: mix64(seed, i) -> SeedSequence -> PCG64 -> N(0, 1) draws /
        sqrt(dim) -> project(eps=0). The SeedSequence state words of all
        rows come from one vectorized pass; each row's PCG64 is then seeded
        from its words by numpy itself, one generator at a time.
        """
        indices = np.atleast_1d(np.asarray(indices, dtype=np.int64))
        self._check_indices(indices)
        rows = np.empty((indices.size, self.dim))
        for row, rng in zip(rows, pcg64_generators(mix64_array(self.seed, indices.ravel()))):
            rng.standard_normal(out=row)
        rows /= np.sqrt(self.dim)
        return core.project(rows, eps=0.0)

    def iter_class_blocks(self):
        """An iterator of (start, vectors) chunks covering all classes in order.

        The blocks are made by seeds.run_ahead: with two or more blocks and
        two or more usable CPUs, one worker thread starts here, before the
        first block is asked for, and keeps up to _CLASS_LEAD blocks made
        ahead of the caller; otherwise each block is made when it is asked
        for. They are class_vectors(arange(start, stop)) bit for bit either
        way. An error in the worker is raised where its block is taken.
        Closing the iterator, also before the first block, waits for the
        block in the making and stops the worker.
        """
        return run_ahead(self._class_block, range(0, self.n_classes, _CLASS_BLOCK), lead=_CLASS_LEAD)

    def _class_block(self, start):
        return start, self.class_vectors(np.arange(start, min(start + _CLASS_BLOCK, self.n_classes)))

    @functools.cached_property
    def all_classes(self):
        """Sum of every class vector, A in the statement formula."""
        return sum(rows.sum(axis=0) for _, rows in self.iter_class_blocks())

    def _check_indices(self, indices):
        if indices.size and (indices.min() < 0 or indices.max() >= self.n_classes):
            bad = indices[(indices < 0) | (indices >= self.n_classes)][0]
            raise IndexError(
                f"class index {bad} out of range [0, {self.n_classes})"
            )


def make_label_space(n_classes, dim, seed):
    """Build the fixed vector family for n_classes labels in dim dimensions."""
    return LabelSpace(n_classes, dim, seed)


def _prediction(space, s_hat):
    s_hat = np.asarray(s_hat, dtype=np.float64)
    if s_hat.shape != (space.dim,):
        raise ValueError(f"prediction must have shape ({space.dim},)")
    return s_hat[None]


def _present_array(space, labels):
    arr = np.unique(np.asarray(sorted(labels), dtype=np.int64))
    space._check_indices(arr)
    return arr


def _absent_weight(space, n_present):
    n_absent = space.n_classes - n_present
    return 1.0 / np.sqrt(n_absent) if n_absent > 0 else 1.0


def encode_labels(space, labels):
    """Statement vector for a label set; the ideal network output."""
    present = _present_array(space, labels)
    bundle = space.class_vectors(present).sum(axis=0)  # zeros for an empty set
    w = _absent_weight(space, present.size)
    fillers = np.stack([bundle, w * (space.all_classes - bundle)])
    return core.bind_sum(space.roles, fillers)


def _cosine_sums(u, rows, owner, seg):
    # For every row j, c_j = cos_eps(u[owner_j], rows_j) = <u, v> / (|u||v| + eps).
    # Returns the per-example sums of the c_j and of their gradients in u,
    # taken as products with the 0/1 matrix seg.
    nu = np.linalg.norm(u, axis=1)
    nv = np.linalg.norm(rows, axis=1)
    den = nu[owner] * nv + core.COSINE_EPS
    cs = np.einsum("jd,jd->j", u[owner], rows) / den
    # d c_j / d u = (rows_j - c_j |v_j| / |u| u) / den_j
    w = 1.0 / den
    radial = (seg @ (w * cs * nv)) / np.maximum(nu, 1e-300)
    grads = seg @ (w[:, None] * rows) - radial[:, None] * u
    return seg @ cs, grads


def query_loss_terms(u_p, u_m, class_rows, owner):
    """Per-example loss terms and their gradients in the unbound queries.

    u_p and u_m are the (B, d) role-p and role-m unbindings of B
    predictions. class_rows holds the present class vectors of all B
    examples, one per row, and owner[j] is the example row j belongs to.
    Returns (j_p, j_n, g_up, g_um): two length-B loss vectors and their
    (B, d) gradients in u_p and u_m. An example that owns no row has zero
    loss and gradient. This is the one query-loss path: the per-example
    loss is a batch of one, and the trainer passes whole batches.
    """
    owner = np.asarray(owner, dtype=np.int64)
    n = u_p.shape[0]
    seg = np.zeros((n, owner.size))
    seg[owner, np.arange(owner.size)] = 1.0
    c_p, g_p = _cosine_sums(u_p, class_rows, owner, seg)
    # The absent term pairs each example with the sum of its class rows.
    j_n, g_um = _cosine_sums(u_m, seg @ class_rows, np.arange(n), np.eye(n))
    return seg.sum(axis=1) - c_p, j_n, -g_p, g_um


def loss_terms(space, s_hat, class_rows, owner):
    """query_loss_terms of B (B, dim) predictions: (j_p, j_n, gradient in s_hat).

    The trainer passes whole batches; loss_with_gradient is a batch of one.
    """
    u_p, u_m = core.unbind(s_hat, space.roles[:, None])
    j_p, j_n, g_up, g_um = query_loss_terms(u_p, u_m, class_rows, owner)
    # u_p = s_hat (x) p*, so the adjoint maps the u_p gradient back through
    # a plain binding with p (and likewise for m).
    return j_p, j_n, core.bind_sum(space.roles[:, None], np.stack([g_up, g_um]))


def loss(space, s_hat, labels):
    """Query loss of a predicted statement against a label set.

    The present term sums 1 - cos between the role-p unbinding and each
    present class vector; the absent term is the cosine between the role-m
    unbinding and the sum of present class vectors. The cosines are signed:
    with their magnitudes, as in the reference code, present classes can
    converge anti-aligned, and the dot-product decoder cannot rank them. An
    empty present set is degenerate: both terms are zero and the breakdown
    is flagged.
    """
    breakdown, _ = loss_with_gradient(space, s_hat, labels)
    return breakdown


def loss_gradient(space, s_hat, labels):
    """Gradient of the total query loss with respect to the prediction."""
    _, grad = loss_with_gradient(space, s_hat, labels)
    return grad


def loss_with_gradient(space, s_hat, labels):
    """Loss breakdown and its prediction gradient in one pass."""
    s_hat = _prediction(space, s_hat)
    present = _present_array(space, labels)
    owner = np.zeros(present.size, dtype=np.int64)  # no rows: zero loss and gradient
    j_p, j_n, grad = loss_terms(space, s_hat, space.class_vectors(present), owner)
    return LossBreakdown(float(j_p[0]), float(j_n[0]), degenerate=not present.size), grad[0]


def screened_topk(queries, blocks, k):
    """Indices of each query's k best classes by float64 dot product, best first.

    queries is an (n, d) array: the hrr head's role-p unbindings, or the
    fc head's last hidden activations with a ones column. blocks yields
    (start, vectors) class blocks in ascending start, as
    LabelSpace.iter_class_blocks does (or slices of the fc head's
    [W_out^T | b_out]). The result is exactly the top k of the per-pair
    float64 scores (_pair_dots), ordered by (score desc, index asc) with
    NaN last, as one full stable argsort of those scores would give.
    Float32 only drops classes it certifies cannot enter.

    Each block is scored against a float32 copy of the queries. For every
    pair, |float32 score - float64 score| <= eps, with

        eps = (g32(d + 2) + 2 g64(d + 2)) ||q|| max||c|| + d 2^-148 (1 + ||q|| + max||c||),

    g(m) = m u / (1 - m u), u = 2^-24 or 2^-53 (Higham 2002, section 3.1):
    g32 covers the float32 casts of q and c and the float32 product, one
    g64 the float64 rescoring and the other the float64 norms and
    thresholds, and the last term float32 underflow. A row that holds k
    classes drops a class whose float32 score is below its k-th best
    float64 score minus eps, so that class's float64 score is strictly
    below the k-th best. A row that holds fewer drops only a class whose
    float32 score is below the block's own k-th float32 score minus 2 eps,
    which k classes of the block beat in float64. A row whose norms could
    make a float32 score overflow, or that is not finite, drops nothing by
    that rule. Once a row holds k classes, it drops the whole block when
    its query holds a NaN (every score NaN), or when its query is exactly
    zero (every score ±0, or NaN against an infinite class) and its k-th
    best is ±0: a tie or a NaN goes to the lower index, so no later class
    can enter. The survivors are rescored and merged into the kept
    classes; the rescored bits do not depend on which pairs were dropped.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    queries = np.asarray(queries, dtype=np.float64)
    n, d = queries.shape
    margin = _gamma(d + 2, 2.0**-24) + 2 * _gamma(d + 2, 2.0**-53)
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite rows drop nothing
        q32, q_norm = queries.astype(np.float32), np.linalg.norm(queries, axis=1)
    nan_q, zero_q = np.isnan(q_norm), ~queries.any(axis=1)  # q_norm may underflow to 0
    best, index = np.empty((n, 0)), np.empty((n, 0), np.int64)
    for start, rows in blocks:
        held, width = best.shape[1], len(rows)
        size = min(k, held + width)
        with np.errstate(over="ignore", invalid="ignore"):
            c_max = np.sqrt(np.einsum("ij,ij->i", rows, rows).max(initial=0.0))
            eps = margin * q_norm * c_max + d * 2.0**-148 * (1.0 + q_norm + c_max)
            scores = q32 @ rows.astype(np.float32).T
            if held == k:
                floor = best[:, -1] - eps
            elif width >= k:
                floor = np.partition(scores, width - k, axis=1)[:, width - k] - 2 * eps
            else:
                floor = np.full(n, -np.inf)
            # a NaN floor (a NaN k-th best) keeps every class: NaN sorts last
            floor[~(np.maximum(q_norm, 1.0) * np.maximum(c_max, 1.0) < _F32_SAFE)] = -np.inf
            drop = scores < floor[:, None]  # in float64: the float32 scores widen exactly
            if held == k:
                drop[nan_q | zero_q & (best[:, -1] == 0)] = True
        del scores  # freed before the rescoring gathers
        live = np.flatnonzero(~drop.all(axis=1))  # most rows drop the whole block
        r, c = np.nonzero(~drop[live])
        r = live[r]
        if not r.size and size == held:
            continue
        counts = np.bincount(r, minlength=n)
        hit = np.flatnonzero(counts)  # every row while rows hold fewer than k
        cand = np.concatenate([best[hit].ravel(), _pair_dots(queries, r, rows, c)])
        cand_index = np.concatenate([index[hit].ravel(), c + start])
        order = np.lexsort((cand_index, -cand, np.concatenate([np.repeat(hit, held), r])))
        sizes = held + counts[hit]
        pick = order[(np.cumsum(sizes) - sizes)[:, None] + np.arange(size)]
        if size == held:
            best[hit], index[hit] = cand[pick], cand_index[pick]
        else:
            best, index = cand[pick], cand_index[pick]
    return index


def _gamma(m, u):
    return m * u / (1.0 - m * u)


def _pair_dots(queries, r, rows, c):
    """queries[r[j]] . rows[c[j]] for every j in float64, each pair by one
    fixed tree of additions, so its bits do not depend on the other pairs.
    At most _RESCORE_CELLS products are gathered at once."""
    d = queries.shape[1]
    out = np.empty(r.size)
    step = max(1, _RESCORE_CELLS // d)
    for lo in range(0, r.size, step):
        prod = queries[r[lo : lo + step]]
        prod *= rows[c[lo : lo + step]]
        width = d
        while width > 1:
            half = width // 2
            prod[:, :half] += prod[:, width - half : width]
            width -= half
        out[lo : lo + step] = prod[:, 0]
    return out


def decode_topk(space, s_hat, k):
    """Indices of the k highest-scoring classes, ties broken by lower index.

    The ranking is screened_topk's: the exact top k of the float64 scores.
    """
    if not 1 <= k <= space.n_classes:
        raise ValueError(f"k must be in [1, {space.n_classes}], got {k}")
    queries = core.unbind(_prediction(space, s_hat), space.p)
    with contextlib.closing(space.iter_class_blocks()) as blocks:
        return screened_topk(queries, blocks, k)[0].tolist()


def decode_threshold(space, s_hat, tau=0.5):
    """Sorted indices of all classes scoring strictly above tau.

    A class's score is the dot product of its vector with the role-p
    unbinding. The classes are scored block by block, so memory stays
    O(block * dim) plus the L-vector of scores.
    """
    queries = core.unbind(_prediction(space, s_hat), space.p)
    with contextlib.closing(space.iter_class_blocks()) as blocks:
        scores = np.concatenate([queries @ rows.T for _, rows in blocks], axis=1)[0]
    return np.nonzero(scores > tau)[0].tolist()
