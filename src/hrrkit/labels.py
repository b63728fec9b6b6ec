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
the process may use two or more CPUs, one worker thread
(`seeds.run_ahead`) regenerates block i + 1 while the caller scores block
i, so regeneration and the score product run on different cores; the
blocks, and every score and ranking made from them, are the same bits as
one block at a time.
"""

from __future__ import annotations

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
    "score_blocks",
    "topk",
]

_CLASS_BLOCK = 512  # classes regenerated per chunk when streaming
_MERGE_CELLS = 16384  # scores per topk step (>= 32 columns); bounds its temporaries


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
        """Yield (start, vectors) chunks covering all classes in order.

        The blocks are made by seeds.run_ahead: with two or more blocks and
        two or more usable CPUs, one worker thread makes block i + 1 while
        the caller uses block i, so at most one block is in flight;
        otherwise each block is made when it is asked for. They are
        class_vectors(arange(start, stop)) bit for bit either way. An error
        in the worker is raised where its block is taken. Closing the
        iterator early waits for the block in flight and stops the worker.
        """
        starts = range(0, self.n_classes, _CLASS_BLOCK)
        yield from zip(starts, run_ahead(self._class_block, starts))

    def _class_block(self, start):
        return self.class_vectors(np.arange(start, min(start + _CLASS_BLOCK, self.n_classes)))

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


def score_blocks(space, s_hat):
    """(start, scores) for each block of classes, in order, against B predictions.

    scores holds the (B, w) dot products of the role-p unbindings of s_hat
    with the w class vectors from start; topk needs no (B x L) matrix.
    """
    queries = core.unbind(s_hat, space.p)
    for start, rows in space.iter_class_blocks():
        yield start, queries @ rows.T


def topk(blocks, k):
    """Column indices of each row's k best scores, best first.

    blocks yields (start, scores) pairs in ascending start, scores an (n, w)
    block of columns from start. Each step stably argsorts the kept winners
    and the next few columns; the winners have lower indices, so ties break
    toward the lower index, as in one full stable argsort. Once a row holds
    k winners, a column can enter only with a score strictly above the
    row's k-th best, so a step merges only the rows where one does. Blocks
    with rows but no columns give an (n, 0) array; no block is a ValueError.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    best = index = n_rows = None
    for start, block in blocks:
        n_rows = len(block)
        width = max(32, _MERGE_CELLS // (len(block) + 1))
        for lo in range(0, block.shape[1], width):
            scores = block[:, lo : lo + width]
            full = best is not None and best.shape[1] == k
            rows = slice(None)
            if full:
                # NaN sorts last, so a NaN k-th best admits any other score
                kth = best[:, -1]
                rows = np.flatnonzero((scores > kth[:, None]).any(axis=1) | np.isnan(kth))
                if not rows.size:
                    continue
                scores = scores[rows]
            cols = np.broadcast_to(np.arange(scores.shape[1]) + start + lo, scores.shape)
            if best is not None:
                scores = np.concatenate([best[rows], scores], axis=1)
                cols = np.concatenate([index[rows], cols], axis=1)
            order = np.argsort(-scores, axis=1, kind="stable")[:, :k]
            top = np.take_along_axis(scores, order, axis=1), np.take_along_axis(cols, order, axis=1)
            if full:
                best[rows], index[rows] = top
            else:
                best, index = top
        # drop the block and its views before asking for the next, so two
        # score blocks are never alive at once (the next block's class
        # vectors may already be in the making on the producer's thread)
        block = scores = None
    if n_rows is None:
        raise ValueError("topk needs at least one block of scores")
    return np.empty((n_rows, 0), np.int64) if index is None else index


def decode_topk(space, s_hat, k):
    """Indices of the k highest-scoring classes, ties broken by lower index."""
    if not 1 <= k <= space.n_classes:
        raise ValueError(f"k must be in [1, {space.n_classes}], got {k}")
    return topk(score_blocks(space, _prediction(space, s_hat)), k)[0].tolist()


def decode_threshold(space, s_hat, tau=0.5):
    """Sorted indices of all classes scoring strictly above tau.

    A class's score is the dot product of its vector with the role-p
    unbinding. The classes are scored block by block (score_blocks), so
    memory stays O(block * dim) plus the L-vector of scores.
    """
    scores = np.concatenate([row for _, (row,) in score_blocks(space, _prediction(space, s_hat))])
    return np.nonzero(scores > tau)[0].tolist()
