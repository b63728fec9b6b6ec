"""From-scratch feedforward trainer with interchangeable output heads.

The body is input -> hidden -> hidden with ReLU activations. The "fc"
head emits one logit per label and trains with mean binary cross entropy;
the "hrr" head emits a d'-dimensional statement vector and trains with the
query loss from hrrkit.labels, which chains into the linear layers through
its analytic gradient. The first layer consumes sparse features directly,
touching only the nonzero rows of the weight matrix.

Training is plain mini-batch Adam with seeded shuffling. A step may share
its work with one worker thread (see train); every element gets the same
operations in the same order on either thread, so a fixed seed gives the
same bytes with or without the worker at a fixed BLAS thread count.
"""

from __future__ import annotations

import collections
import concurrent.futures
import contextlib
import dataclasses
import itertools
import json
import math
import os
import struct
import time

import numpy as np

from . import core
from . import labels as labelcodec
from . import metrics
from .seeds import _worker_allowed, mix64

__all__ = [
    "EpochStats",
    "MlpModel",
    "TrainConfig",
    "TrainingDivergedError",
    "check_dataset",
    "compression_percent",
    "init_model",
    "load_checkpoint",
    "param_count",
    "predict_rankings",
    "save_checkpoint",
    "train",
]

_MAGIC = b"HRRMLP1\n"
_FORMAT_VERSION = 1
_BETA1, _BETA2, _ADAM_EPS = 0.9, 0.999, 1e-8  # Adam's moment decays and epsilon


class TrainingDivergedError(RuntimeError):
    """Raised when the training loss stops being finite."""


@dataclasses.dataclass
class MlpModel:
    weights: list  # per layer, shape (fan_in, fan_out)
    biases: list  # per layer, shape (fan_out,)
    head: str  # "fc" or "hrr"

    @property
    def layer_sizes(self):
        return [self.weights[0].shape[0]] + [w.shape[1] for w in self.weights]

    @property
    def out_dim(self):
        return self.weights[-1].shape[1]


@dataclasses.dataclass
class TrainConfig:
    epochs: int
    batch_size: int = 64
    lr: float = 1e-3
    weight_decay: float = 0.0
    dropout: float = 0.0
    seed: int = 0

    def __post_init__(self):
        checks = ("epochs", 0), ("batch_size", 1), ("seed", None), ("lr", 0.0), ("weight_decay", 0.0)
        for name, low in checks:
            value = getattr(self, name)
            if type(low) is float:  # rates: finite numbers, no bool
                number = isinstance(value, (int, float, np.floating)) and not isinstance(value, bool)
                if not (number and math.isfinite(value)):
                    raise ValueError(f"{name} must be a finite number, got {value!r}")
            elif type(value) is not int:  # counts and the seed: no float, no bool
                raise ValueError(f"{name} must be an integer, got {value!r}")
            if low is not None and not value >= low:
                raise ValueError(f"{name} must be >= {low}, got {value}")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError(f"dropout must be in [0, 1), got {self.dropout}")


@dataclasses.dataclass(frozen=True)
class EpochStats:
    """One epoch's loss and where its time went.

    The phase seconds split the training batches into the forward pass,
    the loss, the backward pass and the optimizer step; eval_s is the
    validation pass. examples_per_s counts training examples over the
    training batches' wall time. For the hrr head, j_p and j_n split
    mean_loss into its present-role and absent-role terms (None for fc).
    grad_norm is the mean over the batches of the global L2 norm of the
    loss gradient in every parameter, before weight decay. The optimizer
    step takes it tile by tile as it reads the gradient.

    backward_s is the calling thread's time from the output gradient until
    the first layer's weight gradient exists; optimizer_s runs from then
    until the step's last update has finished. Work that the step's worker
    thread does meanwhile (X_b, weight gradients, and the updates of the
    layers backward has passed) is not counted separately; without a worker
    it runs on the calling thread inside backward_s.
    """

    epoch: int
    mean_loss: float
    seconds: float
    val_p1: float | None = None
    forward_s: float = 0.0
    loss_s: float = 0.0
    backward_s: float = 0.0
    optimizer_s: float = 0.0
    eval_s: float = 0.0
    examples_per_s: float = 0.0
    j_p: float | None = None
    j_n: float | None = None
    grad_norm: float = 0.0


def init_model(n_features, hidden, out_dim, head, seed):
    """Kaiming-uniform weights (fan-in scaled for ReLU), zero biases."""
    if head not in ("fc", "hrr"):
        raise ValueError(f"head must be 'fc' or 'hrr', got {head!r}")
    if not len(hidden):
        raise ValueError("hidden must name at least one layer width")
    sizes = [int(n_features), *map(int, hidden), int(out_dim)]
    if min(sizes[1:-1]) < 1:
        raise ValueError(f"hidden layer widths must be >= 1, got {sizes[1:-1]}")
    rng = np.random.Generator(np.random.PCG64(seed))
    weights, biases = [], []
    for fan_in, fan_out in zip(sizes, sizes[1:]):
        bound = np.sqrt(6.0 / fan_in)
        weights.append(rng.uniform(-bound, bound, size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    return MlpModel(weights=weights, biases=biases, head=head)


def _forward_sparse(model, batch, dropout=0.0, rng=None):
    """Forward pass over a batch SparseDataset: (output, hidden activations).

    The first layer gathers only the weight rows of active features, one
    CSR row at a time; later layers are dense matrix products. With dropout
    > 0, rng draws each hidden unit's keep mask.
    """
    w1, b1 = model.weights[0], model.biases[0]
    z = np.tile(b1, (batch.n_examples, 1))
    for row, (lo, hi) in enumerate(zip(batch.indptr[:-1].tolist(), batch.indptr[1:].tolist())):
        if hi > lo:
            z[row] += batch.values[lo:hi] @ w1[batch.indices[lo:hi]]
    acts = []  # per hidden layer: output after ReLU and dropout
    for w, b in zip(model.weights[1:], model.biases[1:]):
        a = np.maximum(z, 0.0)
        if dropout > 0.0:
            a = a * ((rng.random(a.shape) >= dropout) / (1.0 - dropout))
        acts.append(a)
        z = a @ w + b
    return z, acts


# Gradient of the first-layer weights at the sorted unique feature rows a
# batch touches; every other row's gradient is zero.
_RowGrad = collections.namedtuple("_RowGrad", "rows values")


class _Inline:
    """An executor that runs each call on the caller's thread as it is submitted."""

    @staticmethod
    def submit(fn, *args):
        done = concurrent.futures.Future()
        done.set_result(fn(*args))
        return done


_INLINE = _Inline()


def _step_executor():
    """One worker thread for the training step where seeds allows one and
    BLAS runs on one thread, else _INLINE. The BLAS count is the first of
    OPENBLAS_NUM_THREADS and OMP_NUM_THREADS (OpenBLAS's order) set to a
    positive count; more BLAS threads would compete with a worker."""
    names = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
    counts = [int(c) for c in (os.environ.get(name, "").strip() for name in names) if c.isdigit()]
    if next((c for c in counts if c > 0), None) == 1 and _worker_allowed():
        return concurrent.futures.ThreadPoolExecutor(max_workers=1)
    return contextlib.nullcontext(_INLINE)


def _touched(batch):
    """The sorted unique feature rows a batch touches, and X_b over them."""
    rows, cols = np.unique(batch.indices, return_inverse=True)
    x = np.zeros((batch.n_examples, rows.size))  # unique features in a row: one write a cell
    x[np.repeat(np.arange(batch.n_examples), np.diff(batch.indptr)), cols] = batch.values
    return rows, x


def _backward_sparse(model, batch, acts, grad_out, dropout=0.0, pool=_INLINE, update=None):
    """Parameter gradients for a batch given the output gradient.

    The first layer's weight gradient is a _RowGrad: the touched rows and
    X_b^T delta for them, where X_b is the batch's value matrix. A unit
    that dropout zeroed has a cached activation of exactly 0, so scaling
    (a > 0) by 1 / (1 - dropout) gives the same bits as the forward mask.

    pool builds X_b (_touched) and forms the later layers' weight gradients
    while this thread carries delta down. Once the pass has read a layer's
    weights for the last time, update(i, gradient or its future) is called
    for them (i = layer) and its bias (n_layers + layer).
    """
    n_layers = len(model.weights)
    grads_w, grads_b = [None] * n_layers, [None] * n_layers
    touched = pool.submit(_touched, batch)
    delta = grad_out
    for layer in range(n_layers - 1, 0, -1):
        a = acts[layer - 1]
        # The product goes into an array from this thread's heap: a worker's
        # own malloc arena would keep the freed gradients, raising peak RSS.
        grad_w = np.empty((a.shape[1], delta.shape[1]))
        grads_w[layer] = pool.submit(np.matmul, a.T, delta, grad_w)
        grads_b[layer] = delta.sum(axis=0)
        delta = (delta @ model.weights[layer].T) * (a > 0)
        if dropout > 0.0:
            delta *= 1.0 / (1.0 - dropout)
        if update:
            update(layer, grads_w[layer])
            update(n_layers + layer, grads_b[layer])
    rows, x = touched.result()
    grads_w[0] = _RowGrad(rows, x.T @ delta)
    grads_b[0] = delta.sum(axis=0)
    grads_w[1:] = [g.result() for g in grads_w[1:]]
    return grads_w, grads_b


def _bce_rows(z, y):
    # -[y log s(z) + (1-y) log(1 - s(z))] = max(z,0) - z y + log(1 + e^-|z|)
    return (np.maximum(z, 0.0) - z * y + np.log1p(np.exp(-np.abs(z)))).mean(axis=-1)


def _bce_grad(logits, y):
    return (1.0 / (1.0 + np.exp(-logits)) - y) / logits.shape[-1]


def _batch_loss_and_grad(model, batch, out, space, class_matrix=None):
    """Mean loss over the batch, its gradient at the output, and its split.

    Examples with no labels contribute neither loss nor gradient. The fc
    head scores the (B x L) block at once; the hrr head gathers the present
    class rows (from the class matrix when there is one) for one
    labels.loss_terms call. The split is (j_p, j_n) for hrr, None for fc.
    """
    sizes, flat = np.diff(batch.label_indptr), batch.labels
    owner = np.repeat(np.arange(batch.n_examples), sizes)
    labelled = sizes > 0
    count = max(int(np.count_nonzero(labelled)), 1)
    if model.head == "fc":
        y = np.zeros_like(out)
        y[owner, flat] = 1.0
        loss = float(_bce_rows(out[labelled], y[labelled]).sum()) / count
        grad = np.where(labelled[:, None], _bce_grad(out, y), 0.0) / count
        return loss, grad, None
    rows = class_matrix[flat] if class_matrix is not None else space.class_vectors(flat)
    j_p, j_n, grad = labelcodec.loss_terms(space, out, rows, owner)
    j_p, j_n = float(j_p.sum()) / count, float(j_n.sum()) / count
    return j_p + j_n, grad / count, (j_p, j_n)


# Elements per row tile of the Adam step: a tile's slices of p, m, v, the
# gradient and the work buffer (5 x 256 KB) fit in a 2 MB L2 cache.
_TILE = 1 << 15


def _span(p):
    """Rows per tile of p: about _TILE elements, and at least one row."""
    return max(1, _TILE // max(math.prod(p.shape[1:]), 1))


class _Adam:
    """Adam, fused in place and walked in cache-sized row tiles.

    The bias corrections fold into a step size and an epsilon, and every
    temporary goes through a preallocated work buffer of at most one tile,
    one per thread: work for the caller's, spare for the worker's. Every
    row's moments decay on every step; a _RowGrad adds its rows' gradient
    on top, which is dense Adam with a zero gradient on the other rows.
    decay holds each parameter's L2 coefficient; that term is dense and
    reaches every row. Each tile runs the whole update before the next, so
    every element gets the same operations in the same order as one pass
    over the whole parameter, and the same bits, on whichever thread.

    A step is begin(), then update() for each parameter once nothing reads
    it any more, then finish(); step() does all three.
    """

    def __init__(self, params, lr, decay):
        self.params, self.lr, self.decay = params, lr, decay
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]
        size = max(min(p.size, max(_TILE, math.prod(p.shape[1:]))) for p in params)
        self.work, self.spare = np.empty(size), np.empty(size)
        self.t = 0

    def step(self, grads, pool=_INLINE):
        """Update the parameters in place; returns the global L2 norm of grads.

        The norm is of the loss gradient alone, before weight decay; a
        _RowGrad counts each touched row once.
        """
        self.begin(pool)
        for i, g in enumerate(grads):
            self.update(i, g)
        return self.finish()

    def begin(self, pool):
        """Start a step; pool's worker is its second thread."""
        self.pool, self.pending, self.sq = pool, [], {}
        self.t += 1
        # lr * mhat / (sqrt(vhat) + eps) == step * m / (sqrt(v) + eps_t)
        root_bc2 = np.sqrt(1.0 - _BETA2**self.t)
        self.rate = self.lr * root_bc2 / (1.0 - _BETA1**self.t), _ADAM_EPS * root_bc2

    def update(self, i, grad):
        """Queue parameter i's update, from grad or a future of it, on the worker.

        A _RowGrad's rows are sorted and unique, so each tile's part of it
        is a slice, cut here once. The job's counter hands out the tiles.
        """
        cuts = None
        if isinstance(grad, _RowGrad):
            p, span = self.params[i], _span(self.params[i])
            cuts = np.searchsorted(grad.rows, range(0, len(p) + span, span)).tolist()
        job = (i, grad, cuts, itertools.count())
        self.pending.append((job, self.pool.submit(self._update, job, self.spare)))

    def finish(self):
        """Run the tiles the worker has not taken, wait for it and return
        the gradient norm; the first failed update raises. The tiles' squared
        norms add in parameter order, then tile order, as in one serial pass."""
        pending, self.pending = self.pending, []  # the step's gradients go with it
        for job, _ in pending:
            self._update(job, self.work)
        concurrent.futures.wait([done for _, done in pending])
        for _, done in pending:
            done.result()
        sq = 0.0
        for key in sorted(self.sq):
            sq += self.sq[key]
        return float(np.sqrt(sq))

    def _update(self, job, work):
        """Run the row tiles of job's parameter that its counter hands out,
        through work. Tile k covers rows [k * span, (k + 1) * span); next()
        on an itertools.count is atomic, so each tile goes to one thread."""
        i, grad, cuts, tiles = job
        p, m, v, decay = self.params[i], self.m[i], self.v[i], self.decay[i]
        if isinstance(grad, concurrent.futures.Future):
            grad = grad.result()
        b1, b2 = _BETA1, _BETA2
        step, eps_t = self.rate
        span, rows = _span(p), None
        for k in tiles:
            lo, hi = k * span, (k + 1) * span
            if lo >= len(p):
                break
            if cuts is None:
                gt = grad[lo:hi]
            else:
                gt, rows = grad.values[cuts[k] : cuts[k + 1]], grad.rows[cuts[k] : cuts[k + 1]]
            pt, mt, vt = p[lo:hi], m[lo:hi], v[lo:hi]
            buf = work[: pt.size].reshape(pt.shape)
            self.sq[i, k] = np.vdot(gt, gt)
            if rows is not None and not decay:
                gbuf = buf[: len(gt)]  # free until the step is formed in buf
                mt *= b1
                np.multiply(gt, 1.0 - b1, out=gbuf)
                m[rows] += gbuf
                vt *= b2
                np.square(gt, out=gbuf)
                gbuf *= 1.0 - b2
                v[rows] += gbuf
            else:
                if decay:  # the dense gradient g + decay * p, formed in buf
                    np.multiply(pt, decay, out=buf)
                    if rows is not None:
                        buf[rows - lo] += gt
                    else:
                        buf += gt
                    gt = buf
                mt -= gt  # m = b1 * m + (1 - b1) * g without a temporary
                mt *= b1
                mt += gt
                np.square(gt, out=buf)
                buf *= 1.0 - b2
                vt *= b2
                vt += buf
            np.sqrt(vt, out=buf)
            buf += eps_t
            np.divide(mt, buf, out=buf)
            buf *= step
            pt -= buf


def check_dataset(model, dataset, space=None, name="dataset"):
    """Raise ValueError, naming both counts, unless the dataset fits the model.

    Features must match the model's inputs; labels its outputs (fc, which
    takes no LabelSpace) or the classes of a LabelSpace of the output's
    dimension (hrr).
    """
    if model.head == "hrr":
        if space is None:
            raise ValueError("the hrr head requires a LabelSpace")
        if space.dim != model.out_dim:
            raise ValueError(f"label space dim {space.dim} != model output {model.out_dim}")
    elif space is not None:
        raise ValueError("the fc head takes no LabelSpace")
    if dataset.n_features != model.layer_sizes[0]:
        raise ValueError(
            f"{name} has {dataset.n_features} features, model input has {model.layer_sizes[0]}"
        )
    hrr = model.head == "hrr"
    labels = space.n_classes if hrr else model.out_dim
    if dataset.n_labels != labels:
        owner = f"label space has {labels} classes" if hrr else f"model outputs {labels}"
        raise ValueError(f"{name} has {dataset.n_labels} labels, {owner}")


def train(model, dataset, config, space=None, val_dataset=None):
    """Mini-batch training; returns the model and per-epoch statistics.

    The dataset and any validation set must pass check_dataset with the
    model and label space. Raises TrainingDivergedError as soon as a batch
    loss is not finite.

    Where _step_executor starts a worker, each step shares its work with it:
    X_b, the weight gradients and each layer's update behind backward, then
    the first layer's tiles. A step waits for it all before it returns or
    raises, so a forward pass reads no weight that is being updated.
    """
    check_dataset(model, dataset, space)
    if val_dataset is not None:
        check_dataset(model, val_dataset, space, "validation set")
    decay = [config.weight_decay] * len(model.weights) + [0.0] * len(model.biases)
    opt = _Adam(model.weights + model.biases, config.lr, decay)
    n_layers = len(model.weights)
    class_matrix = None
    if model.head == "hrr" and space.n_classes * space.dim <= 4_000_000:
        class_matrix = space.class_vectors(np.arange(space.n_classes))
    shuffle_rng = np.random.Generator(np.random.PCG64(mix64(config.seed, 0xE90C)))
    drop_rng = np.random.Generator(np.random.PCG64(mix64(config.seed, 0xD907)))
    stats = []
    for epoch in range(config.epochs):
        started = time.perf_counter()
        order = shuffle_rng.permutation(dataset.n_examples)
        phases = np.zeros(4)  # forward, loss, backward, optimizer seconds
        losses, splits, norms = [], [], []
        with _step_executor() as pool:
            for lo in range(0, dataset.n_examples, config.batch_size):
                batch = dataset.take(order[lo : lo + config.batch_size])
                t0 = time.perf_counter()
                out, acts = _forward_sparse(model, batch, config.dropout, drop_rng)
                t1 = time.perf_counter()
                loss_value, grad_out, split = _batch_loss_and_grad(
                    model, batch, out, space, class_matrix=class_matrix
                )
                t2 = time.perf_counter()
                if not np.isfinite(loss_value):
                    raise TrainingDivergedError(
                        f"non-finite loss at epoch {epoch}, batch {lo // config.batch_size}"
                    )
                losses.append(loss_value)
                splits.append(split)
                opt.begin(pool)
                grads_w, grads_b = _backward_sparse(
                    model, batch, acts, grad_out, config.dropout, pool, opt.update
                )
                t3 = time.perf_counter()
                opt.update(0, grads_w[0])
                opt.update(n_layers, grads_b[0])
                del grads_w, grads_b  # freed with this step, not beside the next one's
                norms.append(opt.finish())
                phases += (t1 - t0, t2 - t1, t3 - t2, time.perf_counter() - t3)
        trained = time.perf_counter()
        val_p1 = None
        if val_dataset is not None:
            rankings = predict_rankings(model, val_dataset, space, k=1)
            val_p1 = metrics.metric_report(rankings, val_dataset, ks=(1,)).get("P@1")
        j_p = j_n = None
        if model.head == "hrr" and splits:
            j_p, j_n = (float(v) for v in np.mean(splits, axis=0))
        ended = time.perf_counter()
        train_s = trained - started
        stats.append(
            EpochStats(
                epoch=epoch,
                mean_loss=float(np.mean(losses)) if losses else 0.0,
                seconds=ended - started,
                val_p1=val_p1,
                forward_s=float(phases[0]),
                loss_s=float(phases[1]),
                backward_s=float(phases[2]),
                optimizer_s=float(phases[3]),
                eval_s=ended - trained,
                examples_per_s=dataset.n_examples / train_s if train_s > 0 else 0.0,
                j_p=j_p,
                j_n=j_n,
                grad_norm=float(np.mean(norms)) if norms else 0.0,
            )
        )
    return model, stats


def predict_rankings(model, dataset, space=None, k=5):
    """Top-k label rankings for every example, best score first.

    Ties go toward the lower index, and there is no (examples x classes)
    matrix. The fc head ranks each 256-row forward chunk's logits by
    labels.topk before the next chunk's are made. The hrr head ranks all
    outputs in one pass over the class blocks by labels.screened_topk; the
    class producer starts before the forward pass, so the blocks are
    regenerated beside it. An empty dataset is one empty chunk.
    """
    chunks = (dataset.take(slice(lo, lo + 256)) for lo in range(0, max(dataset.n_examples, 1), 256))
    if model.head == "fc":
        ranks = [labelcodec.topk([(0, _forward_sparse(model, chunk)[0])], k) for chunk in chunks]
        return np.concatenate(ranks).tolist()
    with contextlib.closing(space.iter_class_blocks()) as blocks:
        queries = core.unbind(np.concatenate([_forward_sparse(model, chunk)[0] for chunk in chunks]), space.p)
        return labelcodec.screened_topk(queries, blocks, k).tolist()


def param_count(model):
    """(output-layer parameters, total parameters), exact integers."""
    out_params = model.weights[-1].size + model.biases[-1].size
    total = sum(w.size for w in model.weights) + sum(b.size for b in model.biases)
    return int(out_params), int(total)


def compression_percent(n_labels, d_prime, hidden_width):
    """Output-layer parameter reduction (%) of the hrr head vs the fc head."""
    fc = hidden_width * n_labels + n_labels
    hrr = hidden_width * d_prime + d_prime
    return 100.0 * (1.0 - hrr / fc)


def save_checkpoint(model, path, extra=None, space=None):
    """Versioned binary checkpoint: magic, JSON header, float64 LE blocks.

    The model fixes format_version, head, layer_sizes and the fields that
    restate them, space fixes n_labels, d_prime and label_seed, and extra
    adds other keys. A header load_checkpoint would refuse raises its
    ValueError before any file is opened.

    The bytes go to a temporary file beside path, which os.replace then
    moves into place, so a write that fails part way leaves any earlier
    checkpoint at path whole and removes the partial file. The file is not
    fsync-ed: this guards against the writing process failing, not
    against the machine losing power. Each layer is written from its own
    buffer, with no bytes copy of it.
    """
    header = dict(extra or {})
    header.update(_restated(model.head, model.layer_sizes))
    if space is not None:
        header.update(n_labels=space.n_classes, d_prime=space.dim, label_seed=space.seed)
    header.update(format_version=_FORMAT_VERSION, head=model.head, layer_sizes=model.layer_sizes)
    _check_header(header, path)
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    tmp = os.fspath(path) + ".tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(_MAGIC)
            fh.write(struct.pack("<I", len(blob)))
            fh.write(blob)
            for w, b in zip(model.weights, model.biases):
                fh.write(np.ascontiguousarray(w, dtype="<f8").data)
                fh.write(np.ascontiguousarray(b, dtype="<f8").data)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def _restated(head, sizes):
    # The header fields that restate layer_sizes: save_checkpoint writes
    # them and _check_header holds them to it. fc has no label space.
    fields = {"n_features": sizes[0], "hidden": sizes[1:-1], "d_prime": sizes[-1]}
    if head == "fc":
        fields.update(n_labels=sizes[-1], d_prime=None, label_seed=None)
    return fields


def _check_header(header, path):
    """Raise the ValueError, naming path, of a header load_checkpoint refuses."""
    if not isinstance(header, dict):
        raise ValueError(f"checkpoint {path}: header is not a JSON object")
    if header.get("format_version") != _FORMAT_VERSION:
        raise ValueError(
            f"unsupported checkpoint {path}: format version {header.get('format_version')}"
        )
    head = header.get("head")
    if head not in ("fc", "hrr"):
        raise ValueError(f"checkpoint {path}: head must be 'fc' or 'hrr', got {head!r}")
    sizes = header.get("layer_sizes")
    if not isinstance(sizes, list) or not all(type(n) is int and n >= 1 for n in sizes):
        raise ValueError(
            f"checkpoint {path}: layer_sizes must be a list of integers >= 1, got {sizes!r}"
        )
    if len(sizes) < 3:
        raise ValueError(
            f"checkpoint {path} has {len(sizes)} layer sizes; a model needs at "
            f"least 3 (input, hidden, output)"
        )
    # Fields that restate layer_sizes agree with it where present,
    # compared as JSON so that true is not 1.
    for key, want in _restated(head, sizes).items():
        if key in header and json.dumps(header[key]) != json.dumps(want):
            raise ValueError(
                f"checkpoint {path}: {key} must be {want!r} to match head {head!r} and "
                f"layer_sizes {sizes}, got {header[key]!r}"
            )
    # hrr needs its label space's arguments; any integer is a seed
    floors = {"n_labels": 1, "d_prime": 2, "label_seed": None} if head == "hrr" else {}
    if "train_seed" in header:
        floors["train_seed"] = None
    for key, low in floors.items():
        value = header.get(key)
        if type(value) is not int or (low is not None and value < low):
            need = "an integer" if low is None else f"an integer >= {low}"
            raise ValueError(f"checkpoint {path}: {key} must be {need}, got {value!r}")


def _read_exact(fh, shape, dtype, path, section):
    # Reads straight into a new array: a layer costs its own size once. The
    # size is checked against the bytes left first, so a corrupt header
    # cannot ask for an allocation the file could never fill.
    need = math.prod(shape if isinstance(shape, tuple) else (shape,)) * np.dtype(dtype).itemsize
    left = max(os.fstat(fh.fileno()).st_size - fh.tell(), 0)
    if need > left:
        raise ValueError(
            f"truncated checkpoint {path}: {section} needs {need} bytes, found {left}"
        )
    out = np.empty(shape, dtype=dtype)
    got = fh.readinto(memoryview(out).cast("B"))
    if got != out.nbytes:
        raise ValueError(
            f"truncated checkpoint {path}: {section} needs {out.nbytes} bytes, "
            f"found {got}"
        )
    return out


def load_checkpoint(path):
    """Read a checkpoint written by save_checkpoint; returns (model, space).

    space is the hrr head's LabelSpace, from the header's n_labels, d_prime
    and label_seed, or None for fc. The header is checked whole (README has
    the schema) before any layer is read. Every ValueError names the path:
    a bad magic or format version; a file cut short, with the section that
    is incomplete and the expected and actual byte counts; bytes past the
    last layer, with the expected and actual file sizes; fewer than three
    layer sizes, with the count; any other header fault, with the field.
    """
    with open(path, "rb") as fh:
        magic = fh.read(len(_MAGIC))
        if magic != _MAGIC:
            raise ValueError(f"not a model checkpoint {path}: bad magic {magic!r}")
        hlen = int(_read_exact(fh, 1, "<u4", path, "header length")[0])
        blob = _read_exact(fh, hlen, "u1", path, "header").tobytes()
        try:
            header = json.loads(blob)
        except ValueError:  # not JSON, or not UTF-8
            header = None
        _check_header(header, path)
        head, sizes = header["head"], header["layer_sizes"]
        weights, biases = [], []
        for i, (fan_in, fan_out) in enumerate(zip(sizes, sizes[1:])):
            weights.append(_read_exact(fh, (fan_in, fan_out), "<f8", path, f"layer {i} weights"))
            biases.append(_read_exact(fh, fan_out, "<f8", path, f"layer {i} bias"))
        expected, actual = fh.tell(), os.fstat(fh.fileno()).st_size
        if actual != expected:
            raise ValueError(
                f"oversized checkpoint {path}: header and layers need {expected} "
                f"bytes, file has {actual}"
            )
    n_labels, dim, seed = (header.get(key) for key in ("n_labels", "d_prime", "label_seed"))
    space = labelcodec.make_label_space(n_labels, dim, seed) if head == "hrr" else None
    return MlpModel(weights=weights, biases=biases, head=head), space
