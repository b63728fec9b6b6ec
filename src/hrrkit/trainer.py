"""From-scratch feedforward trainer with interchangeable output heads.

The body is input -> hidden -> hidden with ReLU activations. The "fc"
head emits one logit per label and trains with mean binary cross entropy;
the "hrr" head emits a d'-dimensional statement vector and trains with the
query loss from hrrkit.labels, which chains into the linear layers through
its analytic gradient. The first layer consumes sparse features directly,
touching only the nonzero rows of the weight matrix.

Training is plain mini-batch Adam with seeded shuffling, bit-reproducible
for a fixed seed in single-threaded use.
"""

from __future__ import annotations

import collections
import contextlib
import dataclasses
import json
import math
import os
import struct
import time

import numpy as np

from . import labels as labelcodec
from . import metrics
from .seeds import mix64

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
        for name, low in (("epochs", 0), ("batch_size", 1), ("lr", 0.0), ("weight_decay", 0.0)):
            if not getattr(self, name) >= low:
                raise ValueError(f"{name} must be >= {low}, got {getattr(self, name)}")
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
    step takes it tile by tile as it reads the gradient, so its time falls
    in optimizer_s, not backward_s.
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


def _backward_sparse(model, batch, acts, grad_out, dropout=0.0):
    """Parameter gradients for a batch given the output gradient.

    The first layer's weight gradient is a _RowGrad: the touched rows and
    X_b^T delta for them, where X_b is the batch's value matrix. A unit
    that dropout zeroed has a cached activation of exactly 0, so scaling
    (a > 0) by 1 / (1 - dropout) gives the same bits as the forward mask.
    """
    n_layers = len(model.weights)
    grads_w, grads_b = [None] * n_layers, [None] * n_layers
    delta = grad_out
    for layer in range(n_layers - 1, 0, -1):
        a = acts[layer - 1]
        grads_w[layer] = a.T @ delta
        grads_b[layer] = delta.sum(axis=0)
        delta = (delta @ model.weights[layer].T) * (a > 0)
        if dropout > 0.0:
            delta *= 1.0 / (1.0 - dropout)
    grads_b[0] = delta.sum(axis=0)
    rows, cols = np.unique(batch.indices, return_inverse=True)
    x = np.zeros((batch.n_examples, rows.size))  # X_b; unique features in a row: one write a cell
    x[np.repeat(np.arange(batch.n_examples), np.diff(batch.indptr)), cols] = batch.values
    grads_w[0] = _RowGrad(rows, x.T @ delta)
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


def _tiles(p, g):
    """Row tiles of p as (lo, hi, gradient tile, its rows or None).

    A tile holds about _TILE elements, and at least one row. A _RowGrad's
    rows are sorted and unique, so each tile's part of it is a slice.
    """
    width = math.prod(p.shape[1:])
    span = max(1, _TILE // max(width, 1))
    starts = range(0, len(p), span)
    if isinstance(g, _RowGrad):
        cuts = np.searchsorted(g.rows, [*starts, len(p)]).tolist()
        for lo, a, b in zip(starts, cuts, cuts[1:]):
            yield lo, lo + span, g.values[a:b], g.rows[a:b]
    else:
        for lo in starts:
            yield lo, lo + span, g[lo : lo + span], None


class _Adam:
    """Adam, fused in place and walked in cache-sized row tiles.

    The bias corrections fold into a step size and an epsilon, and every
    temporary goes through one preallocated work buffer of at most one
    tile. Every row's moments decay on every step; a _RowGrad adds its
    rows' gradient on top, which is dense Adam with a zero gradient on the
    other rows. decay holds each parameter's L2 coefficient; that term is
    dense and reaches every row. Each tile runs the whole update before
    the next, so every element gets the same operations in the same order
    as one pass over the whole parameter, and the same bits.
    """

    def __init__(self, params, lr, decay):
        self.lr, self.decay = lr, decay
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]
        self.work = np.empty(
            max(min(p.size, max(_TILE, math.prod(p.shape[1:]))) for p in params)
        )
        self.t = 0

    def step(self, params, grads):
        """Update params in place; returns the global L2 norm of grads.

        The norm is of the loss gradient alone, before weight decay; a
        _RowGrad counts each touched row once.
        """
        self.t += 1
        b1, b2 = _BETA1, _BETA2
        # lr * mhat / (sqrt(vhat) + eps) == step * m / (sqrt(v) + eps_t)
        root_bc2 = np.sqrt(1.0 - b2**self.t)
        step = self.lr * root_bc2 / (1.0 - b1**self.t)
        eps_t = _ADAM_EPS * root_bc2
        sq = 0.0
        for p, g, m, v, decay in zip(params, grads, self.m, self.v, self.decay):
            for lo, hi, gt, rows in _tiles(p, g):
                pt, mt, vt = p[lo:hi], m[lo:hi], v[lo:hi]
                buf = self.work[: pt.size].reshape(pt.shape)
                sq += np.vdot(gt, gt)
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
        return float(np.sqrt(sq))


def check_dataset(model, dataset, space=None, name="dataset"):
    """Raise ValueError, naming both counts, unless the dataset fits the model.

    Features must match the model's inputs; labels its outputs (fc) or the
    classes of a LabelSpace of the output's dimension (hrr).
    """
    if model.head == "hrr":
        if space is None:
            raise ValueError("the hrr head requires a LabelSpace")
        if space.dim != model.out_dim:
            raise ValueError(f"label space dim {space.dim} != model output {model.out_dim}")
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
    """
    check_dataset(model, dataset, space)
    if val_dataset is not None:
        check_dataset(model, val_dataset, space, "validation set")
    params = model.weights + model.biases
    decay = [config.weight_decay] * len(model.weights) + [0.0] * len(model.biases)
    opt = _Adam(params, config.lr, decay)
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
            grads_w, grads_b = _backward_sparse(model, batch, acts, grad_out, config.dropout)
            t3 = time.perf_counter()
            norms.append(opt.step(params, grads_w + grads_b))
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

    Ranked by labels.topk, ties toward the lower index, with no (examples x
    classes) matrix: the fc head ranks each 256-row forward chunk's logits
    before the next chunk's are made, the hrr head all outputs in one pass
    over the class blocks. An empty dataset is one empty chunk.
    """
    chunks = (dataset.take(slice(lo, lo + 256)) for lo in range(0, max(dataset.n_examples, 1), 256))
    if model.head == "fc":
        ranks = [labelcodec.topk([(0, _forward_sparse(model, chunk)[0])], k) for chunk in chunks]
        return np.concatenate(ranks).tolist()
    out = np.concatenate([_forward_sparse(model, chunk)[0] for chunk in chunks])
    return labelcodec.topk(labelcodec.score_blocks(space, out), k).tolist()


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


def save_checkpoint(model, path, extra=None):
    """Versioned binary checkpoint: magic, JSON header, float64 LE blocks.

    The bytes go to a temporary file beside path, which os.replace then
    moves into place, so a write that fails part way leaves any earlier
    checkpoint at path whole and removes the partial file. The file is not
    fsync-ed: this guards against the writing process failing, not
    against the machine losing power. Each layer is written from its own
    buffer, with no bytes copy of it.
    """
    header = {
        "format_version": _FORMAT_VERSION,
        "head": model.head,
        "layer_sizes": model.layer_sizes,
    }
    if extra:
        header.update(extra)
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
    """Read a checkpoint written by save_checkpoint; returns (model, header).

    Every ValueError names the path: a bad magic or format version; a file
    cut short, with the section that is incomplete and the expected and
    actual byte counts; a file with bytes past the last layer, with the
    expected size and the actual file size; a header with fewer than three
    layer sizes (no hidden layer), with the count.
    """
    with open(path, "rb") as fh:
        magic = fh.read(len(_MAGIC))
        if magic != _MAGIC:
            raise ValueError(f"not a model checkpoint {path}: bad magic {magic!r}")
        hlen = int(_read_exact(fh, 1, "<u4", path, "header length")[0])
        header = json.loads(_read_exact(fh, hlen, "u1", path, "header").tobytes())
        if header.get("format_version") != _FORMAT_VERSION:
            raise ValueError(
                f"unsupported checkpoint {path}: format version {header.get('format_version')}"
            )
        sizes = header["layer_sizes"]
        if len(sizes) < 3:
            raise ValueError(
                f"checkpoint {path} has {len(sizes)} layer sizes; a model needs at "
                f"least 3 (input, hidden, output)"
            )
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
    return MlpModel(weights=weights, biases=biases, head=header["head"]), header
