"""Tests for the feedforward trainer, its heads, and checkpointing."""

import concurrent.futures
import dataclasses
import gc
import itertools
import json
import sys
import threading
import tracemalloc
import weakref

import numpy as np
import pytest

import reference_backward as ref
from test_cli import inflate_layer_sizes, rewrite_header
from hrrkit import core
from hrrkit import data as dataio
from hrrkit import labels as lb
from hrrkit import metrics
from hrrkit import seeds
from hrrkit import trainer as tr
from hrrkit.seeds import mix64


def dense_forward(model, x):
    """Dense oracle for the sparse forward pass."""
    a = x
    for w, b in zip(model.weights[:-1], model.biases[:-1]):
        a = np.maximum(a @ w + b, 0.0)
    return a @ model.weights[-1] + model.biases[-1]


def dense_w1_grad(model, grads_w):
    """Scatter the row-sparse first-layer gradient into a dense array."""
    rows, values = grads_w[0]
    w1_grad = np.zeros_like(model.weights[0])
    w1_grad[rows] = values
    return [w1_grad] + grads_w[1:]


def model_params_bytes(model):
    return b"".join(p.tobytes() for p in model.weights + model.biases)


def dataset_of(n_features, n_labels, rows):
    """A SparseDataset of (feat_idx, feat_val, labels) rows, built row by row."""
    rows = list(rows)
    flat = lambda i, dtype: np.concatenate(
        [np.empty(0, dtype)] + [np.asarray(row[i], dtype) for row in rows]
    )
    ptr = lambda i: np.cumsum([0] + [len(row[i]) for row in rows])
    return dataio.SparseDataset(
        n_features, n_labels,
        ptr(0), flat(0, np.int64), flat(1, np.float64), ptr(2), flat(2, np.int64),
    )


def relabelled(ds, labels_of):
    """ds with row i's labels replaced by labels_of(i, its labels)."""
    return dataset_of(
        ds.n_features, ds.n_labels,
        ((ex.feat_idx, ex.feat_val, labels_of(i, ex.labels)) for i, ex in enumerate(ds.examples)),
    )


def planted(n, seed, noise=0.05):
    return dataio.synth_generate(n, 100, 20, labels_per_point=2, seed=seed, noise=noise)


def p_at_1(model, ds, space=None):
    rankings = tr.predict_rankings(model, ds, space=space, k=1)
    hits = [
        1.0 if r[0] in set(ex.labels.tolist()) else 0.0
        for r, ex in zip(rankings, ds.examples)
        if ex.labels.size
    ]
    return float(np.mean(hits))


def forward_one(model, feat_idx, feat_val):
    """Output vector of the sparse forward pass for one example."""
    batch = dataset_of(model.weights[0].shape[0], 1, [(feat_idx, feat_val, [])])
    return tr._forward_sparse(model, batch)[0][0]


class TestForward:
    def test_zero_input_runs_on_biases(self):
        model = tr.init_model(6, (4, 4), 3, "fc", seed=0)
        for b in model.biases:
            b += 0.1
        out = forward_one(model, [], [])
        np.testing.assert_allclose(out, dense_forward(model, np.zeros(6)), atol=1e-15)

    def test_sparse_path_matches_dense_oracle(self):
        model = tr.init_model(50, (16, 16), 8, "fc", seed=1)
        rng = np.random.default_rng(2)
        for _ in range(5):
            idx = np.sort(rng.choice(50, size=7, replace=False))
            val = rng.standard_normal(7)
            dense = np.zeros(50)
            dense[idx] = val
            np.testing.assert_allclose(
                forward_one(model, idx, val), dense_forward(model, dense), atol=1e-12
            )

    def test_hidden_activations_nonnegative(self):
        model = tr.init_model(10, (8,), 4, "fc", seed=3)
        rng = np.random.default_rng(4)
        batch = dataset_of(10, 4, [(np.arange(10), rng.standard_normal(10), [0])])
        _, acts = tr._forward_sparse(model, batch)
        assert len(acts) == 1 and np.all(acts[0] >= 0.0)

    def test_unknown_head_raises_and_names_it(self):
        with pytest.raises(ValueError) as err:
            tr.init_model(6, (4,), 6, "mlp", seed=5)
        assert str(err.value) == "head must be 'fc' or 'hrr', got 'mlp'"

    @pytest.mark.parametrize("hidden", [(), []])
    def test_model_without_hidden_layers_raises(self, hidden):
        with pytest.raises(ValueError, match="hidden must name at least one layer width"):
            tr.init_model(6, hidden, 6, "fc", seed=5)

    @pytest.mark.parametrize("hidden", [(0,), (8, 0), (-4,)])
    def test_hidden_width_below_one_raises_and_names_it(self, hidden):
        with pytest.raises(ValueError) as err:
            tr.init_model(6, hidden, 6, "fc", seed=5)
        assert str(err.value) == f"hidden layer widths must be >= 1, got {list(hidden)}"


def bce_loss(logits, label_set, n_labels):
    """Mean binary cross entropy of one example's logits, by _bce_rows."""
    y = np.zeros(n_labels)
    y[list(label_set)] = 1.0
    return float(tr._bce_rows(np.asarray(logits, dtype=np.float64), y))


class TestBce:
    def test_zero_logits_give_log_two(self):
        assert bce_loss(np.zeros(7), [1, 3], 7) == pytest.approx(np.log(2.0))

    def test_confident_correct_prediction_vanishes(self):
        z = np.full(5, -40.0)
        z[[1, 2]] = 40.0
        assert bce_loss(z, [1, 2], 5) < 1e-12

    def test_matches_naive_sigmoid_log_oracle(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            z = rng.uniform(-5, 5, size=9)
            labels = rng.choice(9, size=3, replace=False)
            y = np.zeros(9)
            y[labels] = 1.0
            s = 1.0 / (1.0 + np.exp(-z))
            naive = float(np.mean(-(y * np.log(s) + (1 - y) * np.log(1 - s))))
            assert bce_loss(z, labels, 9) == pytest.approx(naive, abs=1e-10)

    def test_gradient_zero_at_perfect_prediction(self):
        z = np.full(4, 40.0)
        z[0] = -40.0
        y = np.array([0.0, 1.0, 1.0, 1.0])
        assert np.linalg.norm(tr._bce_grad(z, y)) < 1e-6


class TestBackward:
    @pytest.mark.parametrize("head,out_dim", [("fc", 3), ("hrr", 8)])
    def test_full_parameter_gradients_match_finite_differences(self, head, out_dim):
        ds = dataio.synth_generate(6, 6, 3, labels_per_point=1, seed=7, noise=0.1)
        space = lb.make_label_space(3, out_dim, seed=8) if head == "hrr" else None
        model = tr.init_model(6, (4,), out_dim, head, seed=9)
        # Keep outputs away from the zero-statement point, where the
        # normalized loss is guarded but too curved for finite differences.
        model.biases[-1] += 0.1
        batch = ds

        def batch_loss():
            out, _ = tr._forward_sparse(model, batch)
            value, _, _ = tr._batch_loss_and_grad(model, batch, out, space)
            return value

        out, acts = tr._forward_sparse(model, batch)
        _, grad_out, _ = tr._batch_loss_and_grad(model, batch, out, space)
        grads_w, grads_b = tr._backward_sparse(model, batch, acts, grad_out)
        grads_w = dense_w1_grad(model, grads_w)
        h = 1e-6
        for params, grads in ((model.weights, grads_w), (model.biases, grads_b)):
            for p, g in zip(params, grads):
                flat_p = p.reshape(-1)
                flat_g = g.reshape(-1)
                fd = np.zeros_like(flat_g)
                for j in range(flat_p.size):
                    keep = flat_p[j]
                    flat_p[j] = keep + h
                    hi = batch_loss()
                    flat_p[j] = keep - h
                    lo = batch_loss()
                    flat_p[j] = keep
                    fd[j] = (hi - lo) / (2 * h)
                denom = max(np.linalg.norm(fd), 1e-12)
                assert np.linalg.norm(flat_g - fd) / denom < 1e-4

    @pytest.mark.parametrize("dropout", [0.0, 0.3])
    def test_cached_backward_equals_the_recompute_bit_for_bit(self, dropout):
        # A row without features makes the first pre-activation exactly the
        # bias, here 0, -0 and the smallest subnormal at three units.
        rows = [(ex.feat_idx, ex.feat_val, ex.labels) for ex in planted(24, seed=40).examples]
        batch = dataset_of(100, 20, rows + [([], [], [])])
        model = tr.init_model(100, (16, 12, 8), 20, "fc", seed=41)
        model.biases[0][:3] = [0.0, -0.0, 5e-324]
        out, acts = tr._forward_sparse(model, batch, dropout, np.random.default_rng(42))
        ref_out, ref_acts, ref_masks = ref._forward_sparse(
            model, batch, dropout, np.random.default_rng(42)
        )
        assert out.tobytes() == ref_out.tobytes()
        grad_out = np.random.default_rng(43).standard_normal(out.shape)
        grad_out[::5] = -0.0
        grads_w, grads_b = tr._backward_sparse(model, batch, acts, grad_out, dropout)
        ref_w, ref_b = ref._backward_sparse(model, batch, ref_acts, ref_masks, grad_out)
        assert grads_w[0].rows.tobytes() == ref_w[0].rows.tobytes()
        got = [grads_w[0].values, *grads_w[1:], *grads_b]
        want = [ref_w[0].values, *ref_w[1:], *ref_b]
        assert all(g.dtype == r.dtype and g.tobytes() == r.tobytes() for g, r in zip(got, want))

    def test_zero_output_gradient_gives_zero_parameter_gradient(self):
        ds = planted(4, seed=10)
        model = tr.init_model(100, (8,), 5, "fc", seed=11)
        out, acts = tr._forward_sparse(model, ds)
        grads_w, grads_b = tr._backward_sparse(model, ds, acts, np.zeros_like(out))
        grads_w = dense_w1_grad(model, grads_w)
        assert all(np.all(g == 0) for g in grads_w + grads_b)

    def test_row_sparse_w1_gradient_matches_per_row_outer_sum(self):
        ds = planted(24, seed=20, noise=0.3)
        model = tr.init_model(100, (16,), 20, "fc", seed=12)
        out, acts = tr._forward_sparse(model, ds)
        grad_out = np.random.default_rng(21).standard_normal(out.shape)
        grads_w, grads_b = tr._backward_sparse(model, ds, acts, grad_out)
        delta = (grad_out @ model.weights[1].T) * (acts[0] > 0)
        reference = np.zeros_like(model.weights[0])
        for row, ex in enumerate(ds.examples):
            reference[ex.feat_idx] += np.outer(ex.feat_val, delta[row])
        rows, values = grads_w[0]
        touched = np.unique(np.concatenate([ex.feat_idx for ex in ds.examples]))
        np.testing.assert_array_equal(rows, touched)
        np.testing.assert_allclose(values, reference[rows], rtol=1e-12, atol=1e-14)
        np.testing.assert_allclose(
            dense_w1_grad(model, grads_w)[0], reference, rtol=1e-12, atol=1e-14
        )
        np.testing.assert_allclose(grads_b[0], delta.sum(axis=0), rtol=1e-12)


def reference_bce_loss(logits, label_set, n_labels):
    """Per-example fc loss as it was before the batched path."""
    z = np.asarray(logits, dtype=np.float64)
    y = np.zeros(n_labels)
    y[np.asarray(list(label_set), dtype=np.int64)] = 1.0
    per = np.maximum(z, 0.0) - z * y + np.log1p(np.exp(-np.abs(z)))
    return float(per.mean())


def reference_bce_grad(logits, y):
    return (1.0 / (1.0 + np.exp(-logits)) - y) / logits.shape[-1]


def batch_with_unlabelled_row(n, seed):
    ds = planted(n, seed=seed, noise=0.2)
    return relabelled(ds, lambda i, labels: labels[:0] if i == 2 else labels)


class TestBatchedLoss:
    def test_fc_matches_per_example_reference(self):
        batch = batch_with_unlabelled_row(7, seed=22)
        model = tr.init_model(100, (8,), 20, "fc", seed=13)
        out, _ = tr._forward_sparse(model, batch)
        out *= 3.0  # spread the logits
        loss, grad, split = tr._batch_loss_and_grad(
            model, batch, out, None
        )
        losses, ref_grad = [], np.zeros_like(out)
        for row, ex in enumerate(batch.examples):
            if ex.labels.size == 0:
                continue
            y = np.zeros(20)
            y[ex.labels] = 1.0
            losses.append(reference_bce_loss(out[row], ex.labels, 20))
            ref_grad[row] = reference_bce_grad(out[row], y)
        assert split is None
        assert loss == pytest.approx(sum(losses) / len(losses), rel=1e-12)
        np.testing.assert_allclose(grad, ref_grad / len(losses), rtol=1e-12, atol=1e-16)
        assert np.all(grad[2] == 0.0)

    @pytest.mark.parametrize("precomputed", [False, True])
    def test_hrr_matches_per_example_loss(self, precomputed):
        batch = batch_with_unlabelled_row(7, seed=23)
        space = lb.make_label_space(20, 16, seed=14)
        model = tr.init_model(100, (8,), 16, "hrr", seed=15)
        model.biases[-1] += 0.1
        out, _ = tr._forward_sparse(model, batch)
        matrix = space.class_vectors(np.arange(20)) if precomputed else None
        loss, grad, (j_p, j_n) = tr._batch_loss_and_grad(
            model, batch, out, space, class_matrix=matrix
        )
        parts, ref_grad = [], np.zeros_like(out)
        for row, ex in enumerate(batch.examples):
            if ex.labels.size == 0:
                continue
            breakdown, ref_grad[row] = lb.loss_with_gradient(space, out[row], ex.labels)
            parts.append((breakdown.j_p, breakdown.j_n))
        ref_jp, ref_jn = np.mean(parts, axis=0)
        assert j_p == pytest.approx(ref_jp, rel=1e-12)
        assert j_n == pytest.approx(ref_jn, rel=1e-12, abs=1e-15)
        assert loss == j_p + j_n
        np.testing.assert_allclose(grad, ref_grad / len(parts), rtol=1e-10, atol=1e-14)
        assert np.all(grad[2] == 0.0)


def textbook_adam(params, grads, m, v, t, lr, b1, b2, eps, decay):
    """Kingma & Ba's update with L2 decay added to the dense gradient."""
    for p, g, mm, vv, wd in zip(params, grads, m, v, decay):
        g = g + wd * p
        mm[...] = b1 * mm + (1 - b1) * g
        vv[...] = b2 * vv + (1 - b2) * g * g
        mhat = mm / (1 - b1**t)
        vhat = vv / (1 - b2**t)
        p -= lr * mhat / (np.sqrt(vhat) + eps)


class UntiledAdam:
    """The fused Adam step as it was before it walked row tiles: each
    update a whole-parameter pass, with a work buffer the size of the
    largest parameter."""

    def __init__(self, params, lr, beta1, beta2, eps, decay):
        self.lr, self.b1, self.b2, self.eps = lr, beta1, beta2, eps
        self.decay = decay
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]
        self.work = np.empty(max(p.size for p in params))
        self.t = 0

    def step(self, params, grads):
        self.t += 1
        b1, b2 = self.b1, self.b2
        root_bc2 = np.sqrt(1.0 - b2**self.t)
        step = self.lr * root_bc2 / (1.0 - b1**self.t)
        eps_t = self.eps * root_bc2
        for p, g, m, v, decay in zip(params, grads, self.m, self.v, self.decay):
            buf = self.work[: p.size].reshape(p.shape)
            if isinstance(g, tr._RowGrad) and not decay:
                m *= b1
                m[g.rows] += (1.0 - b1) * g.values
                v *= b2
                v[g.rows] += (1.0 - b2) * np.square(g.values)
            else:
                if decay:
                    np.multiply(p, decay, out=buf)
                    if isinstance(g, tr._RowGrad):
                        buf[g.rows] += g.values
                    else:
                        buf += g
                    g = buf
                m -= g
                m *= b1
                m += g
                np.square(g, out=buf)
                buf *= 1.0 - b2
                v *= b2
                v += buf
            np.sqrt(v, out=buf)
            buf += eps_t
            np.divide(m, buf, out=buf)
            buf *= step
            p -= buf


def w1_rows(case, n_rows, span, rng):
    """Touched W1 rows for a case, given the rows per tile."""
    last = (n_rows - 1) // span * span
    picks = {
        "straddle": [span - 1, span, 2 * span - 1, 2 * span, last - 1, last],
        "first": list(range(0, min(span, n_rows), 2)),
        "last": list(range(last, n_rows, 2)),
        "empty": [],
        "random": rng.choice(n_rows, size=n_rows // 3, replace=False).tolist(),
    }[case]
    return np.unique(np.array(picks, dtype=np.int64))


class TestFusedAdam:
    @pytest.mark.parametrize("weight_decay", [0.0, 0.05])
    @pytest.mark.parametrize("sparse_w1", [False, True])
    def test_matches_textbook_update(self, weight_decay, sparse_w1):
        rng = np.random.default_rng(24)
        shapes = [(30, 6), (6, 4), (6,), (4,)]
        params = [rng.standard_normal(shape) for shape in shapes]
        start = [p.copy() for p in params]
        ref_params = [p.copy() for p in params]
        decay = [weight_decay, weight_decay, 0.0, 0.0]
        opt = tr._Adam(params, 1e-2, decay=decay)
        ref_m = [np.zeros(s) for s in shapes]
        ref_v = [np.zeros(s) for s in shapes]
        for t in range(1, 5):
            grads = [rng.standard_normal(shape) for shape in shapes]
            fed = list(grads)
            if sparse_w1:
                rows = np.sort(rng.choice(30, size=7, replace=False))
                grads[0] = np.zeros(shapes[0])
                grads[0][rows] = rng.standard_normal((7, 6))
                fed[0] = tr._RowGrad(rows, grads[0][rows].copy())
            opt.step(fed)
            textbook_adam(ref_params, grads, ref_m, ref_v, t, 1e-2, 0.9, 0.999, 1e-8, decay)
            pairs = [(p - p0, r - p0) for p, r, p0 in zip(params, ref_params, start)]
            pairs += list(zip(opt.m, ref_m)) + list(zip(opt.v, ref_v))
            for got, want in pairs:
                assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    @pytest.mark.parametrize("weight_decay", [0.0, 0.05])
    @pytest.mark.parametrize("w1_shape", [(43, 6), (7, 100)])
    @pytest.mark.parametrize("case", ["straddle", "first", "last", "empty", "random", "dense"])
    def test_tiled_step_is_bitwise_the_untiled_step(self, monkeypatch, case, w1_shape, weight_decay):
        # 64-element tiles: a 6-wide W1 takes 10 rows a tile, a 100-wide
        # row is wider than a tile, and the 150-long bias spans three tiles
        monkeypatch.setattr(tr, "_TILE", 64)
        rng = np.random.default_rng(31)
        shapes = [w1_shape, (5, 100), (6, 3), (150,), (3,)]
        params = [rng.standard_normal(shape) for shape in shapes]
        ref_params = [p.copy() for p in params]
        decay = [weight_decay, weight_decay, weight_decay, 0.0, weight_decay]
        hyper = dict(lr=1e-2, beta1=0.9, beta2=0.999, eps=1e-8, decay=decay)
        opt, ref = tr._Adam(params, hyper["lr"], decay), UntiledAdam(ref_params, **hyper)
        assert opt.work.size == max(min(np.prod(s), max(64, np.prod(s[1:]))) for s in shapes)
        span = max(1, 64 // w1_shape[1])
        for _ in range(4):
            grads = [rng.standard_normal(shape) for shape in shapes]
            dense = list(grads)
            if case != "dense":
                rows = w1_rows(case, w1_shape[0], span, rng)
                grads[0] = tr._RowGrad(rows, rng.standard_normal((rows.size, w1_shape[1])))
                dense[0] = np.zeros(w1_shape)
                dense[0][rows] = grads[0].values
            norm = opt.step(grads)
            ref.step(ref_params, grads)
            for got, want in zip(params + opt.m + opt.v, ref_params + ref.m + ref.v):
                assert np.array_equal(got, want)
            flat = np.concatenate([g.ravel() for g in dense])
            assert norm == pytest.approx(np.linalg.norm(flat), rel=1e-12)

    def test_step_memory_does_not_scale_with_the_largest_parameter(self):
        # Bound fixed before measuring: under 1 MB above the step's inputs.
        # An untiled step holds a work buffer the size of W1 (82 MB here)
        # and makes whole-gradient temporaries (about 10 MB at its peak).
        rng = np.random.default_rng(5)
        params = [rng.standard_normal((20_000, 512)), np.zeros(512)]
        opt = tr._Adam(params, 1e-3, decay=[0.0, 0.0])
        assert opt.work.nbytes <= 8 * max(tr._TILE, 512)
        assert opt.spare.nbytes == opt.work.nbytes
        rows = np.sort(rng.choice(20_000, size=1_200, replace=False))
        grads = [tr._RowGrad(rows, rng.standard_normal((1_200, 512))), np.ones(512)]
        with concurrent.futures.ThreadPoolExecutor(1) as pool:
            pool.submit(int).result()  # the worker thread exists before tracing starts
            for executor in (tr._INLINE, pool):
                tracemalloc.start()
                try:
                    base = tracemalloc.get_traced_memory()[0]
                    tracemalloc.reset_peak()
                    opt.step(grads, executor)
                    peak = tracemalloc.get_traced_memory()[1] - base
                finally:
                    tracemalloc.stop()
                assert peak < 1_000_000

    def test_work_buffer_is_preallocated_once(self):
        params = [np.ones((5, 3)), np.ones(3)]
        opt = tr._Adam(params, 1e-3, decay=[0.1, 0.0])
        work, spare = opt.work, opt.spare
        assert work.size == spare.size == 15
        with concurrent.futures.ThreadPoolExecutor(1) as pool:
            for executor in (tr._INLINE, pool):
                for _ in range(3):
                    grads = [tr._RowGrad(np.array([1, 4]), np.ones((2, 3))), np.ones(3)]
                    opt.step(grads, executor)
        assert opt.work is work and opt.spare is spare


class TestTraining:
    def test_hrr_head_learns_planted_data(self):
        ds = planted(2000, seed=11)
        test = planted(400, seed=12)
        space = lb.make_label_space(20, 64, seed=3)
        model = tr.init_model(100, (64, 64), 64, "hrr", seed=5)
        model, stats = tr.train(model, ds, tr.TrainConfig(epochs=20, seed=5), space=space)
        assert p_at_1(model, test, space) >= 0.9
        assert stats[-1].mean_loss < stats[0].mean_loss

    def test_fc_head_learns_planted_data(self):
        ds = planted(1000, seed=13)
        model = tr.init_model(100, (32, 32), 20, "fc", seed=6)
        model, _ = tr.train(model, ds, tr.TrainConfig(epochs=10, seed=6))
        assert p_at_1(model, planted(200, seed=14)) >= 0.9

    # each head's schedule from its learns_planted_data test above
    @pytest.mark.parametrize(
        "head,n_train,seed,hidden,epochs", [("fc", 1000, 13, 32, 10), ("hrr", 2000, 11, 64, 20)]
    )
    def test_dropout_with_weight_decay_learns_and_is_reproducible(
        self, tmp_path, head, n_train, seed, hidden, epochs
    ):
        # Floor fixed before measuring: P@1 >= 0.8, under the 0.9 that the
        # same data and schedule reach without dropout.
        ds, test = planted(n_train, seed=seed), planted(n_train // 5, seed=seed + 1)
        space = lb.make_label_space(20, 64, seed=3) if head == "hrr" else None
        blobs = []
        for dropout in (0.2, 0.2, 0.0):
            model = tr.init_model(100, (hidden, hidden), 64 if space else 20, head, seed=6)
            config = tr.TrainConfig(epochs=epochs, weight_decay=1e-4, dropout=dropout, seed=6)
            model, stats = tr.train(model, ds, config, space=space)
            path = tmp_path / f"{head}-{len(blobs)}.ckpt"
            tr.save_checkpoint(model, path, space=space)
            blobs.append(path.read_bytes())
            if len(blobs) == 1:
                assert p_at_1(model, test, space) >= 0.8
                assert stats[-1].mean_loss < stats[0].mean_loss
        assert blobs[0] == blobs[1]
        assert blobs[0] != blobs[2]

    def test_zero_learning_rate_leaves_parameters_untouched(self):
        ds = planted(64, seed=15)
        model = tr.init_model(100, (8,), 20, "fc", seed=7)
        before = model_params_bytes(model)
        tr.train(model, ds, tr.TrainConfig(epochs=2, lr=0.0, seed=7))
        assert model_params_bytes(model) == before

    def test_same_seed_is_bit_reproducible(self):
        ds = planted(256, seed=16)
        runs = []
        for _ in range(2):
            model = tr.init_model(100, (16,), 20, "fc", seed=8)
            tr.train(model, ds, tr.TrainConfig(epochs=3, seed=8))
            runs.append(model_params_bytes(model))
        assert runs[0] == runs[1]

    def test_loss_nonincreasing_over_epochs_most_seeds(self):
        good = 0
        for seed in range(10):
            ds = dataio.synth_generate(512, 40, 8, labels_per_point=1, seed=seed, noise=0.05)
            space = lb.make_label_space(8, 32, seed=seed)
            model = tr.init_model(40, (16,), 32, "hrr", seed=seed)
            _, stats = tr.train(model, ds, tr.TrainConfig(epochs=6, seed=seed), space=space)
            losses = [s.mean_loss for s in stats]
            good += all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))
        assert good >= 9

    def test_divergence_raises_dedicated_error(self):
        ds = planted(32, seed=17)
        poisoned = dataset_of(
            ds.n_features, ds.n_labels,
            (
                (ex.feat_idx, np.where(ex.feat_val > 0, 1e308, 0.0), ex.labels)
                for ex in ds.examples
            ),
        )
        model = tr.init_model(100, (8,), 20, "fc", seed=9)
        with np.errstate(invalid="ignore", over="ignore"), pytest.raises(tr.TrainingDivergedError):
            tr.train(model, poisoned, tr.TrainConfig(epochs=1, seed=9))

    @pytest.mark.parametrize("n_classes", [10, 30])
    def test_hrr_label_space_must_match_the_dataset_labels(self, n_classes):
        ds = planted(16, seed=39)  # 20 labels
        space = lb.make_label_space(n_classes, 32, seed=39)
        model = tr.init_model(100, (8,), 32, "hrr", seed=39)
        before = model_params_bytes(model)
        message = f"dataset has 20 labels, label space has {n_classes} classes"
        with pytest.raises(ValueError, match=message):
            tr.train(model, ds, tr.TrainConfig(epochs=1, seed=39), space=space)
        assert model_params_bytes(model) == before

    @pytest.mark.parametrize(
        "head, shape, message",
        [
            ("fc", (200, 20), "validation set has 200 features, model input has 100"),
            ("hrr", (200, 20), "validation set has 200 features, model input has 100"),
            ("fc", (100, 30), "validation set has 30 labels, model outputs 20"),
            ("hrr", (100, 30), "validation set has 30 labels, label space has 20 classes"),
        ],
    )
    def test_validation_set_must_match_the_model_and_labels(self, head, shape, message):
        ds = planted(16, seed=40)  # 100 features, 20 labels
        val = dataio.synth_generate(8, *shape, labels_per_point=2, seed=41)
        space = lb.make_label_space(20, 32, seed=40) if head == "hrr" else None
        model = tr.init_model(100, (8,), 32 if head == "hrr" else 20, head, seed=40)
        before = model_params_bytes(model)
        with pytest.raises(ValueError, match=message):
            tr.train(model, ds, tr.TrainConfig(epochs=1, seed=40), space=space, val_dataset=val)
        assert model_params_bytes(model) == before

    @pytest.mark.parametrize(
        "space, message",
        [
            (None, "the hrr head requires a LabelSpace"),
            (lb.make_label_space(20, 16, seed=43), "label space dim 16 != model output 32"),
        ],
    )
    def test_hrr_dataset_check_needs_a_space_of_the_output_dim(self, space, message):
        model = tr.init_model(100, (8,), 32, "hrr", seed=43)
        with pytest.raises(ValueError) as info:
            tr.check_dataset(model, planted(4, seed=43), space)
        assert str(info.value) == message

    def test_fc_training_refuses_a_label_space(self):
        model = tr.init_model(40, (16,), 8, "fc", seed=1)
        ds = dataio.synth_generate(32, 40, 8, labels_per_point=1, seed=1)
        before = model_params_bytes(model)
        with pytest.raises(ValueError) as info:
            tr.train(model, ds, tr.TrainConfig(epochs=1, seed=1), space=lb.make_label_space(8, 16, 1))
        assert str(info.value) == "the fc head takes no LabelSpace"
        assert model_params_bytes(model) == before

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"epochs": 1.0}, "epochs must be an integer, got 1.0"),
            ({"epochs": True}, "epochs must be an integer, got True"),
            ({"epochs": 1, "batch_size": 16.0}, "batch_size must be an integer, got 16.0"),
            ({"epochs": 1, "batch_size": True}, "batch_size must be an integer, got True"),
            ({"epochs": -1}, "epochs must be >= 0, got -1"),
            ({"epochs": 1, "batch_size": 0}, "batch_size must be >= 1, got 0"),
            # seed 1.5 trained exactly as seed 1, and lr=True at 1.0
            ({"epochs": 1, "seed": 1.5}, "seed must be an integer, got 1.5"),
            ({"epochs": 1, "seed": True}, "seed must be an integer, got True"),
            ({"epochs": 1, "lr": True}, "lr must be a finite number, got True"),
            ({"epochs": 1, "lr": float("inf")}, "lr must be a finite number, got inf"),
            ({"epochs": 1, "lr": float("nan")}, "lr must be a finite number, got nan"),
            ({"epochs": 1, "lr": "0.1"}, "lr must be a finite number, got '0.1'"),
            ({"epochs": 1, "weight_decay": False}, "weight_decay must be a finite number, got False"),
            ({"epochs": 1, "weight_decay": float("inf")}, "weight_decay must be a finite number, got inf"),
            ({"epochs": 1, "lr": -0.5}, "lr must be >= 0.0, got -0.5"),
            # dropout=False trained as 0.0
            ({"epochs": 1, "dropout": False}, "dropout must be a finite number, got False"),
            ({"epochs": 1, "dropout": True}, "dropout must be a finite number, got True"),
            ({"epochs": 1, "dropout": "0.1"}, "dropout must be a finite number, got '0.1'"),
            ({"epochs": 1, "dropout": 1.0}, "dropout must be in [0, 1), got 1.0"),
        ],
    )
    def test_config_counts_must_be_integers_in_range(self, fields, message):
        with pytest.raises(ValueError) as info:
            tr.TrainConfig(**fields)
        assert str(info.value) == message

    def test_config_takes_integer_rates_numpy_floats_and_negative_seeds(self):
        config = tr.TrainConfig(epochs=1, lr=1, weight_decay=np.float64(0.5), seed=-3)
        assert (config.lr, config.weight_decay, config.seed) == (1, 0.5, -3)

    @pytest.mark.parametrize("head", ["fc", "hrr"])
    def test_training_set_must_have_the_model_features(self, head):
        ds = dataio.synth_generate(16, 40, 20, labels_per_point=2, seed=42)
        space = lb.make_label_space(20, 32, seed=42) if head == "hrr" else None
        model = tr.init_model(100, (8,), 32 if head == "hrr" else 20, head, seed=42)
        with pytest.raises(ValueError, match="dataset has 40 features, model input has 100"):
            tr.train(model, ds, tr.TrainConfig(epochs=1, seed=42), space=space)

    def test_class_vectors_unchanged_by_training(self):
        ds = planted(128, seed=18)
        space = lb.make_label_space(20, 32, seed=10)
        before = space.class_vectors(np.arange(20)).tobytes()
        model = tr.init_model(100, (8,), 32, "hrr", seed=10)
        tr.train(model, ds, tr.TrainConfig(epochs=2, seed=10), space=space)
        after = space.class_vectors(np.arange(20)).tobytes()
        assert before == after

    @pytest.mark.parametrize("head,out_dim", [("fc", 20), ("hrr", 32)])
    def test_epoch_stats_carry_phase_timings_and_loss_split(self, head, out_dim):
        ds = planted(96, seed=25)
        space = lb.make_label_space(20, out_dim, seed=11) if head == "hrr" else None
        model = tr.init_model(100, (8,), out_dim, head, seed=11)
        _, stats = tr.train(
            model, ds, tr.TrainConfig(epochs=2, batch_size=32, seed=11),
            space=space, val_dataset=planted(16, seed=26),
        )
        for s in stats:
            phases = (s.forward_s, s.loss_s, s.backward_s, s.optimizer_s, s.eval_s)
            assert all(p > 0.0 for p in phases)
            assert sum(phases) <= s.seconds
            assert s.examples_per_s > 0.0
            if head == "hrr":
                assert abs(s.j_p + s.j_n - s.mean_loss) <= 1e-12
            else:
                assert s.j_p is None and s.j_n is None

    @pytest.mark.parametrize("head,out_dim", [("fc", 20), ("hrr", 32)])
    def test_grad_norm_is_the_mean_dense_gradient_norm(self, head, out_dim):
        # lr=0 keeps the weights fixed, so each batch's gradient can be
        # taken again here, scattered to dense, from the same shuffle
        ds = planted(80, seed=27)
        space = lb.make_label_space(20, out_dim, seed=12) if head == "hrr" else None
        model = tr.init_model(100, (8,), out_dim, head, seed=12)
        config = tr.TrainConfig(epochs=1, batch_size=32, lr=0.0, seed=12)
        _, stats = tr.train(model, ds, config, space=space)
        order = np.random.Generator(np.random.PCG64(mix64(12, 0xE90C))).permutation(80)
        norms = []
        for lo in range(0, 80, 32):
            batch = ds.take(order[lo : lo + 32])
            out, acts = tr._forward_sparse(model, batch)
            _, grad_out, _ = tr._batch_loss_and_grad(model, batch, out, space)
            grads_w, grads_b = tr._backward_sparse(model, batch, acts, grad_out)
            flat = np.concatenate([g.ravel() for g in dense_w1_grad(model, grads_w) + grads_b])
            norms.append(np.linalg.norm(flat))
        assert len(norms) == 3 and min(norms) > 0.0
        assert stats[0].grad_norm == pytest.approx(np.mean(norms), rel=1e-12)


TIMINGS = {
    "seconds", "forward_s", "loss_s", "backward_s", "optimizer_s", "eval_s", "examples_per_s"
}


def blas_env(monkeypatch, openblas, omp):
    """Set (a count) or unset (None) the two BLAS thread-count variables."""
    for name, value in (("OPENBLAS_NUM_THREADS", openblas), ("OMP_NUM_THREADS", omp)):
        if value is None:
            monkeypatch.delenv(name, raising=False)
        else:
            monkeypatch.setenv(name, value)


def record_touched_threads(monkeypatch):
    """Wrap trainer._touched, which the step submits first; returns the
    threads it ran on."""
    ran_on, touched = set(), tr._touched

    def recorded(batch):
        ran_on.add(threading.current_thread())
        return touched(batch)

    monkeypatch.setattr(tr, "_touched", recorded)
    return ran_on


class TestTwoCoreStep:
    @pytest.mark.parametrize("dropout,weight_decay", [(0.0, 0.0), (0.2, 1e-4)])
    @pytest.mark.parametrize("head,out_dim", [("fc", 20), ("hrr", 64)])
    def test_worker_and_inline_steps_give_the_same_bytes(
        self, tmp_path, monkeypatch, head, out_dim, dropout, weight_decay
    ):
        # 64-element tiles, so that W1 (100 x 32) has 50 tiles to share
        monkeypatch.setattr(tr, "_TILE", 64)
        ds, val = planted(300, seed=50), planted(60, seed=51)
        space = lb.make_label_space(20, out_dim, seed=52) if head == "hrr" else None
        config = tr.TrainConfig(
            epochs=2, batch_size=32, dropout=dropout, weight_decay=weight_decay, seed=53
        )
        runs = []
        # (usable CPUs, OPENBLAS_NUM_THREADS, OMP_NUM_THREADS, worker expected)
        modes = [(2, "1", None, True), (2, None, "1", True), (1, "1", None, False),
                 (2, None, None, False), (2, "2", "1", False)]
        for cpus, openblas, omp, worker in modes:
            monkeypatch.setattr(seeds, "_usable_cpus", lambda: cpus)
            blas_env(monkeypatch, openblas, omp)
            ran_on = record_touched_threads(monkeypatch)
            model = tr.init_model(100, (32, 16), out_dim, head, seed=54)
            model, stats = tr.train(model, ds, config, space=space, val_dataset=val)
            assert (threading.main_thread() not in ran_on) == worker
            path = tmp_path / f"{len(runs)}.ckpt"
            tr.save_checkpoint(model, path, space=space)
            report = metrics.metric_report(tr.predict_rankings(model, val, space, k=3), val)
            untimed = [
                {k: v for k, v in dataclasses.asdict(s).items() if k not in TIMINGS} for s in stats
            ]
            runs.append((path.read_bytes(), json.dumps(untimed), json.dumps(report)))
        assert all(run == runs[0] for run in runs[1:])

    @pytest.mark.parametrize("weight_decay", [0.0, 0.05])
    @pytest.mark.parametrize("case", ["random", "dense"])
    def test_tiles_on_two_threads_are_bitwise_the_untiled_step(
        self, monkeypatch, case, weight_decay
    ):
        monkeypatch.setattr(tr, "_TILE", 64)
        rng = np.random.default_rng(55)
        shapes = [(430, 6), (5, 100), (150,), (3,)]
        params = [rng.standard_normal(shape) for shape in shapes]
        ref_params, inline_params = [p.copy() for p in params], [p.copy() for p in params]
        decay = [weight_decay, weight_decay, 0.0, weight_decay]
        hyper = dict(lr=1e-2, beta1=0.9, beta2=0.999, eps=1e-8, decay=decay)
        opt, ref = tr._Adam(params, hyper["lr"], decay), UntiledAdam(ref_params, **hyper)
        inline = tr._Adam(inline_params, hyper["lr"], decay)
        owners = {}  # W1's tile index -> the thread that updated it, this step
        hooks, update = {}, opt._update  # a job's id -> its hooked counter, this step

        class BothThreads:
            # Job i's counter. After its first tile each thread waits at a
            # barrier for the other's, so both threads update some of a
            # parameter's tiles.
            def __init__(self, i, tiles):
                self.i, self.tiles = i, tiles
                self.barrier, self.seen = threading.Barrier(2, timeout=10), threading.local()

            def __iter__(self):
                return self

            def __next__(self):
                k = next(self.tiles)
                if self.i == 0 and k < 43:
                    owners[k] = threading.current_thread()
                if not getattr(self.seen, "first", False):
                    self.seen.first = True
                    self.barrier.wait()
                return k

        def hooked(job, work):
            i, grad, cuts, tiles = job  # both threads get one job, so one hook
            return update((i, grad, cuts, hooks.setdefault(id(job), BothThreads(i, tiles))), work)

        opt._update = hooked
        with concurrent.futures.ThreadPoolExecutor(1) as pool:
            for _ in range(4):
                grads = [rng.standard_normal(shape) for shape in shapes]
                if case != "dense":
                    rows = w1_rows(case, shapes[0][0], 64 // shapes[0][1], rng)
                    grads[0] = tr._RowGrad(rows, rng.standard_normal((rows.size, shapes[0][1])))
                owners.clear()
                hooks.clear()
                norm = opt.step(grads, pool)
                assert len(owners) == 43 and len(set(owners.values())) == 2
                ref.step(ref_params, grads)
                assert norm == inline.step(grads)
                for got, want in zip(params + opt.m + opt.v, ref_params + ref.m + ref.v):
                    assert np.array_equal(got, want)

    def test_one_counter_hands_out_each_tile_once_under_contention(self, monkeypatch):
        monkeypatch.setattr(tr, "_TILE", 64)
        params = [np.zeros((4000, 2))]  # 32 rows a tile: 125 tiles
        opt = tr._Adam(params, 1e-3, [0.0])
        opt.begin(tr._INLINE)
        taken = [[] for _ in range(4)]  # four threads, more than a 2-CPU runner has cores
        counter, mine = itertools.count(), threading.local()

        class Recorded:  # the job's counter, noting each index in its thread's list
            def __iter__(self):
                return self

            def __next__(self):
                mine.out.append(next(counter))
                return mine.out[-1]

        job = (0, np.zeros((4000, 2)), None, Recorded())

        def take(out):
            mine.out = out
            opt._update(job, np.empty(opt.work.size))

        threads = [threading.Thread(target=take, args=(out,), daemon=True) for out in taken]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        # each tile once, and each thread stops at its first index past the end
        assert sorted(k for out in taken for k in out) == list(range(125 + 4))
        assert all(max(out) >= 125 > max(out[:-1], default=-1) for out in taken)
        assert sorted(opt.sq) == [(0, k) for k in range(125)]

    @pytest.mark.parametrize("worker", [False, True])
    def test_a_finished_step_keeps_no_gradient_and_no_cycle(self, worker):
        # A cycle through the step's pending updates kept each training
        # run's Adam moments alive until a full collection, and gradients
        # kept past their step sat beside the next step's in peak memory.
        params = [np.ones((5, 3)), np.ones(3)]
        opt = tr._Adam(params, 1e-3, [0.0, 0.0])
        grads = [tr._RowGrad(np.array([1, 4]), np.ones((2, 3))), np.ones(3)]
        held = [weakref.ref(grads[0].values), weakref.ref(grads[1])]
        gc.disable()
        try:
            with concurrent.futures.ThreadPoolExecutor(1) as pool:
                opt.step(grads, pool if worker else tr._INLINE)
            del grads
            assert [ref() for ref in held] == [None, None]
            freed = weakref.ref(opt)
            del opt
            assert freed() is None
        finally:
            gc.enable()

    @pytest.mark.parametrize("site", ["touched", "update"])
    def test_a_worker_error_surfaces_at_its_batch(self, monkeypatch, site):
        monkeypatch.setattr(seeds, "_usable_cpus", lambda: 2)
        blas_env(monkeypatch, "1", None)
        forwards, failed_on = [], []
        forward, touched, update = tr._forward_sparse, tr._touched, tr._Adam._update

        def counted(*args):
            forwards.append(len(forwards))
            return forward(*args)

        def failing_touched(batch):
            if len(forwards) == 3:  # batch 2's, submitted after its forward pass
                failed_on.append(threading.current_thread())
                raise RuntimeError("worker failed")
            return touched(batch)

        def failing_update(opt, job, work):
            # batch 2's W2 update, queued on the worker behind backward
            if opt.t == 3 and job[0] == 1 and threading.current_thread() is not threading.main_thread():
                failed_on.append(threading.current_thread())
                raise RuntimeError("worker failed")
            return update(opt, job, work)

        monkeypatch.setattr(tr, "_forward_sparse", counted)
        if site == "touched":
            monkeypatch.setattr(tr, "_touched", failing_touched)
        else:
            monkeypatch.setattr(tr._Adam, "_update", failing_update)
        model = tr.init_model(100, (16, 8), 20, "fc", seed=56)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="worker failed"):
            tr.train(model, planted(256, seed=57), tr.TrainConfig(epochs=1, batch_size=32, seed=56))
        assert threading.active_count() == before
        assert failed_on and threading.main_thread() not in failed_on
        assert len(forwards) == 3  # no batch after the one that made the error

    @pytest.mark.parametrize(
        "openblas,omp", [("2", None), (None, "2"), ("2", "1"), (None, None), ("0", "2")]
    )
    def test_no_worker_with_blas_on_more_than_one_thread(self, monkeypatch, openblas, omp):
        monkeypatch.setattr(seeds, "_usable_cpus", lambda: 2)
        blas_env(monkeypatch, openblas, omp)
        ran_on = record_touched_threads(monkeypatch)
        before = threading.active_count()
        counts, forward = [], tr._forward_sparse

        def counted(*args):
            counts.append(threading.active_count())
            return forward(*args)

        monkeypatch.setattr(tr, "_forward_sparse", counted)
        model = tr.init_model(100, (16,), 20, "fc", seed=58)
        tr.train(model, planted(96, seed=59), tr.TrainConfig(epochs=1, batch_size=32, seed=58))
        assert ran_on == {threading.main_thread()}
        assert counts == [before] * 3


def dense_rankings(model, dataset, space=None, k=5):
    """The dense (n x L) float64 score matrix and one full stable argsort
    of it, the ranking predict_rankings keeps without making the matrix."""
    outs = []
    batchsize = 256
    for lo in range(0, dataset.n_examples, batchsize):
        rows = dataset.examples[lo : lo + batchsize]
        batch = dataset_of(dataset.n_features, dataset.n_labels, rows)
        out, _ = tr._forward_sparse(model, batch)
        outs.append(out)
    out = np.concatenate(outs) if outs else np.zeros((0, model.out_dim))
    if model.head == "fc":
        scores = out
    else:
        queries = core.unbind(out, space.p)
        scores = np.empty((dataset.n_examples, space.n_classes))
        for start, rows in space.iter_class_blocks():
            scores[:, start : start + rows.shape[0]] = queries @ rows.T
    k = min(k, scores.shape[1])
    order = np.argsort(-scores, axis=1, kind="stable")
    return [row[:k].tolist() for row in order]


def old_val_p1(rankings, dataset):
    """The validation P@1 loop that train used before metric_report."""
    hits = [
        1.0 if r[0] in set(ex.labels.tolist()) else 0.0
        for r, ex in zip(rankings, dataset.examples)
        if ex.labels.size
    ]
    return float(np.mean(hits)) if hits else None


def assert_int_rankings(rankings, n, k):
    assert isinstance(rankings, list) and len(rankings) == n
    for row in rankings:
        assert isinstance(row, list) and len(row) == k
        assert all(type(i) is int for i in row)


class TestPredictRankings:
    @pytest.mark.parametrize("k", [1, 5, 25])
    def test_fc_head_matches_dense_argsort(self, k):
        ds = planted(300, seed=30)
        model = tr.init_model(100, (8,), 20, "fc", seed=30)
        got = tr.predict_rankings(model, ds, k=k)
        assert got == dense_rankings(model, ds, k=k)
        assert_int_rankings(got, 300, min(k, 20))

    def test_fc_head_exact_ties_break_toward_lower_index(self):
        ds = planted(40, seed=31)
        model = tr.init_model(100, (8,), 20, "fc", seed=31)
        model.weights[-1][:] = 0.0
        model.biases[-1][:] = np.arange(20) % 3  # every row: 2 at 2, 5, 8, ...
        got = tr.predict_rankings(model, ds, k=5)
        assert got == dense_rankings(model, ds, k=5)
        assert got[0] == [2, 5, 8, 11, 14]

    @pytest.mark.parametrize("k", [1, 5, 700])
    def test_hrr_head_over_three_class_blocks_matches_dense_argsort(self, k):
        n_labels = 2 * lb._CLASS_BLOCK + 300
        ds = dataio.synth_generate(300, n_labels, n_labels, 3, seed=32, noise=0.1)
        space = lb.make_label_space(n_labels, 24, seed=32)
        model = tr.init_model(n_labels, (8,), 24, "hrr", seed=32)
        got = tr.predict_rankings(model, ds, space=space, k=k)
        assert got == dense_rankings(model, ds, space=space, k=k)
        assert_int_rankings(got, 300, k)

    @pytest.mark.parametrize("head", ["fc", "hrr"])
    def test_trained_heads_match_dense_argsort(self, head):
        # trained output layers (the fc biases no longer zero), two class
        # blocks, and k deep into the ranking
        n_labels = lb._CLASS_BLOCK + 300
        ds = dataio.synth_generate(600, n_labels, n_labels, 3, seed=48, noise=0.1)
        space = lb.make_label_space(n_labels, 48, seed=48) if head == "hrr" else None
        model = tr.init_model(n_labels, (32,), 48 if head == "hrr" else n_labels, head, seed=48)
        model, _ = tr.train(model, ds, tr.TrainConfig(epochs=3, seed=48), space=space)
        for k in (1, 5, 600):
            got = tr.predict_rankings(model, ds, space=space, k=k)
            assert got == dense_rankings(model, ds, space=space, k=k)

    def test_empty_dataset(self):
        ds = dataio.SparseDataset(100, 20, [0], [], [], [0], [])
        model = tr.init_model(100, (8,), 32, "hrr", seed=33)
        space = lb.make_label_space(20, 32, seed=33)
        assert tr.predict_rankings(model, ds, space=space, k=3) == []
        fc = tr.init_model(100, (8,), 20, "fc", seed=33)
        assert tr.predict_rankings(fc, ds, k=3) == []

    def test_hrr_class_producer_runs_beside_the_forward_pass_and_stops(self, monkeypatch):
        monkeypatch.setattr(seeds, "_usable_cpus", lambda: 2)
        n_labels = 3 * lb._CLASS_BLOCK
        ds = dataio.synth_generate(300, n_labels, n_labels, 3, seed=46, noise=0.1)
        space = lb.make_label_space(n_labels, 24, seed=46)
        model = tr.init_model(n_labels, (8,), 24, "hrr", seed=46)
        want = dense_rankings(model, ds, space=space, k=5)
        before, during, forward = threading.active_count(), [], tr._forward_sparse

        def counted(m, chunk):
            during.append(threading.active_count())
            return forward(m, chunk)

        monkeypatch.setattr(tr, "_forward_sparse", counted)
        assert tr.predict_rankings(model, ds, space=space, k=5) == want
        assert during == [before + 1] * 2  # two 256-row chunks, the producer already running
        assert threading.active_count() == before

    def test_hrr_class_producer_stops_when_decoding_raises(self, monkeypatch):
        monkeypatch.setattr(seeds, "_usable_cpus", lambda: 2)
        n_labels = 3 * lb._CLASS_BLOCK
        ds = dataio.synth_generate(40, n_labels, n_labels, 3, seed=47, noise=0.1)
        space = lb.make_label_space(n_labels, 24, seed=47)
        model = tr.init_model(n_labels, (8,), 24, "hrr", seed=47)
        before = threading.active_count()

        def failing_forward(m, chunk):
            raise RuntimeError("forward failed")

        def failing_screen(queries, blocks, k):
            next(blocks)  # leaves blocks unread, the next ones made or in the making
            raise RuntimeError("screen failed")

        for name, fake, module in (("_forward_sparse", failing_forward, tr),
                                   ("screened_topk", failing_screen, lb)):
            with monkeypatch.context() as patch:
                patch.setattr(module, name, fake)
                with pytest.raises(RuntimeError, match="failed") as info:
                    tr.predict_rankings(model, ds, space=space, k=5)
            # the traceback keeps predict_rankings' frame, and so the iterator, alive
            assert info.tb is not None and threading.active_count() == before

    def test_fc_chunked_ranking_equals_one_stable_argsort_of_the_chunk_logits(self):
        # 600 rows: two full 256-row chunks and a part chunk. Columns 150-299
        # repeat columns 0-149 bit for bit, so every row's scores come in
        # exact ties, also at its k-th place; column 300 is NaN in every row.
        # Row 256 repeats row 255, one on each side of the first chunk edge,
        # and row 300 alone has feature 100, whose weights are NaN, so all
        # its logits are NaN.
        base = planted(600, seed=39).take(np.r_[0:256, 255, 257:600])
        ds = dataset_of(101, base.n_labels, (
            (np.append(ex.feat_idx, 100) if row == 300 else ex.feat_idx,
             np.append(ex.feat_val, 1.0) if row == 300 else ex.feat_val, ex.labels)
            for row, ex in enumerate(base.examples)
        ))
        model = tr.init_model(101, (8,), 301, "fc", seed=39)
        model.weights[0][100] = np.nan
        model.weights[-1][:, 150:300] = model.weights[-1][:, :150]
        model.biases[-1][:] = np.linspace(-1.0, 1.0, 301)
        model.biases[-1][150:300] = model.biases[-1][:150]
        model.weights[-1][:, 300] = np.nan
        logits = np.concatenate(
            [tr._forward_sparse(model, ds.take(slice(lo, lo + 256)))[0] for lo in (0, 256, 512)]
        )
        assert np.array_equal(logits[:, :150], logits[:, 150:300], equal_nan=True)
        assert np.isnan(logits[300]).all() and not np.isnan(logits[:300, :300]).any()
        for k in (1, 5, 40):
            got = tr.predict_rankings(model, ds, k=k)
            assert got == np.argsort(-logits, axis=1, kind="stable")[:, :k].tolist()
            assert_int_rankings(got, 600, k)
            assert got[255] == got[256]
            assert got[300] == list(range(k))
            if k % 2:  # the k-th label's tie partner is left out
                assert got[0][-1] < 150 and got[0][-1] + 150 not in got[0]
        top = got[0][:2]
        assert top[1] == top[0] + 150  # a tie ranks the lower index first

    def test_fc_peak_memory_is_the_queries_and_one_class_block(self):
        n, n_labels, k, hidden = 1024, 30_938, 5, 64
        ds = dataio.synth_generate(n, n_labels, n_labels, 1, seed=40)
        model = tr.init_model(n_labels, (hidden,), n_labels, "fc", seed=40)
        # Stated before measuring: the n x (h + 1) queries [a | 1], their
        # float32 copy and the squares their norms are summed from (under
        # 3 * n * (h + 1) * 8 bytes), one block's n x 512 float32 scores and
        # drop mask (under 2 * n * 512 * 8), the n x k rankings as Python
        # lists (under 256 bytes a row), and 4 MiB for a chunk's inputs, one
        # block of [W_out^T | b_out] and the rescoring gathers. Ranking each
        # 256-row chunk's logits took 2 * 256 * L * 8 bytes, and joining
        # every chunk's 2 * n * L * 8.
        bound = 3 * n * (hidden + 1) * 8 + 2 * n * lb._CLASS_BLOCK * 8 + n * 256 + 4 * 2**20
        assert bound < 256 * n_labels * 8 / 4  # well below one chunk of logits
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            rankings = tr.predict_rankings(model, ds, k=k)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert len(rankings) == n
        assert peak < bound

    def test_hrr_peak_memory_stays_far_below_a_dense_score_matrix(self):
        n, n_labels = 512, 4096
        ds = dataio.synth_generate(n, n_labels, n_labels, 1, seed=34)
        space = lb.make_label_space(n_labels, 32, seed=34)
        model = tr.init_model(n_labels, (16,), 32, "hrr", seed=34)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            tr.predict_rankings(model, ds, space=space, k=5)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        # the dense path held the scores, their negation and the argsort:
        # about 3 * n * L * 8 bytes
        assert peak < n * n_labels * 8 / 4

    @pytest.mark.parametrize("head,out_dim", [("fc", 20), ("hrr", 32)])
    def test_validation_p1_matches_old_loop_with_unlabelled_example(self, head, out_dim):
        ds = planted(128, seed=35)
        val = relabelled(planted(30, seed=36), lambda i, labels: labels[:0] if i == 4 else labels)
        space = lb.make_label_space(20, out_dim, seed=35) if head == "hrr" else None
        model = tr.init_model(100, (8,), out_dim, head, seed=35)
        model, stats = tr.train(
            model, ds, tr.TrainConfig(epochs=1, seed=35), space=space, val_dataset=val
        )
        rankings = tr.predict_rankings(model, val, space=space, k=1)
        assert stats[-1].val_p1 == old_val_p1(rankings, val)
        assert stats[-1].val_p1 is not None

    def test_validation_p1_is_none_without_labelled_examples(self):
        ds = planted(64, seed=37)
        val = relabelled(planted(5, seed=38), lambda i, labels: labels[:0])
        model = tr.init_model(100, (8,), 20, "fc", seed=37)
        _, stats = tr.train(model, ds, tr.TrainConfig(epochs=1, seed=37), val_dataset=val)
        assert stats[-1].val_p1 is None


class TestParamCount:
    def test_fc_output_layer_size(self):
        model = tr.init_model(100, (512,), 3993, "fc", seed=0)
        out_params, total = tr.param_count(model)
        assert out_params == 512 * 3993 + 3993
        assert total == 100 * 512 + 512 + out_params

    def test_eurlex_configuration_compression(self):
        assert tr.compression_percent(3993, 400, 512) == pytest.approx(89.98, abs=0.5)

    def test_equal_dims_give_zero_compression(self):
        assert tr.compression_percent(400, 400, 512) == 0.0

    def test_hrr_head_is_smaller_whenever_dim_is_smaller(self):
        for n_labels, d_prime in ((100, 30), (5000, 400), (50, 49)):
            fc = tr.init_model(10, (32,), n_labels, "fc", seed=1)
            hrr = tr.init_model(10, (32,), d_prime, "hrr", seed=1)
            assert tr.param_count(hrr)[0] < tr.param_count(fc)[0]


class TestCheckpoint:
    def test_roundtrip_preserves_everything(self, tmp_path):
        model = tr.init_model(12, (6, 5), 4, "hrr", seed=2)
        path = tmp_path / "model.ckpt"
        tr.save_checkpoint(model, path, extra={"n_labels": 9, "d_prime": 4, "label_seed": 1})
        loaded, space = tr.load_checkpoint(path)
        assert (space.n_classes, space.dim, space.seed) == (9, 4, 1) and loaded.head == "hrr"
        assert loaded.layer_sizes == model.layer_sizes
        assert model_params_bytes(loaded) == model_params_bytes(model)

    @pytest.mark.parametrize(
        "head, width, extra, space, fault",
        [
            ("hrr", 8, None, None, "n_labels must be an integer >= 1, got None"),
            ("hrr", 8, {"d_prime": 8, "label_seed": 1}, None,
             "n_labels must be an integer >= 1, got None"),
            ("hrr", 8, {"n_labels": "9", "label_seed": 1}, None,
             "n_labels must be an integer >= 1, got '9'"),
            ("hrr", 8, {"n_labels": True, "label_seed": 1}, None,
             "n_labels must be an integer >= 1, got True"),
            ("hrr", 8, {"n_labels": 0, "label_seed": 1}, None,
             "n_labels must be an integer >= 1, got 0"),
            ("hrr", 8, {"n_labels": 9}, None, "label_seed must be an integer, got None"),
            ("hrr", 8, {"n_labels": 9, "label_seed": 1.5}, None,
             "label_seed must be an integer, got 1.5"),
            ("hrr", 1, {"n_labels": 9, "label_seed": 1}, None,
             "d_prime must be an integer >= 2, got 1"),
            ("hrr", 8, None, (9, 16, 1),
             "d_prime must be 8 to match head 'hrr' and layer_sizes [10, 4, 8], got 16"),
            ("fc", 9, None, (9, 8, 1),
             "d_prime must be None to match head 'fc' and layer_sizes [10, 4, 9], got 8"),
            ("fc", 9, {"train_seed": 1.5}, None, "train_seed must be an integer, got 1.5"),
            ("hrr", 8, {"train_seed": "1"}, (9, 8, 1), "train_seed must be an integer, got '1'"),
        ],
        ids=["hrr-no-label-fields", "n_labels-missing", "n_labels-str", "n_labels-bool",
             "n_labels-0", "label_seed-missing", "label_seed-float", "d_prime-1",
             "space-dim-not-width", "fc-with-space", "train_seed-float", "train_seed-str"],
    )
    def test_save_refuses_what_load_refuses_and_writes_nothing(
        self, tmp_path, head, width, extra, space, fault
    ):
        path = tmp_path / "model.ckpt"
        space = lb.make_label_space(*space) if space else None
        with pytest.raises(ValueError) as info:
            tr.save_checkpoint(tr.init_model(10, (4,), width, head, seed=1), path, extra, space)
        assert str(info.value) == f"checkpoint {path}: {fault}"
        assert list(tmp_path.iterdir()) == []

    def test_extra_cannot_override_what_the_model_or_space_fixes(self, tmp_path):
        model = tr.init_model(10, (4,), 8, "hrr", seed=1)
        fixed = {"format_version": 2, "head": "fc", "layer_sizes": [1], "n_features": 3,
                 "hidden": [], "n_labels": 5, "d_prime": 7, "label_seed": 6}
        headers = []
        for name, extra in (("plain", None), ("extra", {**fixed, "train_seed": 4})):
            path = tmp_path / f"{name}.ckpt"
            tr.save_checkpoint(model, path, extra, space=lb.make_label_space(9, 8, 1))
            blob = path.read_bytes()
            headers.append(json.loads(blob[12 : 12 + int.from_bytes(blob[8:12], "little")]))
        assert headers[0] == {"format_version": 1, "head": "hrr", "layer_sizes": [10, 4, 8],
                              "n_features": 10, "hidden": [4], "n_labels": 9, "d_prime": 8,
                              "label_seed": 1}
        assert headers[1] == {**headers[0], "train_seed": 4}

    def test_same_seed_checkpoints_are_byte_identical(self, tmp_path):
        ds = planted(128, seed=19)
        blobs = []
        for run in range(2):
            model = tr.init_model(100, (8,), 20, "fc", seed=3)
            tr.train(model, ds, tr.TrainConfig(epochs=2, seed=3))
            path = tmp_path / f"run{run}.ckpt"
            tr.save_checkpoint(model, path)
            blobs.append(path.read_bytes())
        assert blobs[0] == blobs[1]

    def test_failed_write_leaves_the_old_checkpoint_whole(self, tmp_path, monkeypatch):
        path = tmp_path / "model.ckpt"
        tr.save_checkpoint(tr.init_model(12, (6, 5), 4, "fc", seed=2), path)
        old = path.read_bytes()

        class DiskFull:
            """A file whose fourth write, inside the first layer, fails."""

            def __init__(self, fh):
                self.fh, self.writes = fh, 0

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return self.fh.__exit__(*exc)

            def __getattr__(self, name):
                return getattr(self.fh, name)

            def write(self, data):
                self.writes += 1
                if self.writes == 4:
                    raise OSError(28, "No space left on device")
                return self.fh.write(data)

        monkeypatch.setattr(tr, "open", lambda *a, **k: DiskFull(open(*a, **k)), raising=False)
        with pytest.raises(OSError, match="No space left"):
            tr.save_checkpoint(tr.init_model(12, (6, 5), 4, "fc", seed=3), path)
        assert path.read_bytes() == old
        assert sorted(p.name for p in tmp_path.iterdir()) == ["model.ckpt"]
        monkeypatch.undo()
        model = tr.init_model(12, (6, 5), 4, "fc", seed=3)
        tr.save_checkpoint(model, path)
        assert model_params_bytes(tr.load_checkpoint(path)[0]) == model_params_bytes(model)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["model.ckpt"]

    def test_save_writes_each_layer_from_its_own_buffer(self, tmp_path):
        # Bound fixed before measuring: under 1 MB for an 8 MB first layer;
        # a bytes copy of each layer before writing it peaks at 8 MB.
        model = tr.init_model(2_000, (512,), 4, "fc", seed=6)
        path = tmp_path / "model.ckpt"
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            tr.save_checkpoint(model, path)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000
        # a layer in another memory order or dtype is converted, same bytes
        model.weights[0] = np.asfortranarray(model.weights[0])
        model.biases[0] = model.biases[0].astype(">f8")
        other = tmp_path / "other.ckpt"
        tr.save_checkpoint(model, other)
        assert other.read_bytes() == path.read_bytes()

    def test_fewer_than_three_layer_sizes_raise(self, tmp_path):
        # a one-layer model (two sizes, a whole payload) and a header of one size
        linear = tmp_path / "linear.ckpt"
        tr.save_checkpoint(tr.init_model(12, (4,), 4, "fc", seed=1), linear)
        inflate_layer_sizes(linear, [12, 4])
        linear.write_bytes(linear.read_bytes()[: -8 * (4 * 4 + 4)])  # drop the second layer
        empty = tmp_path / "empty.ckpt"
        tr.save_checkpoint(tr.init_model(12, (6,), 4, "fc", seed=2), empty)
        inflate_layer_sizes(empty, [6])
        for path, count in ((linear, 2), (empty, 1)):
            with pytest.raises(ValueError) as info:
                tr.load_checkpoint(path)
            assert str(info.value) == (
                f"checkpoint {path} has {count} layer sizes; a model needs at least 3 "
                f"(input, hidden, output)"
            )

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"NOTMODEL" + b"\x00" * 16)
        with pytest.raises(ValueError) as info:
            tr.load_checkpoint(path)
        assert str(info.value) == f"not a model checkpoint {path}: bad magic b'NOTMODEL'"

    def test_unsupported_format_version_names_the_file(self, tmp_path):
        path = tmp_path / "model.ckpt"
        tr.save_checkpoint(tr.init_model(12, (6,), 4, "fc", seed=2), path)
        rewrite_header(path, lambda header: {**header, "format_version": 2})
        with pytest.raises(ValueError) as info:
            tr.load_checkpoint(path)
        assert str(info.value) == f"unsupported checkpoint {path}: format version 2"

    def test_truncated_checkpoint_names_section_and_sizes(self, tmp_path):
        model = tr.init_model(12, (6,), 4, "fc", seed=2)
        path = tmp_path / "model.ckpt"
        tr.save_checkpoint(model, path)
        blob = path.read_bytes()
        hlen = int.from_bytes(blob[8:12], "little")
        w0 = 12 + hlen  # layer 0 weights: 12 x 6 float64
        b0 = w0 + 8 * 12 * 6  # layer 0 bias: 6 float64
        w1 = b0 + 8 * 6  # layer 1 weights: 6 x 4 float64
        b1 = w1 + 8 * 6 * 4
        cases = [
            (10, "header length", 4, 2),
            (12 + hlen // 2, "header", hlen, hlen // 2),
            (w0 + 5, "layer 0 weights", 8 * 12 * 6, 5),
            (b0 + 8, "layer 0 bias", 8 * 6, 8),
            (w1, "layer 1 weights", 8 * 6 * 4, 0),
            (b1 + 31, "layer 1 bias", 8 * 4, 31),
            (b1 + 24, "layer 1 bias", 8 * 4, 24),  # whole float64s: no reshape error
        ]
        assert b1 + 8 * 4 == len(blob)
        for cut, section, want, got in cases:
            short = tmp_path / f"cut{cut}.ckpt"
            short.write_bytes(blob[:cut])
            message = (
                f"truncated checkpoint {short}: {section} needs {want} bytes, found {got}"
            )
            with pytest.raises(ValueError) as info:
                tr.load_checkpoint(short)
            assert str(info.value) == message

    def test_corrupt_header_sizes_raise_before_allocating(self, tmp_path):
        # A header claiming 100,000 x 100,000 weights (80 GB) is compared with
        # the bytes left in the file instead of being allocated.
        model = tr.init_model(12, (6,), 4, "fc", seed=2)
        path = tmp_path / "model.ckpt"
        tr.save_checkpoint(model, path)
        blob = path.read_bytes()
        payload = len(blob) - 12 - int.from_bytes(blob[8:12], "little")
        inflate_layer_sizes(path, [100_000, 100_000, 4])
        tracemalloc.start()
        try:
            with pytest.raises(ValueError) as info:
                tr.load_checkpoint(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6  # nothing near the claimed size was allocated
        assert str(info.value) == (
            f"truncated checkpoint {path}: layer 0 weights needs 80000000000 bytes, "
            f"found {payload}"
        )

    def test_load_peaks_near_the_weight_bytes(self, tmp_path):
        # each layer is read straight into its array, not into bytes first
        model = tr.init_model(2000, (256,), 64, "hrr", seed=4)
        path = tmp_path / "model.ckpt"
        tr.save_checkpoint(model, path, extra={"n_labels": 100, "d_prime": 64, "label_seed": 4})
        weight_bytes = sum(w.nbytes + b.nbytes for w, b in zip(model.weights, model.biases))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            loaded, _ = tr.load_checkpoint(path)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert model_params_bytes(loaded) == model_params_bytes(model)
        assert peak < 1.25 * weight_bytes

    def test_trailing_byte_names_path_and_sizes(self, tmp_path):
        path = tmp_path / "model.ckpt"
        tr.save_checkpoint(tr.init_model(12, (6,), 4, "fc", seed=2), path)
        size = path.stat().st_size
        with open(path, "ab") as fh:
            fh.write(b"\x00")
        with pytest.raises(ValueError) as err:
            tr.load_checkpoint(path)
        assert str(err.value) == (
            f"oversized checkpoint {path}: header and layers need {size} bytes, "
            f"file has {size + 1}"
        )
