"""Tests for the feedforward trainer, its heads, and checkpointing."""

import numpy as np
import pytest

from hrrkit import data as dataio
from hrrkit import labels as lb
from hrrkit import trainer as tr


def dense_forward(model, x):
    """Dense oracle for the sparse forward pass."""
    a = x
    for w, b in zip(model.weights[:-1], model.biases[:-1]):
        a = np.maximum(a @ w + b, 0.0)
    return a @ model.weights[-1] + model.biases[-1]


def model_params_bytes(model):
    return b"".join(p.tobytes() for p in model.weights + model.biases)


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


class TestForward:
    def test_zero_input_runs_on_biases(self):
        model = tr.init_model(6, (4, 4), 3, "fc", seed=0)
        for b in model.biases:
            b += 0.1
        out = tr.forward(model, [], [])
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
                tr.forward(model, idx, val), dense_forward(model, dense), atol=1e-12
            )

    def test_hidden_activations_nonnegative(self):
        model = tr.init_model(10, (8,), 4, "fc", seed=3)
        rng = np.random.default_rng(4)
        ex = dataio.SparseExample(
            feat_idx=np.arange(10), feat_val=rng.standard_normal(10), labels=np.array([0])
        )
        _, acts, masks = tr._forward_sparse(model, [ex])
        assert np.all(np.maximum(acts[1], 0.0) >= 0.0)

    def test_out_of_range_feature_raises(self):
        model = tr.init_model(6, (4,), 3, "fc", seed=5)
        with pytest.raises(ValueError):
            tr.forward(model, [6], [1.0])


class TestBce:
    def test_zero_logits_give_log_two(self):
        assert tr.bce_loss(np.zeros(7), [1, 3], 7) == pytest.approx(np.log(2.0))

    def test_confident_correct_prediction_vanishes(self):
        z = np.full(5, -40.0)
        z[[1, 2]] = 40.0
        assert tr.bce_loss(z, [1, 2], 5) < 1e-12

    def test_matches_naive_sigmoid_log_oracle(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            z = rng.uniform(-5, 5, size=9)
            labels = rng.choice(9, size=3, replace=False)
            y = np.zeros(9)
            y[labels] = 1.0
            s = 1.0 / (1.0 + np.exp(-z))
            naive = float(np.mean(-(y * np.log(s) + (1 - y) * np.log(1 - s))))
            assert tr.bce_loss(z, labels, 9) == pytest.approx(naive, abs=1e-10)

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
        config = tr.TrainConfig(epochs=0, seed=0)
        batch = ds.examples

        def batch_loss():
            out, _, _ = tr._forward_sparse(model, batch)
            value, _ = tr._batch_loss_and_grad(model, batch, out, space, config)
            return value

        out, acts, masks = tr._forward_sparse(model, batch)
        _, grad_out = tr._batch_loss_and_grad(model, batch, out, space, config)
        grads_w, grads_b = tr._backward_sparse(model, batch, acts, masks, grad_out)
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

    def test_zero_output_gradient_gives_zero_parameter_gradient(self):
        ds = planted(4, seed=10)
        model = tr.init_model(100, (8,), 5, "fc", seed=11)
        out, acts, masks = tr._forward_sparse(model, ds.examples)
        grads_w, grads_b = tr._backward_sparse(
            model, ds.examples, acts, masks, np.zeros_like(out)
        )
        assert all(np.all(g == 0) for g in grads_w + grads_b)


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
        poisoned = dataio.SparseDataset(
            n_examples=ds.n_examples,
            n_features=ds.n_features,
            n_labels=ds.n_labels,
            examples=[
                dataio.SparseExample(
                    ex.feat_idx, np.where(ex.feat_val > 0, np.inf, 0.0), ex.labels
                )
                for ex in ds.examples
            ],
        )
        model = tr.init_model(100, (8,), 20, "fc", seed=9)
        with np.errstate(invalid="ignore"), pytest.raises(tr.TrainingDivergedError):
            tr.train(model, poisoned, tr.TrainConfig(epochs=1, seed=9))

    def test_class_vectors_unchanged_by_training(self):
        ds = planted(128, seed=18)
        space = lb.make_label_space(20, 32, seed=10)
        before = [space.class_vector(i).tobytes() for i in range(20)]
        model = tr.init_model(100, (8,), 32, "hrr", seed=10)
        tr.train(model, ds, tr.TrainConfig(epochs=2, seed=10), space=space)
        after = [space.class_vector(i).tobytes() for i in range(20)]
        assert before == after


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
        loaded, header = tr.load_checkpoint(path)
        assert header["n_labels"] == 9 and header["head"] == "hrr"
        assert loaded.layer_sizes == model.layer_sizes
        assert model_params_bytes(loaded) == model_params_bytes(model)

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

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"NOTMODEL" + b"\x00" * 16)
        with pytest.raises(ValueError, match="magic"):
            tr.load_checkpoint(path)

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
