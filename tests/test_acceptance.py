"""Acceptance suite: one test per release criterion, at pinned tolerances.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion. Criterion 9 needs the published Bibtex/Delicious files and
skips with instructions when they are absent.
"""

import math
import os
import time

import numpy as np
import pytest

from hrrkit import core
from hrrkit import data as dataio
from hrrkit import labels as lb
from hrrkit import metrics as mx
from hrrkit import trainer as tr
from hrrkit.capacity import capacity_sweep, query_response_distribution, sqrt2_grid
from hrrkit.cli import main as cli_main
from hrrkit.vsa import VsaKind

from test_core import conv_direct

DATA_DIR = os.environ.get(
    "HRRKIT_DATA_DIR", os.path.join(os.path.dirname(__file__), "data")
)
SEED = 0

GRID = sqrt2_grid(4096)


def within_one_grid_step(ours, published):
    """True when ours is within one sqrt(2) grid index of the published value."""
    nearest = min(range(len(GRID)), key=lambda j: abs(math.log(GRID[j] / published)))
    return ours in GRID and abs(GRID.index(ours) - nearest) <= 1


def report(criterion, detail, started):
    print(f"ACCEPTANCE {criterion}: PASS - {detail} ({time.perf_counter() - started:.1f}s)")


@pytest.fixture(scope="module")
def capacities():
    cells = [(k, d) for k in VsaKind for d in (256, 1024)]
    cells += [
        (k, d)
        for k in (VsaKind.HRR_NAIVE, VsaKind.HRR_PROJECTED)
        for d in (121, 484)
    ]
    out = {}
    for kind, d in cells:
        cap, _, _ = capacity_sweep(kind, d, threshold=0.03, seed=SEED, trials=10)
        out[(kind, d)] = cap
    return out


def test_criterion_01_algebra_suite():
    started = time.perf_counter()
    rng_seeds = range(5)
    for d in (3, 16, 64):
        for s in rng_seeds:
            a = core.sample_standard(d, 3 * s)
            b = core.sample_standard(d, 3 * s + 1)
            c = core.sample_standard(d, 3 * s + 2)
            np.testing.assert_allclose(core.bind(a, b), core.bind(b, a), atol=1e-12)
            np.testing.assert_allclose(core.bind(a, b), conv_direct(a, b), atol=1e-10)
            np.testing.assert_allclose(
                core.bind(core.bind(a, b), c), core.bind(a, core.bind(b, c)), atol=1e-10
            )
            np.testing.assert_allclose(
                core.bind(a, b + c), core.bind(a, b) + core.bind(a, c), atol=1e-10
            )
            np.testing.assert_array_equal(core.pseudo_inverse(core.pseudo_inverse(a)), a)
            lhs = core.bind(a, b) @ c
            rhs = a @ core.unbind(c, b)
            assert abs(lhs - rhs) < 1e-10
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    report(1, "binding algebra and adjoint identities", started)


def test_criterion_02_projection_suite():
    started = time.perf_counter()
    for s in range(10):
        x = core.sample_standard(256, 100 + s)
        mags = np.abs(np.fft.fft(core.project(x)))
        assert np.all(np.abs(mags - 1.0) <= 1e-3)
        v = core.sample_unitary(128, 200 + s)
        np.testing.assert_allclose(
            core.exact_inverse(v), core.pseudo_inverse(v), atol=1e-8
        )
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    report(2, "unit-magnitude spectra and inverse agreement", started)


def test_criterion_03_capacity_reproduction(capacities):
    started = time.perf_counter()
    published = {
        (VsaKind.HRR_NAIVE, 256): 8,
        (VsaKind.HRR_PROJECTED, 256): 16,
        (VsaKind.VTB, 256): 24,
        (VsaKind.MAP_C, 256): 8,
        (VsaKind.HRR_NAIVE, 1024): 12,
        (VsaKind.HRR_PROJECTED, 1024): 64,
        (VsaKind.VTB, 1024): 64,
        (VsaKind.MAP_C, 1024): 32,
    }
    for cell, target in published.items():
        ours = capacities[cell]
        assert within_one_grid_step(ours, target), (
            f"{cell[0].value}@d={cell[1]}: capacity {ours} not within one "
            f"grid step of published {target}"
        )
    report(3, "eight capacity cells within one sqrt(2) step of published", started)


def test_criterion_04_projected_beats_naive_everywhere(capacities):
    started = time.perf_counter()
    for d in (121, 256, 484, 1024):
        proj = capacities[(VsaKind.HRR_PROJECTED, d)]
        naive = capacities[(VsaKind.HRR_NAIVE, d)]
        assert proj > naive, f"d={d}: projected {proj} <= naive {naive}"
    report(4, "projected capacity strictly above naive at all four dims", started)


def test_criterion_05_response_stability():
    started = time.perf_counter()
    proj = query_response_distribution(
        256, 1024, trials=10, seed=SEED, kind=VsaKind.HRR_PROJECTED
    )
    assert 0.8 <= proj.mean_present <= 1.2
    assert -0.2 <= proj.mean_absent <= 0.2
    naive = query_response_distribution(
        256, 1024, trials=10, seed=SEED, kind=VsaKind.HRR_NAIVE
    )
    assert naive.std_present > 1.0
    elapsed = time.perf_counter() - started
    assert elapsed < 120.0
    report(5, "projected responses stable, naive responses noisy", started)


def test_criterion_06_encoding_equivalence():
    started = time.perf_counter()
    from test_labels import encode_direct

    rng = np.random.default_rng(SEED)
    for case in range(100):
        n_classes = int(rng.integers(2, 65))
        n_present = int(rng.integers(0, n_classes + 1))
        space = lb.make_label_space(n_classes, 64, seed=9000 + case)
        present = sorted(rng.choice(n_classes, size=n_present, replace=False).tolist())
        np.testing.assert_allclose(
            lb.encode_labels(space, present), encode_direct(space, present), atol=1e-8
        )
    report(6, "shortcut encoding equals two-sum oracle on 100 label sets", started)


def test_criterion_07_gradient_suite():
    started = time.perf_counter()
    space = lb.make_label_space(10, 64, seed=31)
    rng = np.random.default_rng(32)
    s_hat = 0.4 * rng.standard_normal(64)
    present = [0, 3, 8]
    grad = lb.loss_gradient(space, s_hat, present)
    h = 1e-6
    fd = np.zeros(64)
    for j in range(64):
        e = np.zeros(64)
        e[j] = h
        hi = lb.loss(space, s_hat + e, present).total
        lo = lb.loss(space, s_hat - e, present).total
        fd[j] = (hi - lo) / (2 * h)
    assert np.linalg.norm(grad - fd) / np.linalg.norm(fd) < 1e-5

    for head, out_dim in (("fc", 3), ("hrr", 8)):
        ds = dataio.synth_generate(6, 6, 3, labels_per_point=1, seed=33, noise=0.1)
        sp = lb.make_label_space(3, out_dim, seed=34) if head == "hrr" else None
        model = tr.init_model(6, (4,), out_dim, head, seed=35)
        # Keep outputs away from the zero-statement point, where the
        # normalized loss is guarded but too curved for finite differences.
        model.biases[-1] += 0.1
        batch = ds

        def batch_loss():
            out, _ = tr._forward_sparse(model, batch)
            value, _, _ = tr._batch_loss_and_grad(model, batch, out, sp)
            return value

        out, acts = tr._forward_sparse(model, batch)
        _, grad_out, _ = tr._batch_loss_and_grad(model, batch, out, sp)
        grads_w, grads_b = tr._backward_sparse(model, batch, acts, grad_out)
        rows, values = grads_w[0]  # row-sparse first layer, scattered to dense
        grads_w[0] = np.zeros_like(model.weights[0])
        grads_w[0][rows] = values
        for p, g in zip(model.weights + model.biases, grads_w + grads_b):
            flat_p, flat_g = p.reshape(-1), g.reshape(-1)
            fd = np.zeros_like(flat_g)
            for j in range(flat_p.size):
                keep = flat_p[j]
                flat_p[j] = keep + h
                hi = batch_loss()
                flat_p[j] = keep - h
                lo = batch_loss()
                flat_p[j] = keep
                fd[j] = (hi - lo) / (2 * h)
            assert np.linalg.norm(flat_g - fd) / max(np.linalg.norm(fd), 1e-12) < 1e-4
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    report(7, "loss and full-network gradients match finite differences", started)


def test_criterion_08_decode_roundtrip():
    started = time.perf_counter()
    rng = np.random.default_rng(SEED)
    hits = 0
    for case in range(100):
        space = lb.make_label_space(100, 256, seed=20000 + case)
        size = int(rng.integers(1, 4))
        present = sorted(rng.choice(100, size=size, replace=False).tolist())
        decoded = sorted(lb.decode_topk(space, lb.encode_labels(space, present), size))
        hits += decoded == present
    assert hits >= 95, f"round-trip recovered {hits}/100"
    report(8, f"encode->decode recovered {hits}/100 planted label sets", started)


@pytest.mark.parametrize(
    "name,hrr_floor,fc_band",
    [
        ("bibtex", 0.55, (0.42, 0.52)),
        ("delicious", 0.60, None),
    ],
)
def test_criterion_09_published_dataset_reproduction(name, hrr_floor, fc_band):
    train_path = os.path.join(DATA_DIR, name.capitalize(), f"{name}_train.txt")
    test_path = os.path.join(DATA_DIR, name.capitalize(), f"{name}_test.txt")
    if not (os.path.exists(train_path) and os.path.exists(test_path)):
        pytest.skip(
            f"{name} files not found under {DATA_DIR}; this environment has no "
            "dataset network access. Fetch the extreme-classification "
            "repository files as described in README.md and re-run."
        )
    started = time.perf_counter()
    train_ds = dataio.parse_xml_repo(train_path)
    test_ds = dataio.parse_xml_repo(test_path)
    space = lb.make_label_space(train_ds.n_labels, 400, seed=SEED)
    model = tr.init_model(train_ds.n_features, (512, 512), 400, "hrr", seed=SEED)
    model, _ = tr.train(model, train_ds, tr.TrainConfig(epochs=40, seed=SEED), space=space)
    hrr_p1 = _p_at_1(model, test_ds, space)
    assert hrr_p1 >= hrr_floor, f"{name} hrr head P@1={hrr_p1:.3f} < {hrr_floor}"
    if fc_band is not None:
        fc = tr.init_model(train_ds.n_features, (512, 512), train_ds.n_labels, "fc", seed=SEED)
        fc, _ = tr.train(fc, train_ds, tr.TrainConfig(epochs=40, seed=SEED))
        fc_p1 = _p_at_1(fc, test_ds, None)
        assert fc_band[0] <= fc_p1 <= fc_band[1], f"{name} fc P@1={fc_p1:.3f}"
    report(9, f"{name} desk-scale reproduction", started)


def _p_at_1(model, ds, space):
    rankings = tr.predict_rankings(model, ds, space=space, k=1)
    hits = [
        1.0 if r[0] in set(ex.labels.tolist()) else 0.0
        for r, ex in zip(rankings, ds.examples)
        if ex.labels.size
    ]
    return float(np.mean(hits))


def test_criterion_10_compression_report():
    started = time.perf_counter()
    value = tr.compression_percent(n_labels=3993, d_prime=400, hidden_width=512)
    assert abs(value - 89.98) <= 0.5
    report(10, f"EURLex-shaped output compression {value:.2f}%", started)


def test_criterion_11_metric_identities():
    started = time.perf_counter()
    from test_metrics import brute_ndcg, brute_precision, brute_psndcg, brute_psp

    rng = np.random.default_rng(SEED)
    for _ in range(1000):
        ranked = rng.permutation(20).tolist()
        truth = rng.choice(20, size=int(rng.integers(1, 6)), replace=False).tolist()
        props = rng.uniform(0.05, 1.0, size=20)
        assert mx.precision_at_k(ranked, truth, 1) == mx.ndcg_at_k(ranked, truth, 1)
        assert mx.psp_at_k(ranked, truth, props, 1) == mx.psndcg_at_k(
            ranked, truth, props, 1
        )
        for k in (1, 3, 5):
            assert abs(mx.precision_at_k(ranked, truth, k) - brute_precision(ranked, truth, k)) <= 1e-12
            assert abs(mx.psp_at_k(ranked, truth, props, k) - brute_psp(ranked, truth, props, k)) <= 1e-12
            assert abs(mx.ndcg_at_k(ranked, truth, k) - brute_ndcg(ranked, truth, k)) <= 1e-12
            assert abs(mx.psndcg_at_k(ranked, truth, props, k) - brute_psndcg(ranked, truth, props, k)) <= 1e-12
    report(11, "rank-1 identities and oracle agreement on 1000 cases", started)


def test_criterion_12_determinism(tmp_path):
    started = time.perf_counter()
    capacity_flags = [
        "capacity", "--vsa", "hrr-proj", "--dims", "64", "--trials", "3",
        "--n-max", "23", "--seed", "7",
    ]
    blobs = []
    for name in ("a.csv", "b.csv"):
        out = tmp_path / name
        assert cli_main(capacity_flags + ["--out", str(out)]) == 0
        blobs.append(out.read_bytes())
    assert blobs[0] == blobs[1]

    ds = dataio.synth_generate(128, 100, 20, labels_per_point=2, seed=1, noise=0.05)
    data_path = tmp_path / "train.txt"
    data_path.write_text(dataio.serialize_xml_repo(ds), encoding="utf-8")
    ckpts = []
    for name in ("m1.ckpt", "m2.ckpt"):
        out = tmp_path / name
        assert cli_main([
            "train", "--data", str(data_path), "--head", "hrr", "--d-prime", "16",
            "--epochs", "2", "--hidden", "8", "--seed", "5", "--out", str(out),
        ]) == 0
        ckpts.append(out.read_bytes())
    assert ckpts[0] == ckpts[1]
    report(12, "byte-identical CSV outputs and checkpoints", started)
