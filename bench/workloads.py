"""The benchmark's workloads: their inputs, CLI calls and output checks.

Each workload is a fixed sequence of `hrrkit` CLI invocations (one round)
over inputs generated from the workload seed. `setup()` generates and
writes the inputs (timed as set-up), `prepare()` computes whatever the
output checks need (untimed), and `ops()` lists the calls of one round,
each with a check that returns a list of problems (empty when the output
is correct). The program sees only the files written by `setup()`.

The per-layer table at the end maps the tracer's spans and counters onto
the metric names the traced run reports.
"""

from __future__ import annotations

import collections
import functools
import hashlib
import json
import math
import os

import numpy as np

from hrrkit import capacity, cli, core, data, labels, metrics, trainer, vsa
from hrrkit.seeds import mix64

Op = collections.namedtuple("Op", "label argv check")

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden_capacity.json")


def _read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _write_dataset(ds, path):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        data.serialize_xml_repo(ds, fh)


class Workload:
    """Defaults for the steps a workload may not need."""

    def setup(self):
        pass

    def prepare(self):
        pass

    def close(self):
        pass


# ---------------------------------------------------------------- xml-train


class XmlTrain(Workload):
    """Bibtex-shaped training of both heads, each checkpoint then evaluated."""

    name = "xml-train"
    why = (
        "Bibtex-shaped training (L=159, 1,836 features) of the fc and hrr heads: "
        "trainer (Adam, sparse backward) and data parsing dominate; decoding is cheap"
    )
    N_TRAIN, N_TEST, N_FEATURES, N_LABELS, LABELS_PER_POINT = 4880, 2515, 1836, 159, 3
    NOISE, D_PRIME, HIDDEN, BATCH, EPOCHS = 0.1, 400, "512,512", 64, 1
    MIN_P1 = 0.95

    def __init__(self, workdir, seed):
        self.seed = seed
        self.train_path = os.path.join(workdir, "train.txt")
        self.test_path = os.path.join(workdir, "test.txt")
        self.workdir = workdir

    def setup(self):
        shape = (self.N_FEATURES, self.N_LABELS, self.LABELS_PER_POINT)
        train = data.synth_generate(self.N_TRAIN, *shape, seed=mix64(self.seed, 1), noise=self.NOISE)
        test = data.synth_generate(self.N_TEST, *shape, seed=mix64(self.seed, 2), noise=self.NOISE)
        _write_dataset(train, self.train_path)
        _write_dataset(test, self.test_path)

    def ops(self):
        for head in ("fc", "hrr"):
            ckpt = os.path.join(self.workdir, f"{head}.ckpt")
            report = os.path.join(self.workdir, f"{head}.eval.json")
            head_args = ["--head", head] + (["--d-prime", str(self.D_PRIME)] if head == "hrr" else [])
            yield Op(
                f"train-{head}",
                ["train", "--data", self.train_path, *head_args, "--hidden", self.HIDDEN,
                 "--batch", str(self.BATCH), "--epochs", str(self.EPOCHS),
                 "--seed", str(self.seed), "--out", ckpt],
                lambda ckpt=ckpt: self._check_train(ckpt),
            )
            yield Op(
                f"eval-{head}",
                ["eval", "--data", self.test_path, "--checkpoint", ckpt,
                 "--train-data", self.train_path, "--k", "1,3,5", "--out", report],
                lambda report=report: self._check_eval(report),
            )

    def _check_train(self, ckpt):
        with open(ckpt + ".stats.jsonl", "r", encoding="utf-8") as fh:
            epochs = [json.loads(line) for line in fh][1:]
        if len(epochs) != self.EPOCHS:
            return [f"{ckpt}: {len(epochs)} epoch records, expected {self.EPOCHS}"]
        return [
            f"{ckpt}: epoch {e['epoch']} loss {e['mean_loss']!r} is not finite"
            for e in epochs
            if not math.isfinite(e["mean_loss"])
        ]

    def _check_eval(self, report):
        got = _read_json(report)["metrics"]
        problems = []
        if got.get("evaluated_examples") != self.N_TEST:
            problems.append(f"{report}: evaluated {got.get('evaluated_examples')} of {self.N_TEST}")
        if not got.get("P@1", 0.0) >= self.MIN_P1:
            problems.append(f"{report}: held-out P@1 {got.get('P@1')} < {self.MIN_P1}")
        return problems

    def info(self, walls):
        n_train = self.N_TRAIN * self.EPOCHS
        return {
            "train_fc_examples_per_s": (n_train / walls["train-fc"], "examples/s"),
            "train_hrr_examples_per_s": (n_train / walls["train-hrr"], "examples/s"),
            "eval_examples_per_s": (
                2 * self.N_TEST / (walls["eval-fc"] + walls["eval-hrr"]),
                "examples/s",
            ),
        }


# ---------------------------------------------------------- xml-decode-wide


class XmlDecodeWide(Workload):
    """Wiki10-31K-shaped decoding of a seeded hrr checkpoint over all labels."""

    name = "xml-decode-wide"
    why = (
        "Wiki10-31K-shaped decoding (L=30,938, d'=400) of a 127 MB hrr checkpoint: "
        "class-vector regeneration, the n x L score matrix and its argsort dominate"
    )
    N_TEST, N_LABELS, N_FEATURES, LABELS_PER_POINT = 1024, 30938, 30938, 19
    NOISE, D_PRIME, HIDDEN, KS = 0.1, 400, (512, 512), (1, 3, 5)
    TIE_TOL = 1e-9  # relative gap below which two reference scores count as tied
    ROW_BLOCK = 128

    def __init__(self, workdir, seed):
        self.seed = seed
        self.label_seed = mix64(seed, 3)
        self.test_path = os.path.join(workdir, "test.txt")
        self.ckpt_path = os.path.join(workdir, "hrr.ckpt")
        self.report_path = os.path.join(workdir, "eval.json")
        self.captured = []

    def setup(self):
        self.test = data.synth_generate(
            self.N_TEST, self.N_FEATURES, self.N_LABELS, self.LABELS_PER_POINT,
            seed=mix64(self.seed, 1), noise=self.NOISE,
        )
        _write_dataset(self.test, self.test_path)
        meta = {
            "n_features": self.N_FEATURES,
            "n_labels": self.N_LABELS,
            "d_prime": self.D_PRIME,
            "label_seed": self.label_seed,
            "hidden": list(self.HIDDEN),
            "train_seed": self.seed,
        }
        trainer.save_checkpoint(self._model(), self.ckpt_path, extra=meta)

    def _model(self):
        return trainer.init_model(self.N_FEATURES, self.HIDDEN, self.D_PRIME, "hrr", seed=mix64(self.seed, 2))

    def prepare(self):
        """Reference top-5 rankings and metric report, from the benchmark's own code.

        The forward pass is written here; class vectors and the unbinding
        come from hrrkit (`class_vectors`, `unbind`), and the ranking is a
        stable sort of each row's top candidates by (score desc, index asc).
        """
        self.model = self._model()  # the weights the checkpoint holds, made again
        out = self._forward(self.test)
        space = labels.make_label_space(self.N_LABELS, self.D_PRIME, self.label_seed)
        queries = core.unbind(out, space.p)
        class_rows = space.class_vectors(np.arange(self.N_LABELS))
        k = max(self.KS)
        rankings, self.tied = [], set()
        for lo in range(0, self.N_TEST, self.ROW_BLOCK):
            scores = queries[lo : lo + self.ROW_BLOCK] @ class_rows.T
            cand = np.argpartition(-scores, k, axis=1)[:, : k + 1]
            cand_scores = np.take_along_axis(scores, cand, axis=1)
            order = np.lexsort((cand, -cand_scores), axis=-1)
            cand = np.take_along_axis(cand, order, axis=1)
            cand_scores = np.take_along_axis(cand_scores, order, axis=1)
            gaps = -np.diff(cand_scores, axis=1)
            scale = np.maximum(1.0, np.abs(cand_scores[:, :-1]))
            for r in np.nonzero((gaps <= self.TIE_TOL * scale).any(axis=1))[0]:
                self.tied.add(lo + int(r))
            rankings.extend(cand[:, :k].tolist())
        self.reference = rankings
        counts = np.bincount(
            np.concatenate([ex.labels for ex in self.test.examples]), minlength=self.N_LABELS
        )
        self.propensities = np.maximum(counts, 1.0) / self.N_TEST
        self.truths = [ex.labels.tolist() for ex in self.test.examples]
        hidden, fc_out = self.HIDDEN[-1], self.N_LABELS
        self.params = {
            "output_params": hidden * self.D_PRIME + self.D_PRIME,
            "total_params": sum(w.size + b.size for w, b in zip(self.model.weights, self.model.biases)),
            "compression_percent": 100.0 * (1.0 - (hidden * self.D_PRIME + self.D_PRIME) / (hidden * fc_out + fc_out)),
        }
        del self.model  # keep the 127 MB of weights out of the measured peak RSS
        self._install_capture()

    def _forward(self, ds):
        w1, b1 = self.model.weights[0], self.model.biases[0]
        rows = np.repeat(np.arange(ds.n_examples), [ex.feat_idx.size for ex in ds.examples])
        idx = np.concatenate([ex.feat_idx for ex in ds.examples])
        val = np.concatenate([ex.feat_val for ex in ds.examples])
        z = np.tile(b1, (ds.n_examples, 1))
        np.add.at(z, rows, val[:, None] * w1[idx])
        for w, b in zip(self.model.weights[1:], self.model.biases[1:]):
            z = np.maximum(z, 0.0) @ w + b
        return z

    def _install_capture(self):
        """Wrap trainer.predict_rankings so the check sees the rankings eval made."""
        original = trainer.predict_rankings

        @functools.wraps(original)
        def capturing(*args, **kwargs):
            result = original(*args, **kwargs)
            self.captured.append(result)
            return result

        self._original = original
        trainer.predict_rankings = capturing

    def close(self):
        trainer.predict_rankings = self._original

    def ops(self):
        self.captured.clear()
        yield Op(
            "eval",
            ["eval", "--data", self.test_path, "--checkpoint", self.ckpt_path,
             "--k", ",".join(map(str, self.KS)), "--out", self.report_path],
            self._check_eval,
        )

    def _check_eval(self):
        problems = []
        if len(self.captured) != 1:
            return [f"expected one predict_rankings call per eval, saw {len(self.captured)}"]
        got = self.captured.pop()
        expected = list(self.reference)
        for row in range(self.N_TEST):
            if row in self.tied:
                expected[row] = got[row]  # either order is correct within rounding
            elif got[row] != expected[row]:
                problems.append(f"row {row}: top-5 {got[row]} != reference {expected[row]}")
                if len(problems) >= 5:
                    break
        payload = _read_json(self.report_path)
        want = metrics.metric_report(expected, self.truths, self.propensities, ks=self.KS)
        problems += _compare(payload["metrics"], want, "eval metrics")
        problems += _compare(payload.get("params", {}), self.params, "eval params")
        return problems

    def info(self, walls):
        return {"eval_examples_per_s": (self.N_TEST / walls["eval"], "examples/s")}


def _compare(got, want, what, rel=1e-12, abs_tol=1e-12):
    if set(got) != set(want):
        return [f"{what}: keys {sorted(got)} != {sorted(want)}"]
    return [
        f"{what}: {key} = {got[key]!r}, expected {want[key]!r}"
        for key in sorted(want)
        if not math.isclose(got[key], want[key], rel_tol=rel, abs_tol=abs_tol)
    ]


# ------------------------------------------------------------- vsa-capacity


class VsaCapacity(Workload):
    """Capacity sweep over four binding kinds, then one large response curve."""

    name = "vsa-capacity"
    why = (
        "binding-capacity sweep (4 kinds, d=1024,4096) and an n=65,536 response run: "
        "core FFT bind/project/sampling, vsa and the distractor matmul; no trainer or labels"
    )
    KINDS, DIMS, TRIALS, THRESHOLD = ("hrr", "hrr-proj", "map-c", "vtb"), (1024, 4096), 10, 0.03
    # Every kind reaches n=128 at d=4096 whatever the seed (hrr-proj and vtb
    # saturate there; map-c breaks or saturates there), so the cost of a
    # round does not depend on where the seed puts the larger capacities.
    N_MAX = 128
    RESP_DIM, RESP_N, RESP_TRIALS, RESP_QUERIES = 256, 65536, 1, 256
    RESP_TOL = 1e-9  # relative and absolute tolerance against recorded statistics

    def __init__(self, workdir, seed):
        self.seed = seed
        self.cap_path = os.path.join(workdir, "capacity.json")
        self.resp_path = os.path.join(workdir, "response.json")
        self.first = {}
        self.trial_rows = None

    def prepare(self):
        golden = _read_json(GOLDEN_PATH)
        if golden["config"] != self.config():
            raise RuntimeError(f"{GOLDEN_PATH} was recorded for another configuration")
        self.golden = golden["seeds"].get(str(self.seed))

    def config(self):
        return {"capacity": self._capacity_args(), "response": self._response_args()}

    def _capacity_args(self):
        return [
            "capacity", "--vsa", ",".join(self.KINDS), "--dims", ",".join(map(str, self.DIMS)),
            "--trials", str(self.TRIALS), "--threshold", str(self.THRESHOLD),
            "--n-max", str(self.N_MAX), "--jobs", "1", "--format", "json",
        ]

    def _response_args(self):
        return [
            "response", "--kind", "hrr-proj", "--dim", str(self.RESP_DIM),
            "--n-min", str(self.RESP_N), "--n-max", str(self.RESP_N),
            "--trials", str(self.RESP_TRIALS), "--queries", str(self.RESP_QUERIES),
            "--format", "json",
        ]

    def ops(self):
        seed = ["--seed", str(self.seed)]
        yield Op("capacity", self._capacity_args() + seed + ["--out", self.cap_path], self._check_capacity)
        yield Op("response", self._response_args() + seed + ["--out", self.resp_path], self._check_response)

    def record(self):
        """Digest of this round's outputs, as stored in the golden file."""
        (resp,) = _read_json(self.resp_path)["rows"]
        return dict(self._capacity_record(_read_json(self.cap_path)), response=resp)

    @staticmethod
    def _capacity_record(payload):
        rows = sorted((t["kind"], t["d"], t["n"], t["trial"], t["errors"]) for t in payload["trials"])
        return {
            "trials_sha256": hashlib.sha256(json.dumps(rows, separators=(",", ":")).encode()).hexdigest(),
            "capacities": {f"{c['kind']}/{c['d']}": [c["capacity"], c["saturated"]] for c in payload["capacities"]},
        }

    def _check_capacity(self):
        payload = _read_json(self.cap_path)
        self.trial_rows = len(payload["trials"])
        problems = self._consistency(payload)
        got = self._capacity_record(payload)
        want = self.golden or self.first.get("capacity")
        if want is not None and {k: want[k] for k in got} != got:
            problems.append("capacity trials or capacities differ from the recorded values")
        if "capacity" not in self.first:
            self.first["capacity"] = got
            problems += self._recount_sample(payload)
        return problems

    def _recount_sample(self, payload):
        """Recount one seeded trial row per kind with the benchmark's own algebra.

        Rows come from the same seed derivation and generators as the sweep
        (that is part of the output's definition); binding, unbinding and
        the projection are written here with real FFTs and explicit VTB
        blocks. A row whose best distractor and true match are within 1e-9
        of each other is skipped, since rounding may decide it either way.
        """
        pick = np.random.Generator(np.random.PCG64(mix64(self.seed, 0xBE4C)))
        unit = lambda v: v / (np.linalg.norm(v, axis=1, keepdims=True) + core.COSINE_EPS)
        problems = []
        for tag, kind in enumerate(self.KINDS):
            rows = sorted(
                (t["d"], t["n"], t["trial"], t["errors"]) for t in payload["trials"] if t["kind"] == kind
            )
            d, n, trial, errors = rows[int(pick.integers(len(rows)))]
            base = mix64(mix64(self.seed, tag, d, n), trial)
            xs, ys, zs = (_draw(kind, d, n, mix64(base, i)) for i in range(3))
            xhat = _unbind(kind, _statement(kind, xs, ys), ys)
            true_sim = np.sum(unit(xhat) * unit(xs), axis=1)
            best = (unit(xhat) @ unit(zs).T).max(axis=1)
            if np.min(np.abs(best - true_sim)) < 1e-9:
                continue
            recount = int(np.count_nonzero(best > true_sim))
            if recount != errors:
                problems.append(f"{kind} d={d} n={n} trial {trial}: {errors} errors, recount gives {recount}")
        return problems

    def _consistency(self, payload):
        """The sweep protocol, checked from the output alone (holds for any seed)."""
        grid, j = [], 6
        while round(2.0 ** (j / 2.0)) <= self.N_MAX:
            n = int(round(2.0 ** (j / 2.0)))
            if not grid or grid[-1] != n:
                grid.append(n)
            j += 1
        cells = collections.defaultdict(lambda: collections.defaultdict(list))
        for t in payload["trials"]:
            if not 0 <= t["errors"] <= t["n"] or t["p_error"] != t["errors"] / t["n"]:
                return [f"bad trial row {t}"]
            cells[(t["kind"], t["d"])][t["n"]].append((t["trial"], t["errors"]))
        caps = {(c["kind"], c["d"]): c for c in payload["capacities"]}
        expected = {(k, d) for k in self.KINDS for d in self.DIMS}
        if set(cells) != expected or set(caps) != expected:
            return [f"capacity cells {sorted(caps)} != {sorted(expected)}"]
        problems = []
        for cell in sorted(expected):
            ns = sorted(cells[cell])
            if ns != grid[: len(ns)]:
                problems.append(f"{cell}: pair counts {ns} are not a prefix of {grid}")
                continue
            pooled = []
            for n in ns:
                trials = sorted(cells[cell][n])
                if [t for t, _ in trials] != list(range(self.TRIALS)):
                    problems.append(f"{cell} n={n}: trials {[t for t, _ in trials]}")
                pooled.append(sum(e for _, e in trials) / (n * self.TRIALS))
            broke = pooled[-1] > self.THRESHOLD
            cap = caps[cell]
            if any(p > self.THRESHOLD for p in pooled[:-1]):
                problems.append(f"{cell}: sweep went on past an error rate above threshold")
            if cap["capacity"] != ns[-1] or cap["saturated"] == broke:
                problems.append(f"{cell}: capacity {cap} does not match errors {pooled}")
            if not broke and len(ns) != len(grid):
                problems.append(f"{cell}: sweep stopped early at n={ns[-1]}")
        for d in self.DIMS:
            if caps[("hrr-proj", d)]["capacity"] < caps[("hrr", d)]["capacity"]:
                problems.append(f"d={d}: projected HRR capacity below naive HRR")
        return problems

    def _check_response(self):
        (got,) = _read_json(self.resp_path)["rows"]
        want = self.golden["response"] if self.golden else self.first.get("response")
        self.first.setdefault("response", got)
        if want is not None:
            return _compare(got, want, "response", rel=self.RESP_TOL, abs_tol=self.RESP_TOL)
        # No record for this seed: compare with the crosstalk model, where each
        # of the n-1 other pairs adds N(0, 1/d) noise to a response of 1 (present)
        # or 0 (absent), pooled over queries x trials samples.
        sigma = math.sqrt((self.RESP_N - 1) / self.RESP_DIM)
        spread = 6.0 * sigma / math.sqrt(self.RESP_QUERIES * self.RESP_TRIALS)
        problems = []
        for key, centre in (("mean_present", 1.0), ("mean_absent", 0.0)):
            if abs(got[key] - centre) > spread:
                problems.append(f"response {key} = {got[key]!r}, expected {centre} +- {spread:.3g}")
        for key in ("std_present", "std_absent"):
            if not 0.8 * sigma <= got[key] <= 1.2 * sigma:
                problems.append(f"response {key} = {got[key]!r}, expected {sigma:.3g} +- 20%")
        return problems

    def info(self, walls):
        return {
            "capacity_trials_per_s": (self.trial_rows / walls["capacity"], "trials/s"),
            "response_pairs_per_s": (self.RESP_N * self.RESP_TRIALS / walls["response"], "pairs/s"),
        }


def _draw(kind, d, n, seed):
    rng = np.random.Generator(np.random.PCG64(seed))
    if kind == "map-c":
        return rng.uniform(-1.0, 1.0, size=(n, d))
    rows = rng.standard_normal((n, d)) / np.sqrt(d)
    if kind == "hrr-proj":
        spec = np.fft.rfft(rows, axis=1)
        rows = np.fft.irfft(spec / np.abs(spec), n=d, axis=1)
    return rows


def _vtb_blocks(v):
    m = math.isqrt(v.shape[-1])
    return v.reshape(v.shape[:-1] + (m, m))


def _statement(kind, xs, ys):
    d = xs.shape[1]
    if kind == "map-c":
        return np.sign((xs * ys).sum(axis=0))
    if kind == "vtb":
        # Each length-m chunk c of x is multiplied by the key block Y: Y @ x_c.
        bound = np.einsum("nij,ncj->nci", _vtb_blocks(ys), _vtb_blocks(xs))
        return d**0.25 * bound.reshape(xs.shape).sum(axis=0)
    spec = (np.fft.rfft(xs, axis=1) * np.fft.rfft(ys, axis=1)).sum(axis=0)
    return np.fft.irfft(spec, n=d)


def _unbind(kind, s, ys):
    d = ys.shape[1]
    if kind == "map-c":
        return s * ys
    if kind == "vtb":
        return d**0.25 * np.einsum("nji,cj->nci", _vtb_blocks(ys), _vtb_blocks(s)).reshape(ys.shape)
    key = np.fft.rfft(ys, axis=1)
    key = 1.0 / key if kind == "hrr" else np.conj(key)
    return np.fft.irfft(np.fft.rfft(s) * key, n=d, axis=1)


WORKLOADS = {w.name: w for w in (XmlTrain, XmlDecodeWide, VsaCapacity)}


# -------------------------------------------------------------- per-layer


TRACED_MODULES = {
    "core": core,
    "vsa": vsa,
    "capacity": capacity,
    "labels": labels,
    "data": data,
    "trainer": trainer,
    "metrics": metrics,
    "cli": cli,
}


def _rows(*arrays):
    shape = np.broadcast_shapes(*(np.shape(a) for a in arrays))
    return int(np.prod(shape[:-1], dtype=np.int64))


def _file_bytes(path):
    return os.path.getsize(path) if isinstance(path, (str, os.PathLike)) else 0


def _parse_bytes(tracer, a, result, request):
    src = a["source"]
    if isinstance(src, str) and "\n" in src:
        return {"data.parse_xml_repo.bytes": len(src.encode("utf-8"))}
    return {"data.parse_xml_repo.bytes": _file_bytes(src)}


def _class_vectors(tracer, a, result, request):
    idx = np.atleast_1d(np.asarray(a["indices"], dtype=np.int64)).ravel()
    tracer.distinct[("labels.class_vectors", request, id(a["self"]))].update(idx.tolist())
    return {"labels.class_vectors.rows": idx.size}


COUNTERS = {
    "core.bind": lambda t, a, r, q: {"core.bind.rows": _rows(a["a"], a["b"])},
    "core.unbind": lambda t, a, r, q: {"core.unbind.rows": _rows(a["s"], a["y"])},
    "core.project": lambda t, a, r, q: {"core.project.rows": _rows(a["x"])},
    "vsa.vsa_bind": lambda t, a, r, q: {"vsa.rows": _rows(a["x"], a["y"])},
    "vsa.vsa_unbind": lambda t, a, r, q: {"vsa.rows": _rows(a["s"], a["y"])},
    "labels.class_vectors": _class_vectors,
    "data.parse_xml_repo": _parse_bytes,
    "trainer.train": lambda t, a, r, q: {
        "trainer.train.examples": a["dataset"].n_examples * a["config"].epochs
    },
    "trainer.predict_rankings": lambda t, a, r, q: {
        "trainer.predict_rankings.examples": a["dataset"].n_examples
    },
    "trainer.save_checkpoint": lambda t, a, r, q: {"trainer.checkpoint.bytes": _file_bytes(a["path"])},
    "trainer.load_checkpoint": lambda t, a, r, q: {"trainer.checkpoint.bytes": _file_bytes(a["path"])},
    "metrics.metric_report": lambda t, a, r, q: {"metrics.metric_report.examples": len(a["rankings"])},
}

# (metric name, unit). "<span>.self_s" is the span's self time; "<span>.calls"
# its call count; other names are counters, except the two derived below.
PER_LAYER = [
    ("cli.main.self_s", "s"),
    ("cli.main.calls", "count"),
    ("data.parse_xml_repo.self_s", "s"),
    ("data.parse_xml_repo.bytes", "bytes"),
    ("data.compute_propensities.self_s", "s"),
    ("trainer.train.self_s", "s"),
    ("trainer.train.examples", "count"),
    ("trainer.predict_rankings.self_s", "s"),
    ("trainer.predict_rankings.examples", "count"),
    ("trainer.save_checkpoint.self_s", "s"),
    ("trainer.load_checkpoint.self_s", "s"),
    ("trainer.checkpoint.bytes", "bytes"),
    ("labels.make_label_space.self_s", "s"),
    ("labels.class_vectors.self_s", "s"),
    ("labels.class_vectors.rows", "count"),
    ("labels.regen_useful_ratio", "ratio"),
    ("labels.query_loss_terms.self_s", "s"),
    ("labels.query_loss_terms.calls", "count"),
    ("core.bind.self_s", "s"),
    ("core.bind.rows", "count"),
    ("core.unbind.self_s", "s"),
    ("core.unbind.rows", "count"),
    ("core.project.self_s", "s"),
    ("core.project.rows", "count"),
    ("vsa.vsa_bind.self_s", "s"),
    ("vsa.vsa_unbind.self_s", "s"),
    ("vsa.rows", "count"),
    ("capacity.retrieval_error_probability.self_s", "s"),
    ("capacity.retrieval_error_probability.calls", "count"),
    ("capacity.query_response_distribution.self_s", "s"),
    ("metrics.metric_report.self_s", "s"),
    ("metrics.metric_report.examples", "count"),
    ("trace.overhead_s", "s"),
    ("trace.overhead_frac", "ratio"),
]


def round_counts(tracer):
    """The traced round's exact counts, with distinct regenerated classes folded in."""
    counts = dict(tracer.counts)
    counts["labels.class_vectors.distinct"] = sum(
        len(v) for k, v in tracer.distinct.items() if k[0] == "labels.class_vectors"
    )
    return counts


def layer_value(name, self_s, counts):
    """Value of one per-layer metric from a round's self times and counts."""
    if name == "labels.regen_useful_ratio":
        rows = counts.get("labels.class_vectors.rows", 0)
        return counts["labels.class_vectors.distinct"] / rows if rows else 0.0
    if name.endswith(".self_s"):
        return self_s.get(name[: -len(".self_s")], 0.0)
    return counts.get(name, 0)
