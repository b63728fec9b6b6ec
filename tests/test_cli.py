"""End-to-end tests for the command-line runner."""

import contextlib
import dataclasses
import json
import signal

import numpy as np
import pytest

from hrrkit import cli
from hrrkit import data as dataio
from hrrkit import trainer as tr
from hrrkit.capacity import predicted_error, query_response_distribution
from hrrkit.cli import main


def run_cli(args):
    return main(list(args))


def inflate_layer_sizes(path, sizes):
    """Rewrite a checkpoint's header to claim other layer sizes, payload unchanged."""
    blob = path.read_bytes()
    hlen = int.from_bytes(blob[8:12], "little")
    header = json.loads(blob[12 : 12 + hlen])
    header["layer_sizes"] = sizes
    text = json.dumps(header).encode()
    path.write_bytes(blob[:8] + len(text).to_bytes(4, "little") + text + blob[12 + hlen :])


def write_synth(tmp_path, name, n, seed, noise=0.05):
    ds = dataio.synth_generate(n, 100, 20, labels_per_point=2, seed=seed, noise=noise)
    path = tmp_path / name
    path.write_text(dataio.serialize_xml_repo(ds), encoding="utf-8")
    return path, ds


class TestCapacityCommand:
    def test_csv_structure_and_determinism(self, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        flags = [
            "capacity", "--vsa", "map-c", "--dims", "25", "--trials", "2",
            "--n-max", "16", "--seed", "1",
        ]
        assert run_cli(flags + ["--out", str(out1)]) == 0
        assert run_cli(flags + ["--out", str(out2)]) == 0
        text = out1.read_text()
        assert out1.read_bytes() == out2.read_bytes()
        assert "# subcommand: capacity" in text
        assert "record,kind,d,n,trial,errors,p_error,capacity" in text
        assert any(line.startswith("capacity,map-c,25") for line in text.splitlines())

    def test_json_format(self, tmp_path):
        out = tmp_path / "a.json"
        assert run_cli([
            "capacity", "--vsa", "hrr", "--dims", "25", "--trials", "2",
            "--n-max", "11", "--format", "json", "--out", str(out),
        ]) == 0
        payload = json.loads(out.read_text())
        assert payload["manifest"]["subcommand"] == "capacity"
        assert payload["capacities"][0]["kind"] == "hrr"

    def test_naive_sweep_with_a_tiny_key_bin_completes_and_repeats(self, tmp_path):
        # Seed 2001 draws a naive key with bin 0 of row 3 at 4.6e-6, under
        # exact_inverse's floor; the trial divides through it and goes on.
        flags = [
            "capacity", "--vsa", "hrr", "--dims", "1024,4096", "--trials", "10",
            "--n-max", "128", "--seed", "2001",
        ]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli(flags + ["--out", str(a)]) == 0
        assert run_cli(flags + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        assert "capacity,hrr,4096," in a.read_text()

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_result_without_out_goes_to_stdout_with_the_file_bytes(self, tmp_path, capsys, fmt):
        flags = ["capacity", "--vsa", "map-c", "--dims", "25", "--trials", "2",
                 "--n-max", "11", "--format", fmt]
        out = tmp_path / f"a.{fmt}"
        assert run_cli(flags + ["--out", str(out)]) == 0
        capsys.readouterr()
        assert run_cli(flags) == 0
        assert capsys.readouterr().out.encode("utf-8") == out.read_bytes()

    def test_empty_kind_list_exits_2(self, capsys):
        assert run_cli(["capacity", "--vsa", ",", "--dims", "16", "--trials", "1"]) == 2
        assert capsys.readouterr().err == "hrrkit: need at least one --vsa and one --dims value\n"

    def test_vtb_non_square_dimension_exits_2(self, capsys):
        assert run_cli(["capacity", "--vsa", "vtb", "--dims", "101", "--trials", "1"]) == 2
        assert "perfect-square" in capsys.readouterr().err

    def test_vtb_square_dimension_runs(self, tmp_path):
        out = tmp_path / "v.csv"
        assert run_cli([
            "capacity", "--vsa", "vtb", "--dims", "100", "--trials", "1",
            "--n-max", "11", "--out", str(out),
        ]) == 0

    def test_parallel_jobs_preserve_output(self, tmp_path):
        for fmt in ("csv", "json"):
            outs = []
            for jobs in (1, 2):
                out = tmp_path / f"j{jobs}.{fmt}"
                assert run_cli([
                    "capacity", "--vsa", "hrr,map-c", "--dims", "25,36",
                    "--trials", "2", "--n-max", "11", "--jobs", str(jobs),
                    "--format", fmt, "--out", str(out),
                ]) == 0
                outs.append(out.read_bytes())
            assert outs[0] == outs[1]

    @pytest.mark.parametrize("vsa, dims, message", [
        ("hrr-proj,vtb", "1024,1000", "vtb requires a perfect-square dimension, got 1000"),
        ("hrr,map-c", "64,1", "dimension must be >= 2, got 1"),
    ])
    def test_bad_cell_exits_2_before_any_sweep(self, monkeypatch, capsys, vsa, dims, message):
        monkeypatch.setattr(cli, "capacity_sweep", lambda *a, **kw: pytest.fail("a sweep ran"))
        assert run_cli(["capacity", "--vsa", vsa, "--dims", dims]) == 2
        assert capsys.readouterr().err == f"hrrkit: {message}\n"

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_exits_2(self, jobs, capsys):
        assert run_cli(["capacity", "--vsa", "hrr", "--dims", "25", "--jobs", jobs]) == 2
        assert capsys.readouterr().err == f"hrrkit: --jobs must be >= 1, got {jobs}\n"

    def test_config_file_defaults_and_overrides(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("dims=25\ntrials=2\nn-max=11\n# comment\n", encoding="utf-8")
        out = tmp_path / "c.csv"
        assert run_cli([
            "capacity", "--config", str(cfg), "--vsa", "hrr",
            "--trials", "3", "--out", str(out),
        ]) == 0
        text = out.read_text()
        assert "# trials: 3" in text  # flag beats config
        assert "# dims: ['25']" in text

    def test_config_spellings_give_the_same_bytes(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("trials=1\nn-max=11\n", encoding="utf-8")
        outs = []
        for i, spelling in enumerate(
            (["--config", str(cfg)], [f"--config={cfg}"], ["--conf", str(cfg)])
        ):
            out = tmp_path / f"c{i}.csv"
            assert run_cli(
                ["capacity", "--vsa", "hrr-proj", "--dims", "16", *spelling, "--out", str(out)]
            ) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1] == outs[2]
        assert "# trials: 1\n" in outs[0].decode()

    def test_missing_config_file_exits_2_and_names_it(self, tmp_path, capsys):
        missing = tmp_path / "missing.cfg"
        for spelling in (["--config", str(missing)], [f"--config={missing}"]):
            assert run_cli(["capacity", "--vsa", "hrr", "--dims", "25", *spelling]) == 2
            err = capsys.readouterr().err
            assert err.startswith("hrrkit: ") and str(missing) in err

    def test_unknown_config_key_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("no-such-key=1\n", encoding="utf-8")
        with pytest.raises(SystemExit) as err:
            run_cli(["capacity", "--config", str(cfg), "--vsa", "hrr", "--dims", "25"])
        assert err.value.code == 2

    @pytest.mark.parametrize(
        "argv,text,message",
        [
            (["capacity", "--vsa", "hrr"], "# c\nepochs=1\n", "2: unknown config key 'epochs'"),
            (["capacity", "--vsa", "hrr"], "trials\n", "1: expected key=value, got 'trials'"),
            (["eval", "--data", "x"], "k=1\none-based=maybe\n", "2: one_based expects a boolean"),
        ],
    )
    def test_config_errors_name_file_line_and_key(self, tmp_path, capsys, argv, text, message):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(text, encoding="utf-8")
        with pytest.raises(SystemExit) as err:
            run_cli([argv[0], "--config", str(cfg)] + argv[1:])
        assert err.value.code == 2
        assert f"error: {cfg}:{message}" in capsys.readouterr().err

    def test_config_boolean_switch(self, tmp_path):
        ds = dataio.synth_generate(12, 30, 4, labels_per_point=1, seed=10)
        shifted = dataio.SparseDataset(
            ds.n_features, ds.n_labels,
            ds.indptr, ds.indices + 1, ds.values, ds.label_indptr, ds.labels + 1,
        )
        path = tmp_path / "onebased.txt"
        path.write_text(dataio.serialize_xml_repo(shifted), encoding="utf-8")
        cfg = tmp_path / "t.cfg"
        cfg.write_text("one-based=true\nepochs=1\nhidden=4\n", encoding="utf-8")
        assert run_cli([
            "train", "--config", str(cfg), "--data", str(path), "--head", "fc",
            "--out", str(tmp_path / "ob.ckpt"),
        ]) == 0


class TestStatsOutput:
    """--stats writes telemetry beside the results and leaves their bytes alone."""

    @staticmethod
    def run_twice(tmp_path, flags):
        plain, with_stats, stats = tmp_path / "a.out", tmp_path / "b.out", tmp_path / "s.jsonl"
        assert run_cli(flags + ["--out", str(plain)]) == 0
        assert run_cli(flags + ["--out", str(with_stats), "--stats", str(stats)]) == 0
        assert plain.read_bytes() == with_stats.read_bytes()
        lines = [json.loads(line) for line in stats.read_text().splitlines()]
        assert lines[0]["manifest"]["subcommand"] == flags[0]
        return json.loads(plain.read_text()), lines[1:]

    def test_capacity_stats_per_cell_with_prediction(self, tmp_path):
        payload, rows = self.run_twice(tmp_path, [
            "capacity", "--vsa", "hrr,hrr-proj", "--dims", "121,256", "--trials", "2",
            "--n-max", "32", "--seed", "4", "--format", "json",
        ])
        cells = {}
        for t in payload["trials"]:
            cells.setdefault((t["kind"], t["d"], t["n"]), []).append(t["errors"])
        assert [(r["kind"], r["d"], r["n"]) for r in rows] == list(cells)
        for row in rows:
            errors = cells[(row["kind"], row["d"], row["n"])]
            assert row["trials"] == len(errors) == 2
            assert row["p_error"] == sum(errors) / (row["n"] * 2)
            assert row["seconds"] >= 0.0
            if row["kind"] == "hrr-proj":
                assert row["predicted_p_error"] == predicted_error(row["d"], row["n"])
            else:
                assert "predicted_p_error" not in row

    def test_response_stats_per_n(self, tmp_path):
        payload, rows = self.run_twice(tmp_path, [
            "response", "--dim", "64", "--n-min", "4", "--n-max", "16", "--trials", "2",
            "--seed", "9", "--format", "json",
        ])
        assert [r["n"] for r in rows] == [4, 8, 16]
        assert all(set(r) == {"n", "seconds"} for r in rows)
        # The rows are one library call per n.
        want = [query_response_distribution(64, n, trials=2, seed=9) for n in (4, 8, 16)]
        assert payload["rows"] == [dataclasses.asdict(s) for s in want]


class TestResponseCommand:
    def test_csv_rows(self, tmp_path):
        out = tmp_path / "r.csv"
        assert run_cli([
            "response", "--dim", "64", "--n-max", "8", "--trials", "2",
            "--queries", "16", "--out", str(out),
        ]) == 0
        lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert lines[0] == "n,mean_present,std_present,mean_absent,std_absent"
        assert [int(l.split(",")[0]) for l in lines[1:]] == [4, 8]

    def test_deterministic_bytes(self, tmp_path):
        flags = ["response", "--dim", "64", "--n-max", "4", "--trials", "2", "--seed", "9"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_cli(flags + ["--out", str(a)])
        run_cli(flags + ["--out", str(b)])
        assert a.read_bytes() == b.read_bytes()


@contextlib.contextmanager
def time_limit(seconds):
    """Fail instead of hanging: the unguarded doubling loop never ends."""

    def expire(signum, frame):
        pytest.fail(f"command still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


class TestBadInput:
    """Out-of-range flags exit 2 with a message naming the flag."""

    @pytest.mark.parametrize("n_min", ["0", "-3"])
    def test_response_non_positive_n_min(self, n_min, capsys):
        with time_limit(0.5):
            code = run_cli(["response", "--dim", "16", "--n-max", "64", "--n-min", n_min])
        assert code == 2
        assert f"--n-min must be >= 1, got {n_min}" in capsys.readouterr().err

    def test_response_n_max_below_n_min(self, tmp_path, capsys):
        out = tmp_path / "r.csv"
        code = run_cli(["response", "--dim", "16", "--n-min", "64", "--n-max", "8",
                        "--out", str(out)])
        assert code == 2
        assert "--n-max must be >= 64, got 8" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--queries", "--trials"])
    def test_response_zero_counts(self, flag, tmp_path, capsys):
        out = tmp_path / "r.csv"
        code = run_cli(["response", "--dim", "16", "--n-max", "8", flag, "0", "--out", str(out)])
        assert code == 2
        assert f"{flag} must be >= 1, got 0" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("n_max", ["7", "0"])
    def test_capacity_n_max_below_first_grid_point(self, n_max, capsys):
        code = run_cli(["capacity", "--vsa", "hrr", "--dims", "16", "--n-max", n_max])
        assert code == 2
        assert f"--n-max must be >= 8, got {n_max}" in capsys.readouterr().err

    def test_capacity_zero_trials(self, capsys):
        assert run_cli(["capacity", "--vsa", "hrr", "--dims", "16", "--trials", "0"]) == 2
        assert "--trials must be >= 1, got 0" in capsys.readouterr().err

    def test_truncated_checkpoint_exits_2(self, tmp_path, capsys):
        test_path, _ = write_synth(tmp_path, "test.txt", 20, seed=2)
        ckpt = tmp_path / "model.ckpt"
        tr.save_checkpoint(tr.init_model(100, (8,), 20, "fc", seed=1), ckpt)
        ckpt.write_bytes(ckpt.read_bytes()[:10])
        assert run_cli(["eval", "--data", str(test_path), "--checkpoint", str(ckpt)]) == 2
        assert "header length needs 4 bytes, found 2" in capsys.readouterr().err

    def test_checkpoint_header_claiming_huge_layers_exits_2(self, tmp_path, capsys):
        test_path, _ = write_synth(tmp_path, "test.txt", 20, seed=2)
        ckpt = tmp_path / "model.ckpt"
        tr.save_checkpoint(tr.init_model(100, (8,), 20, "fc", seed=1), ckpt)
        inflate_layer_sizes(ckpt, [100_000, 100_000, 20])
        assert run_cli(["eval", "--data", str(test_path), "--checkpoint", str(ckpt)]) == 2
        assert "layer 0 weights needs 80000000000 bytes, found" in capsys.readouterr().err


class TestTrainEvalCommands:
    def test_train_then_eval_hrr(self, tmp_path):
        train_path, _ = write_synth(tmp_path, "train.txt", 600, seed=1)
        test_path, _ = write_synth(tmp_path, "test.txt", 200, seed=2)
        ckpt = tmp_path / "model.ckpt"
        assert run_cli([
            "train", "--data", str(train_path), "--head", "hrr",
            "--d-prime", "32", "--epochs", "15", "--batch", "32",
            "--hidden", "32,32", "--seed", "4", "--out", str(ckpt),
        ]) == 0
        assert ckpt.exists() and (tmp_path / "model.ckpt.stats.jsonl").exists()
        stats_lines = (tmp_path / "model.ckpt.stats.jsonl").read_text().splitlines()
        assert json.loads(stats_lines[1])["epoch"] == 0
        for line in stats_lines[1:]:
            row = json.loads(line)
            assert set(row) == {
                "epoch", "mean_loss", "seconds", "val_p1", "forward_s", "loss_s",
                "backward_s", "optimizer_s", "eval_s", "examples_per_s", "j_p", "j_n",
                "grad_norm",
            }
            assert abs(row["j_p"] + row["j_n"] - row["mean_loss"]) <= 1e-12

        report_path = tmp_path / "report.json"
        assert run_cli([
            "eval", "--data", str(test_path), "--checkpoint", str(ckpt),
            "--train-data", str(train_path), "--out", str(report_path),
        ]) == 0
        payload = json.loads(report_path.read_text())
        assert payload["metrics"]["P@1"] >= 0.8
        assert payload["params"]["compression_percent"] == pytest.approx(
            tr.compression_percent(20, 32, 32)
        )

    def test_zero_learning_rate_checkpoint_equals_init(self, tmp_path):
        train_path, ds = write_synth(tmp_path, "train.txt", 64, seed=3)
        ckpt = tmp_path / "frozen.ckpt"
        assert run_cli([
            "train", "--data", str(train_path), "--head", "fc",
            "--epochs", "2", "--lr", "0", "--hidden", "8", "--seed", "11",
            "--out", str(ckpt),
        ]) == 0
        loaded, _ = tr.load_checkpoint(ckpt)
        init = tr.init_model(ds.n_features, [8], ds.n_labels, "fc", seed=11)
        for a, b in zip(loaded.weights + loaded.biases, init.weights + init.biases):
            np.testing.assert_array_equal(a, b)

    def test_train_determinism_bytes(self, tmp_path):
        train_path, _ = write_synth(tmp_path, "train.txt", 128, seed=5)
        blobs = []
        for name in ("a.ckpt", "b.ckpt"):
            ckpt = tmp_path / name
            assert run_cli([
                "train", "--data", str(train_path), "--head", "hrr",
                "--d-prime", "16", "--epochs", "2", "--hidden", "8",
                "--seed", "2", "--out", str(ckpt),
            ]) == 0
            blobs.append(ckpt.read_bytes())
        assert blobs[0] == blobs[1]

    def test_eval_perfect_predictions_file(self, tmp_path):
        test_path, ds = write_synth(tmp_path, "test.txt", 50, seed=6)
        preds = tmp_path / "preds.txt"
        lines = []
        for ex in ds.examples:
            ranked = ex.labels.tolist() + [
                i for i in range(ds.n_labels) if i not in set(ex.labels.tolist())
            ]
            lines.append(" ".join(map(str, ranked)))
        preds.write_text("\n".join(lines) + "\n", encoding="utf-8")
        out = tmp_path / "oracle.json"
        assert run_cli([
            "eval", "--data", str(test_path), "--predictions", str(preds),
            "--k", "1,2", "--out", str(out),
        ]) == 0
        payload = json.loads(out.read_text())
        assert payload["metrics"]["P@1"] == 1.0
        assert payload["metrics"]["P@2"] == 1.0  # every example has 2 labels

    @pytest.mark.parametrize(
        "row,message",
        [
            ("2 -1 0", "3: '-1' is not a label in [0, 3)"),
            ("5 1 0", "3: '5' is not a label in [0, 3)"),
            ("2 x 0", "3: 'x' is not a label in [0, 3)"),
            ("2 1.0 0", "3: '1.0' is not a label in [0, 3)"),
        ],
    )
    def test_eval_rejects_bad_predictions_file(self, tmp_path, capsys, row, message):
        data_path = tmp_path / "test.txt"
        ds = dataio.synth_generate(3, 6, 3, labels_per_point=1, seed=6)
        data_path.write_text(dataio.serialize_xml_repo(ds), encoding="utf-8")
        preds, out = tmp_path / "preds.txt", tmp_path / "report.json"
        preds.write_text(f"# ranked labels\n0 1 2\n{row}\n2 1 0\n", encoding="utf-8")
        assert run_cli([
            "eval", "--data", str(data_path), "--predictions", str(preds),
            "--k", "1", "--out", str(out),
        ]) == 2
        assert f"hrrkit: {preds}:{message}\n" == capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("mode", ["--checkpoint", "--predictions"])
    def test_eval_empty_k_exits_2_before_any_work(self, tmp_path, capsys, monkeypatch, mode):
        data_path, _ = write_synth(tmp_path, "test.txt", 4, seed=3)
        source = tmp_path / "source"
        if mode == "--checkpoint":
            tr.save_checkpoint(tr.init_model(100, (8,), 20, "fc", seed=1), source)
        else:
            source.write_text("0\n1\n2\n3\n", encoding="utf-8")
        monkeypatch.setattr(dataio, "parse_xml_repo", lambda *a, **k: pytest.fail("data parsed"))
        out = tmp_path / "report.json"
        assert run_cli([
            "eval", "--data", str(data_path), mode, str(source), "--k", "", "--out", str(out),
        ]) == 2
        assert capsys.readouterr().err == "hrrkit: --k needs one or more cutoffs, each >= 1, got ''\n"
        assert not out.exists()

    @pytest.mark.parametrize("k", ["0,5", "-2", "5,0", "1,-3"])
    def test_eval_cutoff_below_one_exits_2_before_any_work(self, tmp_path, capsys, monkeypatch, k):
        data_path, _ = write_synth(tmp_path, "test.txt", 4, seed=3)
        ckpt = tmp_path / "m.ckpt"
        tr.save_checkpoint(tr.init_model(100, (8,), 20, "fc", seed=1), ckpt)
        monkeypatch.setattr(dataio, "parse_xml_repo", lambda *a, **kw: pytest.fail("data parsed"))
        monkeypatch.setattr(tr, "predict_rankings", lambda *a, **kw: pytest.fail("decoded"))
        out = tmp_path / "report.json"
        assert run_cli([
            "eval", "--data", str(data_path), "--checkpoint", str(ckpt), f"--k={k}", "--out", str(out),
        ]) == 2
        assert capsys.readouterr().err == f"hrrkit: --k needs one or more cutoffs, each >= 1, got {k!r}\n"
        assert not out.exists()

    def test_eval_predictions_row_count_mismatch_names_the_file(self, tmp_path, capsys):
        data_path = tmp_path / "test.txt"
        ds = dataio.synth_generate(3, 6, 3, labels_per_point=1, seed=6)
        data_path.write_text(dataio.serialize_xml_repo(ds), encoding="utf-8")
        preds, out = tmp_path / "preds.txt", tmp_path / "report.json"
        preds.write_text("0 1 2\n2 1 0\n", encoding="utf-8")
        assert run_cli([
            "eval", "--data", str(data_path), "--predictions", str(preds),
            "--k", "1", "--out", str(out),
        ]) == 2
        assert capsys.readouterr().err == (
            f"hrrkit: predictions file {preds} has 2 rows, dataset has 3\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("mode", ["--checkpoint", "--predictions"])
    def test_eval_cutoff_above_label_count_exits_2_after_reading_data(
        self, tmp_path, capsys, monkeypatch, mode
    ):
        data_path, _ = write_synth(tmp_path, "test.txt", 4, seed=3)
        source = tmp_path / "source"
        if mode == "--checkpoint":
            tr.save_checkpoint(tr.init_model(100, (8,), 20, "fc", seed=1), source)
        else:
            source.write_text("0\n1\n2\n3\n", encoding="utf-8")
        monkeypatch.setattr(tr, "load_checkpoint", lambda *a, **kw: pytest.fail("checkpoint loaded"))
        monkeypatch.setattr(tr, "predict_rankings", lambda *a, **kw: pytest.fail("decoded"))
        out = tmp_path / "report.json"
        assert run_cli([
            "eval", "--data", str(data_path), mode, str(source), "--k", "1,21,20",
            "--train-data", str(tmp_path / "missing-train.txt"), "--out", str(out),
        ]) == 2
        assert capsys.readouterr().err == (
            f"hrrkit: --k cutoff 21 exceeds the 20 labels of --data {data_path}\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("sources", [[], ["--checkpoint", "m.ckpt", "--predictions", "p.txt"]])
    def test_eval_needs_one_source_before_reading_data(self, tmp_path, capsys, monkeypatch, sources):
        monkeypatch.setattr(dataio, "parse_xml_repo", lambda *a, **kw: pytest.fail("data parsed"))
        monkeypatch.setattr(tr, "predict_rankings", lambda *a, **kw: pytest.fail("decoded"))
        out = tmp_path / "report.json"
        assert run_cli([
            "eval", "--data", str(tmp_path / "missing.txt"), *sources, "--out", str(out),
        ]) == 2
        assert capsys.readouterr().err == (
            "hrrkit: provide exactly one of --checkpoint or --predictions\n"
        )
        assert not out.exists()

    def test_eval_missing_train_data_exits_2_before_the_checkpoint_loads(
        self, tmp_path, capsys, monkeypatch
    ):
        data_path, _ = write_synth(tmp_path, "test.txt", 4, seed=3)
        ckpt, missing = tmp_path / "m.ckpt", tmp_path / "missing-train.txt"
        tr.save_checkpoint(tr.init_model(100, (8,), 20, "fc", seed=1), ckpt)
        monkeypatch.setattr(tr, "load_checkpoint", lambda *a, **kw: pytest.fail("checkpoint loaded"))
        monkeypatch.setattr(tr, "predict_rankings", lambda *a, **kw: pytest.fail("decoded"))
        out = tmp_path / "report.json"
        assert run_cli([
            "eval", "--data", str(data_path), "--checkpoint", str(ckpt),
            "--train-data", str(missing), "--out", str(out),
        ]) == 2
        err = capsys.readouterr().err
        assert err.startswith("hrrkit: ") and str(missing) in err
        assert not out.exists()

    @pytest.mark.parametrize("mode", ["--checkpoint", "--predictions"])
    def test_eval_train_data_label_count_mismatch_names_both_counts(
        self, tmp_path, capsys, monkeypatch, mode
    ):
        data_path, _ = write_synth(tmp_path, "test.txt", 4, seed=3)
        other = dataio.synth_generate(6, 100, 25, labels_per_point=2, seed=4)
        train_path = tmp_path / "train.txt"
        train_path.write_text(dataio.serialize_xml_repo(other), encoding="utf-8")
        source = tmp_path / "source"
        if mode == "--checkpoint":
            tr.save_checkpoint(tr.init_model(100, (8,), 20, "fc", seed=1), source)
        else:
            source.write_text("0\n1\n2\n3\n", encoding="utf-8")
        monkeypatch.setattr(tr, "load_checkpoint", lambda *a, **kw: pytest.fail("checkpoint loaded"))
        monkeypatch.setattr(tr, "predict_rankings", lambda *a, **kw: pytest.fail("decoded"))
        out = tmp_path / "report.json"
        assert run_cli([
            "eval", "--data", str(data_path), mode, str(source),
            "--train-data", str(train_path), "--out", str(out),
        ]) == 2
        assert capsys.readouterr().err == (
            f"hrrkit: --train-data {train_path} has 25 labels, --data {data_path} has 20\n"
        )
        assert not out.exists()

    def test_train_without_hidden_layers_exits_2(self, tmp_path, capsys):
        train_path, _ = write_synth(tmp_path, "train.txt", 16, seed=4)
        ckpt = tmp_path / "m.ckpt"
        assert run_cli([
            "train", "--data", str(train_path), "--head", "fc", "--hidden", "",
            "--epochs", "1", "--out", str(ckpt),
        ]) == 2
        assert capsys.readouterr().err == "hrrkit: --hidden needs at least one layer width, got ''\n"
        assert not ckpt.exists()

    def test_train_empty_hidden_exits_2_before_any_work(self, tmp_path, capsys):
        missing = tmp_path / "missing.txt"
        ckpt = tmp_path / "x.ckpt"
        assert run_cli([
            "train", "--data", str(missing), "--head", "fc", "--hidden", "", "--out", str(ckpt),
        ]) == 2
        assert capsys.readouterr().err == "hrrkit: --hidden needs at least one layer width, got ''\n"
        assert not ckpt.exists()

    @pytest.mark.parametrize("hidden", ["0", "8,0", "-4"])
    def test_train_hidden_width_below_one_exits_2_before_any_work(
        self, tmp_path, capsys, hidden
    ):
        # --data names no file, so reading it first would report that instead
        ckpt = tmp_path / "x.ckpt"
        assert run_cli([
            "train", "--data", str(tmp_path / "missing.txt"), "--head", "fc",
            "--hidden", hidden, "--out", str(ckpt),
        ]) == 2
        assert capsys.readouterr().err == (
            f"hrrkit: --hidden widths must each be >= 1, got {hidden!r}\n"
        )
        assert not ckpt.exists()

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--head", "fc", "--batch", "0"], "batch_size must be >= 1, got 0"),
            (["--head", "fc", "--epochs", "-1"], "epochs must be >= 0, got -1"),
            (["--head", "fc", "--lr", "-0.5"], "lr must be >= 0.0, got -0.5"),
            (["--head", "fc", "--weight-decay", "-5"], "weight_decay must be >= 0.0, got -5.0"),
            (["--head", "hrr", "--dropout", "1.0"], "dropout must be in [0, 1), got 1.0"),
            (["--head", "hrr", "--d-prime", "1"], "--d-prime must be >= 2, got 1"),
        ],
    )
    def test_train_config_errors_come_before_reading_data(self, tmp_path, capsys, flags, message):
        # --data names no file, so reading it first would report that instead
        ckpt = tmp_path / "x.ckpt"
        assert run_cli([
            "train", "--data", str(tmp_path / "missing.txt"), *flags, "--out", str(ckpt),
        ]) == 2
        assert capsys.readouterr().err == f"hrrkit: {message}\n"
        assert not ckpt.exists()

    def test_fc_head_ignores_d_prime(self, tmp_path):
        train_path, _ = write_synth(tmp_path, "train.txt", 16, seed=4)
        ckpt = tmp_path / "m.ckpt"
        assert run_cli([
            "train", "--data", str(train_path), "--head", "fc", "--d-prime", "1",
            "--hidden", "8", "--epochs", "1", "--out", str(ckpt),
        ]) == 0

    @pytest.mark.parametrize("sizes", [[100, 20], [100]])
    def test_eval_checkpoint_with_fewer_than_three_layer_sizes_exits_2(
        self, tmp_path, capsys, sizes
    ):
        data_path, _ = write_synth(tmp_path, "test.txt", 4, seed=3)
        ckpt = tmp_path / "m.ckpt"
        rng = np.random.default_rng(1)
        tr.save_checkpoint(tr.MlpModel([rng.standard_normal((100, 20))], [np.zeros(20)], "fc"), ckpt)
        inflate_layer_sizes(ckpt, sizes)
        out = tmp_path / "report.json"
        assert run_cli([
            "eval", "--data", str(data_path), "--checkpoint", str(ckpt), "--out", str(out),
        ]) == 2
        assert capsys.readouterr().err == (
            f"hrrkit: checkpoint {ckpt} has {len(sizes)} layer sizes; a model needs at "
            f"least 3 (input, hidden, output)\n"
        )
        assert not out.exists()

    def test_eval_shape_mismatch_exits_2(self, tmp_path, capsys):
        train_path, _ = write_synth(tmp_path, "train.txt", 64, seed=7)
        ckpt = tmp_path / "m.ckpt"
        run_cli([
            "train", "--data", str(train_path), "--head", "fc", "--epochs", "1",
            "--hidden", "8", "--out", str(ckpt),
        ])
        other = dataio.synth_generate(10, 40, 5, labels_per_point=1, seed=8)
        other_path = tmp_path / "other.txt"
        other_path.write_text(dataio.serialize_xml_repo(other), encoding="utf-8")
        assert run_cli([
            "eval", "--data", str(other_path), "--checkpoint", str(ckpt),
        ]) == 2
        assert "features" in capsys.readouterr().err

    def test_malformed_data_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("1 2\n", encoding="utf-8")
        assert run_cli([
            "train", "--data", str(bad), "--head", "fc", "--epochs", "1",
            "--out", str(tmp_path / "x.ckpt"),
        ]) == 2
        assert "header" in capsys.readouterr().err

    def test_header_beyond_int64_exits_2(self, tmp_path, capsys):
        big = tmp_path / "big.txt"
        big.write_text("1 100000000000000000000000000000 2\n0 99999999999999999999999:1.0\n")
        assert run_cli([
            "train", "--data", str(big), "--head", "fc", "--epochs", "1",
            "--out", str(tmp_path / "x.ckpt"),
        ]) == 2
        err = capsys.readouterr().err
        assert err == "hrrkit: line 1: header sizes 1 100000000000000000000000000000 2 exceed int64\n"

    @pytest.mark.parametrize(
        "head, val_shape, message",
        [
            ("fc", (80, 4), "validation set has 80 features, model input has 40"),
            ("hrr", (80, 4), "validation set has 80 features, model input has 40"),
            ("fc", (40, 6), "validation set has 6 labels, model outputs 4"),
            ("hrr", (40, 6), "validation set has 6 labels, label space has 4 classes"),
        ],
    )
    def test_train_rejects_mismatched_validation_data(self, tmp_path, capsys, head, val_shape, message):
        paths = []
        for name, shape, seed in (("train.txt", (40, 4), 1), ("val.txt", val_shape, 2)):
            ds = dataio.synth_generate(32, *shape, labels_per_point=2, seed=seed)
            paths.append(tmp_path / name)
            paths[-1].write_text(dataio.serialize_xml_repo(ds), encoding="utf-8")
        ckpt = tmp_path / "m.ckpt"
        assert run_cli([
            "train", "--data", str(paths[0]), "--val-data", str(paths[1]), "--head", head,
            "--d-prime", "16", "--hidden", "8", "--epochs", "1", "--out", str(ckpt),
        ]) == 2
        assert capsys.readouterr().err == f"hrrkit: {message}\n"
        assert not ckpt.exists()

    def test_divergence_maps_to_exit_3(self, tmp_path, monkeypatch):
        train_path, _ = write_synth(tmp_path, "train.txt", 16, seed=9)

        def explode(*args, **kwargs):
            raise tr.TrainingDivergedError("non-finite loss at epoch 0, batch 0")

        monkeypatch.setattr(tr, "train", explode)
        assert run_cli([
            "train", "--data", str(train_path), "--head", "fc", "--epochs", "1",
            "--hidden", "4", "--out", str(tmp_path / "d.ckpt"),
        ]) == 3
