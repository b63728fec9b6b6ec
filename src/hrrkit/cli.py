"""Experiment runner: capacity sweeps, response curves, training, evaluation.

Every subcommand is deterministic given its flags and seed: output files
carry a manifest header (subcommand, resolved configuration, seed, tool
version) and no timestamps, so identical invocations produce identical
bytes. Exit codes: 0 success, 2 usage or configuration error, 3 numeric
divergence during training.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import dataclasses
import functools
import json
import sys
import time

from . import __version__
from . import data as dataio
from . import labels as labelcodec
from . import metrics as metricsmod
from . import trainer as trainermod
from .capacity import MIN_PAIRS, ResponseStats, capacity_sweep
from .capacity import predicted_error, query_response_distribution
from .vsa import VsaKind, _check_dim

_EXIT_USAGE = 2
_EXIT_DIVERGED = 3


def _manifest(subcommand, args):
    # Keys that do not influence computed results are left out, so
    # identical experiments produce identical output bytes.
    return {
        "tool": f"hrrkit-{__version__}",
        "subcommand": subcommand,
        "config": {
            key: value
            for key, value in sorted(vars(args).items())
            if key not in ("func", "config", "out", "stats", "jobs", "subcommand")
            and value is not None
        },
    }


def _write_result(out, fmt, manifest, body, header=None, rows=()):
    """Write one result file to `out` (stdout when None).

    JSON is the manifest and `body` as one object; CSV is the manifest as
    `# key: value` comments, then `header` and `rows`. Cells are written
    with str, which for Python floats is their round-tripping repr.
    """
    if fmt == "json":
        text = json.dumps({"manifest": manifest, **body}, indent=2, sort_keys=True) + "\n"
    else:
        items = [("tool", manifest["tool"]), ("subcommand", manifest["subcommand"])]
        lines = [f"# {key}: {value}" for key, value in items + list(manifest["config"].items())]
        lines += [",".join(header)] + [",".join(map(str, row)) for row in rows]
        text = "\n".join(lines) + "\n"
    if out:
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _write_stats(path, manifest, rows):
    # Telemetry (timings, model predictions) goes here, never into results.
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"manifest": manifest}, sort_keys=True) + "\n")
        for row in rows:
            fh.write(json.dumps(row, sort_keys=True) + "\n")


def _int_list(text):
    return [int(tok) for tok in str(text).split(",") if tok]


def _check_min(args, **minimums):
    # Reject flag values below their minimum before any work starts.
    for key, low in minimums.items():
        value = getattr(args, key)
        if value < low:
            raise ValueError(f"--{key.replace('_', '-')} must be >= {low}, got {value}")


def _vsa_list(values):
    return [VsaKind(tok) for value in values for tok in str(value).split(",") if tok]


# ----------------------------------------------------------------- capacity


def _cell_stats(est):
    row = {"kind": est.kind.value, "d": est.d, "n": est.n, "trials": est.trials,
           "seconds": est.seconds, "p_error": est.p_error}
    if est.kind is VsaKind.HRR_PROJECTED:
        row["predicted_p_error"] = predicted_error(est.d, est.n)
    return row


def cmd_capacity(args):
    _check_min(args, n_max=MIN_PAIRS, trials=1, jobs=1)
    kinds = _vsa_list(args.vsa)
    dims = [d for spec in args.dims for d in _int_list(spec)]
    if not kinds or not dims:
        raise ValueError("need at least one --vsa and one --dims value")
    order = list(VsaKind)
    cells = sorted(((kind, d) for kind in kinds for d in dims),
                   key=lambda cell: (order.index(cell[0]), cell[1]))
    for kind, d in cells:  # every cell's dimension, before the first sweep runs
        _check_dim(kind, d)
    sweep = functools.partial(capacity_sweep, threshold=args.threshold, seed=args.seed,
                              trials=args.trials, n_max=args.n_max)
    if args.jobs > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=args.jobs) as pool:
            sweeps = list(pool.map(sweep, *zip(*cells)))
    else:
        sweeps = [sweep(kind, d) for kind, d in cells]

    manifest = _manifest("capacity", args)
    if args.stats:
        stats = [_cell_stats(est) for *_, estimates in sweeps for est in estimates]
        _write_stats(args.stats, manifest, stats)
    fields = ("kind", "d", "n", "trial", "errors", "p_error")
    body, rows = {"trials": [], "capacities": []}, []
    for (kind, d), (capacity, saturated, estimates) in zip(cells, sweeps):
        for est in estimates:
            for trial, errors in enumerate(est.per_trial_errors):
                row = (kind.value, est.d, est.n, trial, errors, errors / est.n)
                body["trials"].append(dict(zip(fields, row)))
                rows.append(("trial", *row, ""))
        body["capacities"].append(
            {"kind": kind.value, "d": d, "capacity": capacity, "saturated": saturated}
        )
        rows.append(("capacity", kind.value, d, "", "", "", "", capacity))
    _write_result(args.out, args.format, manifest, body,
                  header=("record", *fields, "capacity"), rows=rows)
    return 0


# ----------------------------------------------------------------- response


def cmd_response(args):
    _check_min(args, n_min=1, trials=1, queries=1)
    _check_min(args, n_max=args.n_min)
    n_values = []
    n = args.n_min
    while n <= args.n_max:
        n_values.append(n)
        n *= 2
    # One call per n: each n's draws depend only on the seed, n and trial.
    stats, timings = [], []
    for n in n_values:
        started = time.perf_counter()
        stats.append(query_response_distribution(args.dim, n, trials=args.trials, seed=args.seed,
                                                 kind=VsaKind(args.kind), max_queries=args.queries))
        timings.append({"n": n, "seconds": time.perf_counter() - started})
    manifest = _manifest("response", args)
    if args.stats:
        _write_stats(args.stats, manifest, timings)
    _write_result(args.out, args.format, manifest,
                  {"rows": [dataclasses.asdict(s) for s in stats]},
                  header=[f.name for f in dataclasses.fields(ResponseStats)],
                  rows=map(dataclasses.astuple, stats))
    return 0


# -------------------------------------------------------------------- train


def cmd_train(args):
    hidden = _int_list(args.hidden)
    if not hidden:
        raise ValueError(f"--hidden needs at least one layer width, got {args.hidden!r}")
    if min(hidden) < 1:
        raise ValueError(f"--hidden widths must each be >= 1, got {args.hidden!r}")
    if args.head == "hrr":
        _check_min(args, d_prime=2)
    config = trainermod.TrainConfig(
        epochs=args.epochs,
        batch_size=args.batch,
        lr=args.lr,
        weight_decay=args.weight_decay,
        dropout=args.dropout,
        seed=args.seed,
    )
    dataset = dataio.parse_xml_repo(args.data, one_based=args.one_based)
    label_seed = args.label_seed if args.label_seed is not None else args.seed
    if args.head == "hrr":
        out_dim = args.d_prime
        space = labelcodec.make_label_space(dataset.n_labels, args.d_prime, label_seed)
    else:
        out_dim = dataset.n_labels
        space = None
    model = trainermod.init_model(
        dataset.n_features, hidden, out_dim, args.head, seed=args.seed
    )
    val = None
    if args.val_data:
        val = dataio.parse_xml_repo(args.val_data, one_based=args.one_based)
    model, stats = trainermod.train(model, dataset, config, space=space, val_dataset=val)
    meta = {
        "n_features": dataset.n_features,
        "n_labels": dataset.n_labels,
        "d_prime": args.d_prime if args.head == "hrr" else None,
        "label_seed": label_seed if args.head == "hrr" else None,
        "hidden": hidden,
        "train_seed": args.seed,
    }
    trainermod.save_checkpoint(model, args.out, extra=meta)
    stats_path = args.stats or (args.out + ".stats.jsonl")
    _write_stats(stats_path, _manifest("train", args), map(dataclasses.asdict, stats))
    return 0


# --------------------------------------------------------------------- eval


def _read_predictions(path, n_expected, n_labels):
    rankings = []
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            if line.startswith("#") or not line.strip():
                continue
            bad = next((t for t in line.split() if not t.isdecimal() or int(t) >= n_labels), None)
            if bad is not None:
                raise ValueError(f"{path}:{line_no}: {bad!r} is not a label in [0, {n_labels})")
            rankings.append([int(tok) for tok in line.split()])
    if len(rankings) != n_expected:
        raise ValueError(
            f"predictions file {path} has {len(rankings)} rows, dataset has {n_expected}"
        )
    return rankings


def cmd_eval(args):
    ks = _int_list(args.k)
    if not ks or min(ks) < 1:
        raise ValueError(f"--k needs one or more cutoffs, each >= 1, got {args.k!r}")
    if (args.checkpoint is None) == (args.predictions is None):
        raise ValueError("provide exactly one of --checkpoint or --predictions")
    dataset = dataio.parse_xml_repo(args.data, one_based=args.one_based)
    if max(ks) > dataset.n_labels:
        raise ValueError(
            f"--k cutoff {max(ks)} exceeds the {dataset.n_labels} labels of --data {args.data}"
        )
    propensities = dataio.compute_propensities(  # only this L-vector outlives --train-data
        dataio.parse_xml_repo(args.train_data, one_based=args.one_based)
        if args.train_data else dataset
    )
    if propensities.size != dataset.n_labels:
        raise ValueError(
            f"--train-data {args.train_data} has {propensities.size} labels, "
            f"--data {args.data} has {dataset.n_labels}"
        )
    manifest, body = _manifest("eval", args), {}
    if args.predictions:
        rankings = _read_predictions(args.predictions, dataset.n_examples, dataset.n_labels)
    else:
        model, header = trainermod.load_checkpoint(args.checkpoint)
        space, comp = None, 0.0
        if model.head == "hrr":
            space = labelcodec.make_label_space(
                header["n_labels"], header["d_prime"], header["label_seed"]
            )
            comp = trainermod.compression_percent(
                header["n_labels"], header["d_prime"], header["layer_sizes"][-2]
            )
        trainermod.check_dataset(model, dataset, space)
        rankings = trainermod.predict_rankings(
            model, dataset, space=space, k=max(ks)
        )
        out_params, total = trainermod.param_count(model)
        body["params"] = {
            "output_params": out_params,
            "total_params": total,
            "compression_percent": comp,
        }
    body["metrics"] = metricsmod.metric_report(rankings, dataset, propensities, ks=ks)
    _write_result(args.out, "json", manifest, body)
    return 0


# ------------------------------------------------------------------ parsing


def _apply_config_file(parser, argv):
    """Expand the subcommand's --config key=value pairs into leading CLI flags.

    A one-option parser finds --config in every spelling argparse accepts
    (`--config PATH`, `--config=PATH`, a unique prefix); the full parse
    still sees it, so it also rejects what the subcommand's parser would.
    """
    sub = parser.subcommands.get(argv[0]) if argv else None
    if sub is None:
        return argv
    finder = argparse.ArgumentParser(prog=sub.prog, add_help=False)
    finder.add_argument("--config")
    path = finder.parse_known_args(argv[1:])[0].config
    if path is None:
        return argv
    injected = []
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            key, eq, value = line.partition("=")
            if not eq:
                sub.error(f"{path}:{line_no}: expected key=value, got {line!r}")
            key = key.strip().replace("-", "_")
            if key not in sub.options:
                sub.error(f"{path}:{line_no}: unknown config key {key!r}")
            action = sub.options[key]
            value = value.strip()
            if action.nargs == 0:  # boolean switch
                if value.lower() in ("1", "true", "yes", "on"):
                    injected.append(action.option_strings[-1])
                elif value.lower() not in ("0", "false", "no", "off"):
                    sub.error(f"{path}:{line_no}: {key} expects a boolean")
            else:
                injected.extend([action.option_strings[-1], value])
    # Config values go first so explicit flags override them.
    return [argv[0], *injected, *argv[1:]]


class _Parser(argparse.ArgumentParser):
    """Keeps each option's action under its config key, for --config."""

    def __init__(self, *args, **kwargs):
        self.options = {}
        super().__init__(*args, **kwargs)

    def add_argument(self, *args, **kwargs):
        action = super().add_argument(*args, **kwargs)
        if action.option_strings:
            self.options[action.option_strings[-1].lstrip("-").replace("-", "_")] = action
        return action


def build_parser():
    parser = _Parser(
        prog="hrrkit",
        description="Binding-capacity benchmarks and dense-label multi-label training.",
    )
    parser.add_argument("--version", action="version", version=f"hrrkit {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    cap = sub.add_parser("capacity", help="retrieval-error sweeps and capacities")
    cap.add_argument("--vsa", action="append", default=None, required=True,
                     help="binding kind: hrr, hrr-proj, map-c, vtb (repeatable or comma list)")
    cap.add_argument("--dims", action="append", required=True,
                     help="embedding sizes, comma separated or repeated")
    cap.add_argument("--threshold", type=float, default=0.03)
    cap.add_argument("--trials", type=int, default=10)
    cap.add_argument("--seed", type=int, default=0)
    cap.add_argument("--n-max", type=int, default=4096)
    cap.add_argument("--jobs", type=int, default=1)
    cap.add_argument("--format", choices=("csv", "json"), default="csv")
    cap.add_argument("--out", default=None)
    cap.add_argument("--stats", default=None,
                     help="JSON-lines path: seconds per (kind, d, n), predicted p_error")
    cap.add_argument("--config", default=None, help="key=value defaults file")
    cap.set_defaults(func=cmd_capacity)

    resp = sub.add_parser("response", help="present/absent query response statistics")
    resp.add_argument("--dim", type=int, required=True)
    resp.add_argument("--n-max", type=int, required=True)
    resp.add_argument("--n-min", type=int, default=4)
    resp.add_argument("--trials", type=int, default=10)
    resp.add_argument("--seed", type=int, default=0)
    resp.add_argument("--kind", choices=("hrr", "hrr-proj"), default="hrr-proj")
    resp.add_argument("--queries", type=int, default=256)
    resp.add_argument("--format", choices=("csv", "json"), default="csv")
    resp.add_argument("--out", default=None)
    resp.add_argument("--stats", default=None, help="JSON-lines path: seconds per n")
    resp.add_argument("--config", default=None)
    resp.set_defaults(func=cmd_response)

    tr = sub.add_parser("train", help="train an fc or hrr head model")
    tr.add_argument("--data", required=True)
    tr.add_argument("--head", choices=("fc", "hrr"), required=True)
    tr.add_argument("--d-prime", type=int, default=400)
    tr.add_argument("--epochs", type=int, default=40)
    tr.add_argument("--lr", type=float, default=1e-3)
    tr.add_argument("--batch", type=int, default=64)
    tr.add_argument("--seed", type=int, default=0)
    tr.add_argument("--label-seed", type=int, default=None)
    tr.add_argument("--hidden", default="512,512")
    tr.add_argument("--weight-decay", type=float, default=0.0)
    tr.add_argument("--dropout", type=float, default=0.0)
    tr.add_argument("--one-based", action="store_true")
    tr.add_argument("--val-data", default=None)
    tr.add_argument("--out", required=True, help="checkpoint path")
    tr.add_argument("--stats", default=None, help="JSON-lines epoch stats path")
    tr.add_argument("--config", default=None)
    tr.set_defaults(func=cmd_train)

    ev = sub.add_parser("eval", help="ranking metrics for a checkpoint or predictions")
    ev.add_argument("--data", required=True)
    ev.add_argument("--checkpoint", default=None)
    ev.add_argument("--predictions", default=None,
                    help="file of space-separated ranked label indices per example")
    ev.add_argument("--train-data", default=None,
                    help="dataset used for propensities (defaults to --data)")
    ev.add_argument("--k", default="1,3,5")
    ev.add_argument("--one-based", action="store_true")
    ev.add_argument("--out", default=None)
    ev.add_argument("--config", default=None)
    ev.set_defaults(func=cmd_eval)
    parser.subcommands = sub.choices  # name -> subparser, for --config expansion
    return parser


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(_apply_config_file(parser, argv))
        return args.func(args)
    except trainermod.TrainingDivergedError as exc:
        print(f"hrrkit: training diverged: {exc}", file=sys.stderr)
        return _EXIT_DIVERGED
    except (ValueError, OSError) as exc:
        print(f"hrrkit: {exc}", file=sys.stderr)
        return _EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
