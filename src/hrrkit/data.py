"""Sparse multi-label dataset I/O and synthetic data generation.

File dialect: a header line "N D L", then one line per example of the form

    label,label,... featureIndex:value featureIndex:value ...

with 0-based decimal indices. The label field may be empty (line starts
with a space); such examples are kept for evaluation but carry no loss.
The serializer emits the same dialect byte-for-byte reproducibly.

Parsing reads the file in blocks of lines and converts and checks each
block with numpy. A block that fails any check is read again line by line,
so an error names the same first bad line with the same message.
"""

from __future__ import annotations

import dataclasses
import io
import itertools

import numpy as np

__all__ = [
    "DatasetFormatError",
    "SparseDataset",
    "SparseExample",
    "compute_propensities",
    "parse_xml_repo",
    "serialize_xml_repo",
    "split_dataset",
    "synth_generate",
]


class DatasetFormatError(ValueError):
    """Malformed dataset text; the message carries the 1-based line number."""


@dataclasses.dataclass(frozen=True)
class SparseExample:
    feat_idx: np.ndarray  # int64, strictly ascending
    feat_val: np.ndarray  # float64, finite
    labels: np.ndarray  # int64, sorted unique

    def __post_init__(self):
        if self.feat_idx.shape != self.feat_val.shape:
            raise ValueError("feature indices and values must align")


@dataclasses.dataclass
class SparseDataset:
    n_examples: int
    n_features: int
    n_labels: int
    examples: list

    def __post_init__(self):
        if self.n_examples != len(self.examples):
            raise ValueError(
                f"declared {self.n_examples} examples, got {len(self.examples)}"
            )

    @property
    def n_unlabeled(self):
        """Examples with empty label sets; kept for evaluation, skipped for loss."""
        sizes = np.array([ex.labels.size for ex in self.examples], dtype=np.int64)
        return int(np.count_nonzero(sizes == 0))


def _parse_int(token, line_no, what):
    try:
        return int(token)
    except ValueError:
        raise DatasetFormatError(
            f"line {line_no}: non-numeric {what} {token!r}"
        ) from None


def _parse_float(token, line_no):
    try:
        value = float(token)
    except ValueError:
        raise DatasetFormatError(
            f"line {line_no}: non-numeric feature value {token!r}"
        ) from None
    if not np.isfinite(value):
        raise DatasetFormatError(f"line {line_no}: non-finite feature value")
    return value


_BLOCK_LINES = 512


def _parse_line(line, line_no, d, l, shift):
    """One example line, checked token by token in line order."""
    label_field, _, rest = line.rstrip("\n").partition(" ")
    labels = []
    if label_field:
        for tok in label_field.split(","):
            idx = _parse_int(tok, line_no, "label index") - shift
            if not 0 <= idx < l:
                raise DatasetFormatError(
                    f"line {line_no}: label index {idx} outside [0, {l})"
                )
            labels.append(idx)
    idxs, vals = [], []
    for tok in rest.split():
        feat, colon, val = tok.partition(":")
        if not colon:
            raise DatasetFormatError(
                f"line {line_no}: feature token {tok!r} missing ':'"
            )
        idx = _parse_int(feat, line_no, "feature index") - shift
        if not 0 <= idx < d:
            raise DatasetFormatError(
                f"line {line_no}: feature index {idx} outside [0, {d})"
            )
        idxs.append(idx)
        vals.append(_parse_float(val, line_no))
    order = np.argsort(idxs, kind="stable")
    idxs = np.asarray(idxs, dtype=np.int64)[order]
    vals = np.asarray(vals, dtype=np.float64)[order]
    if idxs.size and np.any(np.diff(idxs) == 0):
        raise DatasetFormatError(f"line {line_no}: duplicate feature index")
    return SparseExample(
        feat_idx=idxs,
        feat_val=vals,
        labels=np.unique(np.asarray(labels, dtype=np.int64)),
    )


def _ascending_within(values, counts):
    # True when values rise strictly inside each consecutive run of counts.
    rises = np.diff(values) > 0
    starts = np.cumsum(counts)[:-1]
    rises[starts[(starts > 0) & (starts < values.size)] - 1] = True
    return bool(rises.all())


def _line_sort(values, counts):
    # Order sorting values inside each consecutive run of counts (stably),
    # and the run of each value; only blocks with an unsorted line pay it.
    line = np.repeat(np.arange(len(counts)), counts)
    return np.lexsort((values, line)), line


def _parse_block(lines, d, l, shift):
    """Examples of a block of lines, or None if any check fails.

    Accepts only what _parse_line accepts and returns the same arrays for
    it: labels sorted and made unique, features sorted by index (a
    duplicate feature index falls back to _parse_line for its error).
    """
    label_fields, tokens, n_labels, n_feats = [], [], [], []
    for line in lines:
        label_field, _, rest = line.rstrip("\n").partition(" ")
        feats = rest.split()
        tokens += feats
        n_feats.append(len(feats))
        n_labels.append(label_field.count(",") + 1 if label_field else 0)
        if label_field:
            label_fields.append(label_field)
    colons = np.fromiter(
        map(str.count, tokens, itertools.repeat(":")), np.int64, len(tokens)
    )
    if not np.all(colons == 1):
        return None
    label_toks = ",".join(label_fields).split(",") if label_fields else []
    pieces = ":".join(tokens).split(":") if tokens else []
    try:
        labels = np.fromiter(map(int, label_toks), np.int64, len(label_toks)) - shift
        idx = np.fromiter(map(int, pieces[0::2]), np.int64, len(tokens)) - shift
        val = np.fromiter(map(float, pieces[1::2]), np.float64, len(tokens))
    except (ValueError, OverflowError):
        return None
    if not (
        np.all((labels >= 0) & (labels < l))
        and np.all((idx >= 0) & (idx < d))
        and np.all(np.isfinite(val))
    ):
        return None
    if not _ascending_within(labels, n_labels):
        order, line = _line_sort(labels, n_labels)
        labels = labels[order]
        keep = np.ones(labels.size, dtype=bool)
        keep[1:] = (np.diff(labels) != 0) | (np.diff(line) != 0)
        labels, n_labels = labels[keep], np.bincount(line[keep], minlength=len(lines))
    if not _ascending_within(idx, n_feats):
        order, _ = _line_sort(idx, n_feats)
        idx, val = idx[order], val[order]
        if not _ascending_within(idx, n_feats):
            return None
    lab_end = np.cumsum(n_labels).tolist()
    feat_end = np.cumsum(n_feats).tolist()
    return [
        SparseExample(
            feat_idx=idx[f0:f1], feat_val=val[f0:f1], labels=labels[l0:l1]
        )
        for f0, f1, l0, l1 in zip([0] + feat_end, feat_end, [0] + lab_end, lab_end)
    ]


def parse_xml_repo(source, one_based=False):
    """Parse the sparse repository format from a path, text, or stream.

    With one_based=True, label and feature indices in the file are 1-based
    and are shifted down during parsing. The source is read in blocks of
    lines and never held whole.
    """
    if isinstance(source, str) and "\n" not in source:
        with open(source, "r", encoding="utf-8") as fh:
            return parse_xml_repo(fh, one_based=one_based)
    if isinstance(source, str):
        source = io.StringIO(source)
    shift = 1 if one_based else 0

    header = source.readline()
    parts = header.split()
    if len(parts) != 3:
        raise DatasetFormatError(
            f"line 1: header must be 'N D L', got {header.strip()!r}"
        )
    n, d, l = (_parse_int(tok, 1, "header field") for tok in parts)
    if n < 0 or d < 1 or l < 1:
        raise DatasetFormatError(f"line 1: non-positive header sizes {n} {d} {l}")

    examples = []
    line_no = 2
    while block := list(itertools.islice(source, _BLOCK_LINES)):
        # Lines past the declared count go one by one: a trailing blank
        # line is tolerated there, and any other line is an error below.
        fit = max(0, min(len(block), n - len(examples)))
        parsed = _parse_block(block[:fit], d, l, shift) if fit else []
        if parsed is None:
            parsed = [
                _parse_line(line, line_no + i, d, l, shift)
                for i, line in enumerate(block[:fit])
            ]
        examples += parsed
        for i, line in enumerate(block[fit:], start=line_no + fit):
            if not line.strip() and len(examples) == n:
                continue
            examples.append(_parse_line(line, i, d, l, shift))
        line_no += len(block)
    if len(examples) != n:
        raise DatasetFormatError(
            f"header declared {n} examples, file has {len(examples)}"
        )
    return SparseDataset(n_examples=n, n_features=d, n_labels=l, examples=examples)


def serialize_xml_repo(ds, stream=None):
    """Write the dataset in the exact dialect parse_xml_repo accepts."""
    own = stream is None
    if own:
        stream = io.StringIO()
    stream.write(f"{ds.n_examples} {ds.n_features} {ds.n_labels}\n")
    for ex in ds.examples:
        labels = ",".join(str(int(i)) for i in ex.labels)
        feats = " ".join(
            f"{int(i)}:{float(val)!r}" for i, val in zip(ex.feat_idx, ex.feat_val)
        )
        stream.write(f"{labels} {feats}".rstrip() + "\n")
    if own:
        return stream.getvalue()
    return None


def compute_propensities(ds):
    """Per-label relative frequency count_l / N, floored at 1/N for unseen labels."""
    flat = np.concatenate([np.empty(0, dtype=np.int64)] + [ex.labels for ex in ds.examples])
    if flat.size and (flat.min() < 0 or flat.max() >= ds.n_labels):
        bad = flat[(flat < 0) | (flat >= ds.n_labels)][0]
        raise IndexError(f"label {bad} out of range [0, {ds.n_labels})")
    # a label set is unique, so each example adds one to each of its labels
    counts = np.bincount(flat, minlength=ds.n_labels)
    n = max(ds.n_examples, 1)
    return np.maximum(counts, 1.0) / n


def synth_generate(n_examples, n_features, n_labels, labels_per_point, seed, noise=0.0):
    """Planted separable dataset: each label owns a disjoint feature block.

    An example's features are the blocks of its labels, each entry 1 plus
    Gaussian noise. With zero noise the block-sum classifier recovers the
    labels exactly, so a correct trainer must reach high precision.
    """
    if n_features < n_labels:
        raise ValueError("need at least one feature per label")
    if not 1 <= labels_per_point <= n_labels:
        raise ValueError("labels_per_point out of range")
    block = n_features // n_labels
    rng = np.random.Generator(np.random.PCG64(seed))
    examples = []
    for _ in range(n_examples):
        chosen = np.sort(rng.choice(n_labels, size=labels_per_point, replace=False))
        idxs = np.concatenate([np.arange(l * block, (l + 1) * block) for l in chosen])
        vals = np.ones(idxs.size)
        if noise > 0.0:
            vals = vals + noise * rng.standard_normal(idxs.size)
        examples.append(
            SparseExample(
                feat_idx=idxs.astype(np.int64),
                feat_val=vals,
                labels=chosen.astype(np.int64),
            )
        )
    return SparseDataset(
        n_examples=n_examples,
        n_features=n_features,
        n_labels=n_labels,
        examples=examples,
    )


def split_dataset(ds, test_fraction=0.2, seed=0):
    """Seeded shuffle split for data without published train/test files."""
    if not 0.0 < test_fraction < 1.0:
        raise ValueError("test_fraction must be in (0, 1)")
    rng = np.random.Generator(np.random.PCG64(seed))
    order = rng.permutation(ds.n_examples)
    n_test = max(1, int(round(ds.n_examples * test_fraction)))
    test_ids = set(order[:n_test].tolist())
    train = [ex for i, ex in enumerate(ds.examples) if i not in test_ids]
    test = [ex for i, ex in enumerate(ds.examples) if i in test_ids]
    make = lambda rows: SparseDataset(
        n_examples=len(rows),
        n_features=ds.n_features,
        n_labels=ds.n_labels,
        examples=rows,
    )
    return make(train), make(test)
