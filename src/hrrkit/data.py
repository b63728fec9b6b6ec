"""Sparse multi-label dataset I/O and synthetic data generation.

File dialect: a header line "N D L", then one line per example of the form

    label,label,... featureIndex:value featureIndex:value ...

with 0-based decimal indices. The label field may be empty (line starts
with a space); such examples are kept for evaluation but carry no loss.
The serializer emits the same dialect byte-for-byte reproducibly.

Parsing reads the file in blocks of lines, converts each block with numpy
and checks it by the rule that the CSR array store (SparseDataset) applies
at construction: indices inside [0, D) and [0, L), finite values, no
feature index twice in a row. A failing block is then checked line by
line, only to word the error: the first bad line and its first fault.
"""

from __future__ import annotations

import collections
import dataclasses
import io
import itertools
import os

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


SparseExample = collections.namedtuple("SparseExample", "feat_idx feat_val labels")  # a row's views


@dataclasses.dataclass(frozen=True)
class SparseDataset:
    """Multi-label examples in one CSR array store.

    Row i's features are indices[indptr[i]:indptr[i + 1]] (int64, strictly
    ascending) with values (float64) at the same positions; its labels are
    labels[label_indptr[i]:label_indptr[i + 1]] (int64, sorted unique).
    take(rows) gathers a sub-dataset; examples builds row views on access.

    The constructor refuses sizes that are not integers (bool included) or
    below 1, and the first row parse_xml_repo would refuse once written, in
    the parser's words ("row 1: duplicate feature index"), or that repeats
    a label ("row 0: duplicate label index"; the parser makes labels
    unique, so that row would read back as another). The fields are
    frozen, so none is reassigned past it.
    """

    n_features: int
    n_labels: int
    indptr: np.ndarray
    indices: np.ndarray
    values: np.ndarray
    label_indptr: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        for name in ("indptr", "indices", "values", "label_indptr", "labels"):
            dtype = np.float64 if name == "values" else np.int64
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=dtype))
        for what, ptr, size in (
            ("indices", self.indptr, self.indices.size),
            ("values", self.indptr, self.values.size),
            ("labels", self.label_indptr, self.labels.size),
        ):
            if not (ptr.size and ptr[0] == 0 and ptr[-1] == size) or np.any(np.diff(ptr) < 0):
                raise ValueError(f"pointers into {what} must run from 0 to {size} and never fall")
        rows = (self.indptr.size - 1, self.label_indptr.size - 1)
        if rows[0] != rows[1]:
            raise ValueError(f"{rows[0]} feature rows, {rows[1]} label rows")
        d, l = self.n_features, self.n_labels
        for name, size in (("n_features", d), ("n_labels", l)):
            if isinstance(size, bool) or not isinstance(size, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {size!r}")
        if d < 1 or l < 1:
            raise ValueError(f"non-positive header sizes {rows[0]} {d} {l}")
        arrays = self.indptr, self.indices, self.values, self.label_indptr, self.labels
        row = _first_refused_row(d, l, *arrays)
        # the parser makes a row's labels unique, so it refuses no repeat
        repeat = _first_repeat(self.labels, self.label_indptr)
        if repeat is not None and (row is None or repeat < row):
            raise ValueError(f"row {repeat}: duplicate label index")
        if row is not None:
            try:
                _check_line(next(_lines(self, row)), row + 2, d, l, 0)
            except DatasetFormatError as err:  # "line N: fault"
                raise ValueError(f"row {row}: {str(err).partition(': ')[2]}") from None

    @property
    def n_examples(self):
        return self.indptr.size - 1

    @property
    def n_unlabeled(self):
        """Examples with empty label sets; kept for evaluation, skipped for loss."""
        return int(np.count_nonzero(np.diff(self.label_indptr) == 0))

    @property
    def examples(self):
        """SparseExample views of the rows, as a tuple built on each access."""
        f, l = self.indptr.tolist(), self.label_indptr.tolist()
        return tuple(
            SparseExample(self.indices[f0:f1], self.values[f0:f1], self.labels[l0:l1])
            for f0, f1, l0, l1 in zip(f, f[1:], l, l[1:])
        )

    def take(self, rows):
        """The rows at an index array, a boolean mask or a slice, in that order."""
        arrays = []
        pairs = (self.indptr, (self.indices, self.values)), (self.label_indptr, (self.labels,))
        for ptr, flats in pairs:
            starts = ptr[:-1][rows]
            counts = ptr[1:][rows] - starts
            out = np.cumsum(np.append(0, counts))
            at = np.arange(out[-1]) + np.repeat(starts - out[:-1], counts)
            arrays += [out, *(flat[at] for flat in flats)]
        return SparseDataset(self.n_features, self.n_labels, *arrays)


def _parse_int(token, line_no, what):
    try:
        return int(token)
    except ValueError:
        raise DatasetFormatError(
            f"line {line_no}: non-numeric {what} {token!r}"
        ) from None


def _check_float(token, line_no):
    try:
        value = float(token)
    except ValueError:
        raise DatasetFormatError(
            f"line {line_no}: non-numeric feature value {token!r}"
        ) from None
    if not np.isfinite(value):
        raise DatasetFormatError(f"line {line_no}: non-finite feature value")


_BLOCK_LINES = 512


def _check_line(line, line_no, d, l, shift):
    """Raise the first error of one example line, checking tokens in line order."""
    label_field, _, rest = line.rstrip("\n").partition(" ")
    if label_field:
        for tok in label_field.split(","):
            idx = _parse_int(tok, line_no, "label index") - shift
            if not 0 <= idx < l:
                raise DatasetFormatError(
                    f"line {line_no}: label index {idx} outside [0, {l})"
                )
    idxs = []
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
        _check_float(val, line_no)
    if len(set(idxs)) < len(idxs):
        raise DatasetFormatError(f"line {line_no}: duplicate feature index")


def _ascending_within(values, counts):
    # True when values rise strictly inside each consecutive run of counts.
    rises = values[1:] > values[:-1]
    starts = np.cumsum(counts)[:-1]
    rises[starts[(starts > 0) & (starts < values.size)] - 1] = True
    return bool(rises.all())


def _line_sort(values, counts):
    # Order sorting values inside each consecutive run of counts (stably),
    # and the run of each value; only blocks with an unsorted line pay it.
    line = np.repeat(np.arange(len(counts)), counts)
    return np.lexsort((values, line)), line


def _parse_block(lines, d, l, shift):
    """The block's part of the store, or None if any check fails.

    Refuses a block exactly when _check_line raises for one of its lines.
    A row's labels are sorted and made unique, its features sorted by index.
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
    if not _ascending_within(labels, n_labels):
        order, line = _line_sort(labels, n_labels)
        labels = labels[order]
        keep = np.ones(labels.size, dtype=bool)
        keep[1:] = (np.diff(labels) != 0) | (np.diff(line) != 0)
        labels, n_labels = labels[keep], np.bincount(line[keep], minlength=len(lines))
    if not _ascending_within(idx, n_feats):
        order, _ = _line_sort(idx, n_feats)
        idx, val = idx[order], val[order]
    indptr, label_indptr = (np.cumsum(np.append(0, c)) for c in (n_feats, n_labels))
    if _first_refused_row(d, l, indptr, idx, val, label_indptr, labels) is not None:
        return None
    return n_feats, idx, val, n_labels, labels


def parse_xml_repo(source, one_based=False):
    """Parse the sparse repository format from a path or a text stream.

    A str or os.PathLike source is a file path; anything else is read as a
    text stream (wrap text in io.StringIO). With one_based=True, label and
    feature indices in the file are 1-based and are shifted down during
    parsing. The source is read in blocks of lines and never held whole.
    """
    if isinstance(source, (str, os.PathLike)):
        with open(source, "r", encoding="utf-8") as fh:
            return parse_xml_repo(fh, one_based=one_based)
    shift = 1 if one_based else 0

    header = source.readline()
    fields = header.split()
    if len(fields) != 3:
        raise DatasetFormatError(
            f"line 1: header must be 'N D L', got {header.strip()!r}"
        )
    n, d, l = (_parse_int(tok, 1, "header field") for tok in fields)
    if n < 0 or d < 1 or l < 1:
        raise DatasetFormatError(f"line 1: non-positive header sizes {n} {d} {l}")
    if max(n, d, l) >= 2**63:  # indices below D and L then fit the int64 store
        raise DatasetFormatError(f"line 1: header sizes {n} {d} {l} exceed int64")

    # SparseDataset's arrays with row counts in place of pointers. Parts are
    # appended in place (resize reallocates), so the peak is the store plus a block.
    columns = [np.empty(0, t) for t in (np.int64, np.int64, np.float64, np.int64, np.int64)]
    count, line_no = 0, 2
    while block := list(itertools.islice(source, _BLOCK_LINES)):
        # Lines past the declared count go one by one: a trailing blank
        # line is tolerated there, and any other line is an error below.
        fit = max(0, min(len(block), n - count))
        if fit:
            part = _parse_block(block[:fit], d, l, shift)
            if part is None:  # some line fails a check: the first one raises here
                for i, line in enumerate(block[:fit], start=line_no):
                    _check_line(line, i, d, l, shift)
            for column, new in zip(columns, part):
                column.resize(column.size + len(new), refcheck=False)
                column[column.size - len(new) :] = new
            count += fit
        for i, line in enumerate(block[fit:], start=line_no + fit):
            if not line.strip() and count == n:
                continue
            _check_line(line, i, d, l, shift)
            count += 1
        line_no += len(block)
    if count != n:
        raise DatasetFormatError(f"header declared {n} examples, file has {count}")
    columns[0], columns[3] = (np.cumsum(np.append(0, columns[k])) for k in (0, 3))
    return SparseDataset(d, l, *columns)


def _first_refused_row(d, l, indptr, indices, values, label_indptr, labels):
    """The first row of these SparseDataset arrays that parse_xml_repo would
    refuse once written, or None. Checking a store whose rows all ascend
    makes no temporary wider than one byte per entry."""
    ok_feats = indices >= 0  # in place: the features are most of the store
    ok_feats &= indices < d
    ok_feats &= np.isfinite(values)
    rows = [
        int(np.searchsorted(ptr, np.argmin(ok), side="right")) - 1
        for ptr, ok in ((label_indptr, (labels >= 0) & (labels < l)), (indptr, ok_feats))
        if not ok.all()
    ]
    if (repeat := _first_repeat(indices, indptr)) is not None:
        rows.append(repeat)
    return min(rows, default=None)


def _first_repeat(values, ptr):
    """The first row of CSR values that holds one value twice, or None."""
    counts = np.diff(ptr)
    if _ascending_within(values, counts):  # only a row that does not rise may repeat one
        return None
    order, line = _line_sort(values, counts)
    rows = line[1:][(np.diff(values[order]) == 0) & (np.diff(line) == 0)]
    return int(rows[0]) if rows.size else None


def _lines(ds, start=0):
    # 128 rows' tokens at a time keep memory flat
    for lo in range(start, ds.n_examples, 128):
        f, l = ds.indptr[lo : lo + 129], ds.label_indptr[lo : lo + 129]
        labels = list(map(str, ds.labels[l[0] : l[-1]].tolist()))
        idx, val = ds.indices[f[0] : f[-1]].tolist(), ds.values[f[0] : f[-1]].tolist()
        feats = [f"{i}:{v!r}" for i, v in zip(idx, val)]
        f, l = (f - f[0]).tolist(), (l - l[0]).tolist()
        for f0, f1, l0, l1 in zip(f, f[1:], l, l[1:]):
            yield (",".join(labels[l0:l1]) + " " + " ".join(feats[f0:f1])).rstrip() + "\n"


def serialize_xml_repo(ds, stream=None):
    """Write the dataset in the exact dialect parse_xml_repo accepts; the
    store's constructor has refused every row the parser would refuse."""
    own = stream is None
    if own:
        stream = io.StringIO()
    stream.write(f"{ds.n_examples} {ds.n_features} {ds.n_labels}\n")
    stream.writelines(_lines(ds))
    return stream.getvalue() if own else None


def compute_propensities(ds):
    """Per-label relative frequency count_l / N, floored at 1/N for unseen labels."""
    # a label set is unique, so each example adds one to each of its labels
    return np.maximum(np.bincount(ds.labels, minlength=ds.n_labels), 1.0) / max(ds.n_examples, 1)


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
    labels = np.empty((n_examples, labels_per_point), dtype=np.int64)
    draws = np.zeros((n_examples, labels_per_point * block))
    for row in range(n_examples):  # a row's labels, then its noise: the seed's order
        labels[row] = np.sort(rng.choice(n_labels, size=labels_per_point, replace=False))
        if noise > 0.0:
            draws[row] = rng.standard_normal(draws.shape[1])
    return SparseDataset(
        n_features, n_labels, np.arange(n_examples + 1) * draws.shape[1],
        (labels[:, :, None] * block + np.arange(block)).ravel(), 1.0 + noise * draws.ravel(),
        np.arange(n_examples + 1) * labels_per_point, labels.ravel(),
    )


def split_dataset(ds, test_fraction=0.2, seed=0):
    """Seeded shuffle split for data without published train/test files."""
    if not 0.0 < test_fraction < 1.0:
        raise ValueError("test_fraction must be in (0, 1)")
    rng = np.random.Generator(np.random.PCG64(seed))
    order = rng.permutation(ds.n_examples)
    n_test = max(1, int(round(ds.n_examples * test_fraction)))
    test = np.argsort(order) < n_test  # rows among the first n_test of the shuffle
    return ds.take(~test), ds.take(test)
