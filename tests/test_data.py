"""Tests for sparse dataset parsing, serialization, and synthesis."""

import dataclasses
import io
import os

import numpy as np
import pytest

from hrrkit import data as dataio

DATA_DIR = os.environ.get("HRRKIT_DATA_DIR", os.path.join(os.path.dirname(__file__), "data"))


def parse_text(text, one_based=False):
    """parse_xml_repo of text held in memory: a str source is a path."""
    return dataio.parse_xml_repo(io.StringIO(text), one_based=one_based)


class TestParse:
    def test_two_example_file(self):
        ds = parse_text("2 3 2\n0 0:1.5 2:0.5\n1,0 1:2.0\n")
        assert (ds.n_examples, ds.n_features, ds.n_labels) == (2, 3, 2)
        np.testing.assert_array_equal(ds.examples[0].labels, [0])
        np.testing.assert_array_equal(ds.examples[0].feat_idx, [0, 2])
        np.testing.assert_array_equal(ds.examples[0].feat_val, [1.5, 0.5])
        np.testing.assert_array_equal(ds.examples[1].labels, [0, 1])

    def test_empty_label_field_is_kept_and_flagged(self):
        ds = parse_text("2 2 1\n 0:1.0 1:2.0\n0 0:1.0\n")
        assert ds.examples[0].labels.size == 0
        assert ds.examples[0].feat_idx.size == 2
        assert ds.n_unlabeled == 1

    def test_feature_index_bound_error_carries_line(self):
        with pytest.raises(dataio.DatasetFormatError, match="line 2.*feature index 1"):
            parse_text("1 1 1\n0 1:1.0\n")

    def test_label_index_bound_error(self):
        with pytest.raises(dataio.DatasetFormatError, match="line 3.*label index"):
            parse_text("2 2 2\n0 0:1.0\n2 1:1.0\n")

    def test_malformed_header(self):
        with pytest.raises(dataio.DatasetFormatError, match="line 1"):
            parse_text("2 3\n")

    @pytest.mark.parametrize("header", ["-1 3 2", "1 0 2", "1 3 0"])
    def test_non_positive_header_sizes(self, header):
        with pytest.raises(dataio.DatasetFormatError) as info:
            parse_text(f"{header}\n0 0:1.0\n")
        assert str(info.value) == f"line 1: non-positive header sizes {header}"

    def test_header_sizes_beyond_int64(self):
        text = "1 100000000000000000000000000000 2\n0 99999999999999999999999:1.0\n"
        message = "line 1: header sizes 1 100000000000000000000000000000 2 exceed int64"
        with pytest.raises(dataio.DatasetFormatError, match=message):
            parse_text(text)

    @pytest.mark.parametrize(
        "line, message",
        [
            ("0 99999999999999999999999:1.0", "line 2: feature index 99999999999999999999999 outside"),
            ("0 -99999999999999999999999:1.0", "line 2: feature index -99999999999999999999999 outside"),
            ("99999999999999999999999 1:1.0", "line 2: label index 99999999999999999999999 outside"),
        ],
    )
    def test_indices_beyond_int64_name_the_line(self, line, message):
        with pytest.raises(dataio.DatasetFormatError, match=message):
            parse_text(f"1 5 2\n{line}\n")

    def test_largest_int64_header_parses(self):
        ds = parse_text(f"1 {2**63 - 1} 2\n1 {2**63 - 2}:1.0\n")
        assert ds.n_features == 2**63 - 1
        np.testing.assert_array_equal(ds.indices, [2**63 - 2])

    def test_non_numeric_value(self):
        with pytest.raises(dataio.DatasetFormatError, match="line 2.*non-numeric"):
            parse_text("1 2 1\n0 1:abc\n")

    def test_example_count_mismatch(self):
        with pytest.raises(dataio.DatasetFormatError, match="declared 2"):
            parse_text("2 2 2\n0 0:1.0\n")

    def test_one_based_shift(self):
        ds = parse_text("1 3 2\n2 1:1.0 3:0.5\n", one_based=True)
        np.testing.assert_array_equal(ds.examples[0].labels, [1])
        np.testing.assert_array_equal(ds.examples[0].feat_idx, [0, 2])

    def test_roundtrip_is_identity(self):
        ds = dataio.synth_generate(20, 24, 6, labels_per_point=2, seed=0, noise=0.25)
        text = dataio.serialize_xml_repo(ds)
        again = parse_text(text)
        assert again.n_examples == ds.n_examples
        for a, b in zip(ds.examples, again.examples):
            np.testing.assert_array_equal(a.labels, b.labels)
            np.testing.assert_array_equal(a.feat_idx, b.feat_idx)
            np.testing.assert_array_equal(a.feat_val, b.feat_val)

    def test_one_line_stream_without_newline_parses(self):
        ds = parse_text("0 5 3")
        assert (ds.n_examples, ds.n_features, ds.n_labels) == (0, 5, 3)

    def test_str_and_pathlike_are_paths(self, tmp_path):
        path = tmp_path / "one.txt"
        path.write_text("1 2 2\n1 0:1.0\n", encoding="utf-8")
        for source in (str(path), path):
            np.testing.assert_array_equal(dataio.parse_xml_repo(source).labels, [1])
        with pytest.raises(FileNotFoundError):
            dataio.parse_xml_repo(str(tmp_path / "0 5 3"))

    def test_serialized_dialect_is_exact(self):
        ds = parse_text("2 3 2\n0 0:1.5 2:0.5\n1,0 1:2.0\n")
        assert dataio.serialize_xml_repo(ds) == "2 3 2\n0 0:1.5 2:0.5\n0,1 1:2.0\n"


def reference_parse(text, one_based=False):
    """Line-by-line parser as it was before block parsing: (n, d, l, examples)."""
    lines = text.split("\n")
    shift = 1 if one_based else 0
    n, d, l = (int(tok) for tok in lines[0].split())
    examples = []
    for line_no, line in enumerate(lines[1:-1], start=2):
        if not line.strip() and len(examples) == n:
            continue
        label_field, _, rest = line.partition(" ")
        labels = []
        if label_field:
            for tok in label_field.split(","):
                try:
                    idx = int(tok) - shift
                except ValueError:
                    raise dataio.DatasetFormatError(
                        f"line {line_no}: non-numeric label index {tok!r}"
                    ) from None
                if not 0 <= idx < l:
                    raise dataio.DatasetFormatError(
                        f"line {line_no}: label index {idx} outside [0, {l})"
                    )
                labels.append(idx)
        idxs, vals = [], []
        for tok in rest.split():
            feat, colon, val = tok.partition(":")
            if not colon:
                raise dataio.DatasetFormatError(
                    f"line {line_no}: feature token {tok!r} missing ':'"
                )
            try:
                idx = int(feat) - shift
            except ValueError:
                raise dataio.DatasetFormatError(
                    f"line {line_no}: non-numeric feature index {feat!r}"
                ) from None
            if not 0 <= idx < d:
                raise dataio.DatasetFormatError(
                    f"line {line_no}: feature index {idx} outside [0, {d})"
                )
            try:
                value = float(val)
            except ValueError:
                raise dataio.DatasetFormatError(
                    f"line {line_no}: non-numeric feature value {val!r}"
                ) from None
            if not np.isfinite(value):
                raise dataio.DatasetFormatError(f"line {line_no}: non-finite feature value")
            idxs.append(idx)
            vals.append(value)
        order = np.argsort(idxs, kind="stable")
        idxs = np.asarray(idxs, dtype=np.int64)[order]
        vals = np.asarray(vals, dtype=np.float64)[order]
        if idxs.size and np.any(np.diff(idxs) == 0):
            raise dataio.DatasetFormatError(f"line {line_no}: duplicate feature index")
        examples.append((idxs, vals, np.unique(np.asarray(labels, dtype=np.int64))))
    return n, d, l, examples


def block_test_lines(n=1300, seed=8):
    """Header and example lines of a synthetic file spanning three blocks."""
    ds = dataio.synth_generate(n, 60, 12, labels_per_point=2, seed=seed, noise=0.3)
    return dataio.serialize_xml_repo(ds).split("\n")[:-1]


FUZZ_D, FUZZ_L = 40, 6
# Tokens that fail, or that int() and float() read in unusual ways: Unicode
# digits, underscores, signs, padding, integers beyond int64, overflow.
ODD_INDICES = ["-1", "40", "6", "\u096c", "\u0661", "1_0", "+2", "02", "x", "", "1.0", "_1", "\t3",
               "99999999999999999999999", "-99999999999999999999999",
               "9223372036854775807", "-9223372036854775808", "9223372036854775808"]
ODD_VALUES = ["-0.0", "1e400", "-1e400", "1e-400", "nan", "-inf", "inf", "\u0661.\u0665",
              "1_0", "x", "", "0x1", "2:3", "1e"]


def fuzz_lines(rng, n_lines, shift):
    """Example lines, mostly well formed, with odd tokens, tabs, "\\r\\n"
    endings, blank lines, unsorted and repeated indices sprinkled in."""
    odd = lambda p: rng.random() < p
    pick = lambda pool: pool[rng.integers(len(pool))]
    lines = []
    for _ in range(n_lines):
        if odd(0.05):
            lines.append(pick(["\n", " \n", "\r\n"]))
            continue
        labels = [
            pick(ODD_INDICES) if odd(0.03) else str(rng.integers(FUZZ_L) + shift)
            for _ in range(rng.integers(4))
        ]
        feats = []
        for _ in range(rng.integers(5)):
            idx = pick(ODD_INDICES) if odd(0.02) else str(rng.integers(FUZZ_D + 1) + shift)
            val = pick(ODD_VALUES) if odd(0.03) else repr(float(rng.standard_normal()))
            feats.append(pick(["7", ":", "3:4:5", f"{idx}{val}"]) if odd(0.01) else f"{idx}:{val}")
        rest = " " + pick([" ", "\t"]).join(feats) if feats else pick(["", " "])
        line = ",".join(labels) + rest
        lines.append(line + ("\r\n" if odd(0.1) else "\n"))
    return lines


class TestBlockParse:
    def assert_matches_reference(self, text, one_based=False):
        n, d, l, want = reference_parse(text, one_based=one_based)
        got = parse_text(text, one_based=one_based)
        assert (got.n_examples, got.n_features, got.n_labels) == (n, d, l)
        assert_rows_equal(got.examples, want)

    def test_synthetic_roundtrip_matches_line_parser(self):
        self.assert_matches_reference("\n".join(block_test_lines()) + "\n")

    def test_irregular_lines_match_line_parser(self):
        lines = block_test_lines()
        lines[5] = " " + lines[5].partition(" ")[2]  # no labels
        lines[600] = "3,1,3 7:1.5 2:0.25"  # unsorted labels and features
        lines[700] = ""  # blank line inside the declared count: empty example
        lines[1200] = "4"  # labels, no features
        self.assert_matches_reference("\n".join(lines) + "\n\n")

    def test_one_based_matches_line_parser(self):
        lines = block_test_lines()
        shifted = [lines[0]] + [
            " ".join(
                [",".join(str(int(t) + 1) for t in head.split(",")) if head else ""]
                + [f"{int(i) + 1}:{v}" for i, _, v in (tok.partition(":") for tok in rest.split())]
            )
            for head, _, rest in (line.partition(" ") for line in lines[1:])
        ]
        self.assert_matches_reference("\n".join(shifted) + "\n", one_based=True)

    @pytest.mark.parametrize(
        "token,message",
        [
            ("1:2:3", "non-numeric feature value '2:3'"),
            ("7", "feature token '7' missing ':'"),
            ("9:nan", "non-finite feature value"),
            ("60:1.0", "feature index 60 outside [0, 60)"),
            ("x:1.0", "non-numeric feature index 'x'"),
            ("dup", "duplicate feature index"),
        ],
    )
    def test_bad_token_in_third_block_names_its_line(self, token, message):
        lines = block_test_lines()
        bad = 1100  # example lines 2-513 are block one, 1026-1537 block three
        if token == "dup":
            token = lines[bad].split()[1]
        lines[bad] += " " + token
        lines[bad + 50] += " also:bad"  # a later error must not be reported
        text = "\n".join(lines) + "\n"
        with pytest.raises(dataio.DatasetFormatError) as want:
            reference_parse(text)
        with pytest.raises(dataio.DatasetFormatError) as got:
            parse_text(text)
        assert str(got.value) == str(want.value) == f"line {bad + 1}: {message}"

    @staticmethod
    def reorder_lines(lines, how, seed=9):
        """Lines with each label list and feature list reversed or shuffled;
        shuffled lines also repeat one of their labels."""
        rng = np.random.default_rng(seed)
        out = [lines[0]]
        for line in lines[1:]:
            head, _, rest = line.partition(" ")
            labels, feats = head.split(",") if head else [], rest.split()
            if how == "reversed":
                labels, feats = labels[::-1], feats[::-1]
            else:
                labels = list(rng.permutation(labels + labels[:1]))
                feats = list(rng.permutation(feats))
            out.append(" ".join([",".join(labels)] + feats))
        return out

    @pytest.mark.parametrize("how", ["reversed", "shuffled"])
    def test_unsorted_lines_stay_on_the_block_path(self, how, monkeypatch):
        lines = self.reorder_lines(block_test_lines(), how)
        lines[300] = "5,5,5 9:0.5 3:1.0"  # duplicate labels only
        lines[400] = " 2:1.0 1:2.0"  # no labels
        calls = []
        line_checker = dataio._check_line
        monkeypatch.setattr(
            dataio, "_check_line", lambda *a: calls.append(a[1]) or line_checker(*a)
        )
        self.assert_matches_reference("\n".join(lines) + "\n")
        assert calls == []

    @pytest.mark.parametrize("how", ["reversed", "shuffled"])
    def test_duplicate_feature_in_unsorted_third_block_names_its_line(self, how):
        lines = self.reorder_lines(block_test_lines(), how)
        bad = 1100
        head, _, rest = lines[bad].partition(" ")
        feats = rest.split()
        lines[bad] = " ".join([head, feats[-1]] + feats)  # first and last share an index
        text = "\n".join(lines) + "\n"
        with pytest.raises(dataio.DatasetFormatError) as want:
            reference_parse(text)
        with pytest.raises(dataio.DatasetFormatError) as got:
            parse_text(text)
        assert str(got.value) == str(want.value) == f"line {bad + 1}: duplicate feature index"

    @pytest.mark.parametrize("one_based", [False, True])
    def test_block_parser_refuses_exactly_where_the_reference_raises(self, one_based):
        rng = np.random.default_rng(11 + one_based)
        refused = []
        for _ in range(1500):
            lines = fuzz_lines(rng, rng.integers(1, 7), int(one_based))
            text = f"{len(lines)} {FUZZ_D} {FUZZ_L}\n" + "".join(lines)
            try:
                want = reference_parse(text, one_based=one_based)[3]
            except dataio.DatasetFormatError as exc:
                want = str(exc)
            part = dataio._parse_block(lines, FUZZ_D, FUZZ_L, int(one_based))
            assert (part is None) == isinstance(want, str), text
            refused.append(part is None)
            if part is None:
                with pytest.raises(dataio.DatasetFormatError) as got:
                    parse_text(text, one_based=one_based)
                assert str(got.value) == want
            else:
                assert_rows_equal(parse_text(text, one_based=one_based).examples, want)
        assert 0.3 < np.mean(refused) < 0.7

    def test_extra_line_after_declared_count(self):
        lines = block_test_lines(n=600)
        text = "\n".join(lines) + "\n\n0 1:1.0\n"
        with pytest.raises(dataio.DatasetFormatError, match="declared 600 examples, file has 601"):
            parse_text(text)


def relabelled(ds, labels_of):
    """ds with row i's labels replaced by labels_of(i, its labels)."""
    rows = [np.asarray(labels_of(i, ex.labels), np.int64) for i, ex in enumerate(ds.examples)]
    return dataio.SparseDataset(
        ds.n_features, ds.n_labels, ds.indptr, ds.indices, ds.values,
        np.cumsum([0] + [r.size for r in rows]), np.concatenate([np.empty(0, np.int64), *rows]),
    )


def assert_rows_equal(got, want):
    """Each pair of rows has the same arrays, bit for bit and in dtype."""
    got, want = list(got), list(want)
    assert len(got) == len(want)
    for ex, (idxs, vals, labels) in zip(got, want):
        for a, b in ((ex.feat_idx, idxs), (ex.feat_val, vals), (ex.labels, labels)):
            assert a.dtype == b.dtype and a.shape == b.shape
            assert a.tobytes() == b.tobytes()


class TestStore:
    TEXT = (
        "8 6 4\n0 0:1.0 2:2.0\n 1:0.5\n1,2\n3 5:1.5\n\n"
        "0,1,2,3 0:1.0 1:1.0 2:1.0 3:1.0 4:1.0 5:1.0\n2 4:0.25\n1 3:3.0\n"
    )

    def test_rows_equal_the_reference_parser_across_blocks(self, monkeypatch):
        lines = TestBlockParse.reorder_lines(block_test_lines(), "shuffled")
        lines[5] = " " + lines[5].partition(" ")[2]  # no labels
        lines[700] = ""  # empty example, in the second block
        block_parser, blocks = dataio._parse_block, []
        monkeypatch.setattr(
            dataio, "_parse_block", lambda ls, *a: blocks.append(len(ls)) or block_parser(ls, *a)
        )
        text = "\n".join(lines) + "\n"
        ds = parse_text(text)
        assert blocks == [512, 512, 276]
        assert_rows_equal(ds.examples, reference_parse(text)[3])

    @pytest.mark.parametrize(
        "rows",
        [
            [],
            np.array([], dtype=np.int64),
            [3, 3, 0],
            [7, 4, 1, 2, 4, 6],
            np.array([True, False, True, True, False, False, True, True]),
            slice(2, 6),
        ],
    )
    def test_take_equals_the_rows_gathered_from_examples(self, rows):
        ds = parse_text(self.TEXT)
        got = ds.take(rows)
        assert (got.n_features, got.n_labels) == (6, 4)
        want = [ds.examples[i] for i in np.arange(ds.n_examples)[rows]]
        assert_rows_equal(got.examples, [(ex.feat_idx, ex.feat_val, ex.labels) for ex in want])

    def test_examples_are_views_that_cannot_be_assigned(self):
        ds = parse_text(self.TEXT)
        assert np.shares_memory(ds.examples[5].feat_val, ds.values)
        with pytest.raises(TypeError):
            ds.examples[0] = ds.examples[1]
        with pytest.raises(AttributeError):
            ds.examples = ()

    @pytest.mark.parametrize(
        "indptr,label_indptr,message",
        [
            ([1, 2, 3], [0, 1, 2], "pointers into indices must run from 0 to 3 and never fall"),
            ([0, 2, 1, 3], [0, 1, 1, 2], "pointers into indices must run from 0 to 3"),
            ([0, 1, 2], [0, 1, 2], "pointers into indices must run from 0 to 3"),
            ([], [0, 1, 2], "pointers into indices must run from 0 to 3"),
            ([0, 1, 3], [0, 2, 1], "pointers into labels must run from 0 to 2"),
            ([0, 1, 3], [0, 1, 1], "pointers into labels must run from 0 to 2"),
            ([0, 1, 3], [0, 1, 1, 2], "2 feature rows, 3 label rows"),
        ],
    )
    def test_constructor_rejects_inconsistent_arrays(self, indptr, label_indptr, message):
        with pytest.raises(ValueError, match=message):
            dataio.SparseDataset(6, 4, indptr, [0, 1, 2], [1.0, 2.0, 3.0], label_indptr, [0, 3])

    def test_constructor_rejects_misaligned_values(self):
        with pytest.raises(ValueError, match="pointers into values must run from 0 to 2"):
            dataio.SparseDataset(6, 4, [0, 3], [0, 1, 2], [1.0, 2.0], [0, 0], [])

    @pytest.mark.parametrize(
        "args, message",
        [
            ((5, 3, [0, 1], [7], [1.0], [0, 1], [2]), "row 0: feature index 7 outside [0, 5)"),
            ((5, 3, [0, 1], [-1], [1.0], [0, 1], [2]), "row 0: feature index -1 outside [0, 5)"),
            ((5, 3, [0, 1, 2], [0, 1], [1.0, 1.0], [0, 1, 3], [0, 2, 4]),
             "row 1: label index 4 outside [0, 3)"),
            ((5, 3, [0, 1], [0], [1.0], [0, 1], [-1]), "row 0: label index -1 outside [0, 3)"),
            ((5, 3, [0, 1, 3], [0, 1, 2], [1.0, 2.0, np.inf], [0, 0, 0], []),
             "row 1: non-finite feature value"),
            # row 0 is unsorted, which the parser accepts; row 1 repeats index 1
            ((5, 3, [0, 2, 5], [3, 1, 1, 4, 1], [1.0] * 5, [0, 1, 2], [0, 1]),
             "row 1: duplicate feature index"),
            ((0, 3, [0], [], [], [0], []), "non-positive header sizes 0 0 3"),
            ((5, 0, [0], [], [], [0], []), "non-positive header sizes 0 5 0"),
            # the parser makes labels unique, so a store with a repeat would
            # write a row that reads back as another
            ((2, 2, [0, 1], [0], [1.0], [0, 2], [1, 1]), "row 0: duplicate label index"),
            ((5, 3, [0, 1, 2], [0, 1], [1.0, 1.0], [0, 1, 4], [0, 2, 1, 2]),
             "row 1: duplicate label index"),
            ((5.0, 3, [0, 1], [1], [1.0], [0, 1], [2]), "n_features must be an integer, got 5.0"),
            ((True, 3, [0, 1], [1], [1.0], [0, 1], [2]), "n_features must be an integer, got True"),
            ((5, 3.0, [0, 1], [1], [1.0], [0, 1], [2]), "n_labels must be an integer, got 3.0"),
            ((5, "3", [0, 1], [1], [1.0], [0, 1], [2]), "n_labels must be an integer, got '3'"),
        ],
        ids=["feature-index", "feature-index-negative", "label-index", "label-index-negative",
             "non-finite", "duplicate", "no-features", "no-labels", "duplicate-label",
             "duplicate-label-unsorted", "float-features", "bool-features", "float-labels",
             "str-labels"],
    )
    def test_constructor_refuses_what_the_parser_refuses(self, args, message):
        with pytest.raises(ValueError) as info:
            dataio.SparseDataset(*args)
        assert str(info.value) == message

    def test_numpy_integer_sizes_are_accepted_and_written_as_integers(self):
        ds = dataio.SparseDataset(np.int64(5), np.int32(3), [0, 1], [1], [1.0], [0, 1], [2])
        assert dataio.serialize_xml_repo(ds) == "1 5 3\n2 1:1.0\n"

    def test_constructor_refuses_exactly_the_rows_the_parser_refuses(self):
        rng = np.random.default_rng(29)
        d, l = 6, 4
        odd = lambda p: rng.random() < p
        refused = 0
        for _ in range(1500):
            rows = []
            for _ in range(rng.integers(1, 6)):
                labels = [
                    int(rng.choice([-1, l, -(2**63), 2**63 - 1])) if odd(0.03)
                    else int(rng.integers(l))
                    for _ in range(rng.integers(4))
                ]  # repeated labels are drawn too: the parser accepts them, the store does not
                idx = rng.choice(d, size=rng.integers(5), replace=False)
                idx = np.sort(idx) if odd(0.5) else idx
                idx = [int(rng.choice([-1, d, -(2**63), 2**63 - 1])) if odd(0.03) else int(i)
                       for i in idx]
                if idx and odd(0.06):  # repeat one, next to it or elsewhere in the row
                    idx.insert(int(rng.integers(len(idx) + 1)), idx[rng.integers(len(idx))])
                vals = [float(rng.choice([np.nan, np.inf, -np.inf])) if odd(0.03)
                        else float(rng.standard_normal()) for _ in idx]
                rows.append((idx, vals, labels))
            text = f"{len(rows)} {d} {l}\n" + "".join(
                ",".join(map(str, labels)) + " " + " ".join(f"{i}:{v!r}" for i, v in zip(idx, vals))
                + "\n"
                for idx, vals, labels in rows
            )
            ptr = lambda k: np.cumsum([0] + [len(row[k]) for row in rows])
            flat = lambda k: [x for row in rows for x in row[k]]
            try:
                reference_parse(text)
                want = None
            except dataio.DatasetFormatError as err:
                line, _, fault = str(err).partition(": ")
                want = f"row {int(line.split()[1]) - 2}: {fault}"
            # the first row with a repeated label is refused unless the parser
            # refuses that row or an earlier one
            repeats = [i for i, (_, _, labels) in enumerate(rows) if len(set(labels)) < len(labels)]
            if repeats and (want is None or repeats[0] < int(want.split()[1][:-1])):
                want = f"row {repeats[0]}: duplicate label index"
            try:
                dataio.SparseDataset(d, l, ptr(0), flat(0), flat(1), ptr(2), flat(2))
                got = None
            except ValueError as err:
                got = str(err)
            assert got == want, text
            refused += want is not None
        assert 300 < refused < 1200


class TestPropensities:
    def test_ubiquitous_label_has_unit_propensity(self):
        ds = parse_text("2 2 2\n0 0:1.0\n0 1:1.0\n")
        p = dataio.compute_propensities(ds)
        assert p[0] == 1.0

    def test_single_occurrence_in_four(self):
        ds = parse_text("4 2 1\n0 0:1.0\n 0:1.0\n 0:1.0\n 0:1.0\n")
        assert dataio.compute_propensities(ds)[0] == 0.25

    def test_unseen_label_floor(self):
        ds = dataio.synth_generate(100, 10, 5, labels_per_point=1, seed=1)
        ds = relabelled(ds, lambda i, labels: labels[labels != 4])
        p = dataio.compute_propensities(ds)
        assert p[4] == pytest.approx(0.01)

    @staticmethod
    def loop_propensities(ds):
        """The per-example loop that compute_propensities replaced."""
        counts = np.zeros(ds.n_labels)
        for ex in ds.examples:
            counts[ex.labels] += 1.0
        return np.maximum(counts, 1.0) / max(ds.n_examples, 1)

    def test_matches_per_example_loop_with_unlabeled_rows(self):
        ds = dataio.synth_generate(300, 60, 12, labels_per_point=3, seed=9)
        ds = relabelled(ds, lambda i, labels: labels[:0] if i % 4 == 0 else labels)
        assert ds.n_unlabeled == 75
        p = dataio.compute_propensities(ds)
        assert p.dtype == np.float64
        np.testing.assert_array_equal(p, self.loop_propensities(ds))

    def test_empty_dataset_has_unit_floor(self):
        ds = dataio.SparseDataset(4, 3, [0], [], [], [0], [])
        assert ds.n_unlabeled == 0
        np.testing.assert_array_equal(dataio.compute_propensities(ds), [1.0, 1.0, 1.0])
        np.testing.assert_array_equal(dataio.compute_propensities(ds), self.loop_propensities(ds))

    def test_label_count_cannot_be_reassigned_past_the_check(self):
        ds = parse_text("2 2 2\n0 0:1.0\n1 1:1.0\n")
        with pytest.raises(dataclasses.FrozenInstanceError):
            ds.n_labels = 1

    def test_propensity_sum_equals_average_labels_per_point(self):
        ds = dataio.synth_generate(500, 40, 10, labels_per_point=3, seed=2)
        p = dataio.compute_propensities(ds)
        avg_labels = np.mean([ex.labels.size for ex in ds.examples])
        assert abs(p.sum() - avg_labels) < 0.01


class TestSynth:
    def test_deterministic(self):
        a = dataio.synth_generate(50, 30, 10, labels_per_point=2, seed=3, noise=0.1)
        b = dataio.synth_generate(50, 30, 10, labels_per_point=2, seed=3, noise=0.1)
        assert dataio.serialize_xml_repo(a) == dataio.serialize_xml_repo(b)

    def test_exact_label_count_per_point(self):
        ds = dataio.synth_generate(80, 30, 10, labels_per_point=2, seed=4)
        assert all(ex.labels.size == 2 for ex in ds.examples)

    def test_noiseless_block_classifier_is_perfect(self):
        ds = dataio.synth_generate(200, 60, 12, labels_per_point=2, seed=5, noise=0.0)
        block = 60 // 12
        hits = 0
        for ex in ds.examples:
            dense = np.zeros(60)
            dense[ex.feat_idx] = ex.feat_val
            scores = dense.reshape(12, block).sum(axis=1)
            hits += int(np.argmax(scores)) in set(ex.labels.tolist())
        assert hits == 200

    @pytest.mark.parametrize(
        "args, message",
        [
            ((10, 4, 5, 1), "need at least one feature per label"),
            ((10, 10, 5, 0), "labels_per_point out of range"),
            ((10, 10, 5, 6), "labels_per_point out of range"),
        ],
    )
    def test_synth_rejects_bad_arguments(self, args, message):
        with pytest.raises(ValueError) as info:
            dataio.synth_generate(*args, seed=0)
        assert str(info.value) == message

    @pytest.mark.parametrize("fraction", [0.0, 1.0, -0.5])
    def test_split_rejects_a_fraction_outside_the_open_unit_interval(self, fraction):
        ds = dataio.synth_generate(10, 20, 5, labels_per_point=1, seed=6)
        with pytest.raises(ValueError) as info:
            dataio.split_dataset(ds, test_fraction=fraction)
        assert str(info.value) == "test_fraction must be in (0, 1)"

    def test_split_partitions_examples(self):
        ds = dataio.synth_generate(100, 20, 5, labels_per_point=1, seed=6)
        train, test = dataio.split_dataset(ds, test_fraction=0.2, seed=7)
        assert train.n_examples == 80 and test.n_examples == 20


@pytest.mark.skipif(
    not os.path.exists(os.path.join(DATA_DIR, "Bibtex", "bibtex_train.txt")),
    reason="Bibtex files not present; set HRRKIT_DATA_DIR (see README)",
)
class TestPublishedFiles:
    def test_bibtex_statistics(self):
        ds = dataio.parse_xml_repo(os.path.join(DATA_DIR, "Bibtex", "bibtex_train.txt"))
        assert ds.n_features == 1836 and ds.n_labels == 159
        p = dataio.compute_propensities(ds)
        avg_labels = np.mean([ex.labels.size for ex in ds.examples])
        assert abs(p.sum() - avg_labels) < 0.01
