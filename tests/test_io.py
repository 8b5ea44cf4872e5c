"""Tests for CSV ingestion, config resolution, and output tables."""

import csv
import io
import json
import os
import threading
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import read_table
from robroc import io as robroc_io
from robroc.cli import RunConfig, load_config
from robroc.data import GroupSample
from robroc.errors import DataError, UsageError
from robroc.io import Dataset, _format_cell, read_csv, write_manifest, write_table

LABELS = ("nondiseased", "diseased")


def reference_read_csv(path, outcome, disease, covariates, skip_missing=False):
    """The row-at-a-time reader (csv.DictReader, every cell stripped and
    checked, the groups split by a mask) that read_csv must agree with."""
    covariates = list(covariates)
    try:
        handle = open(path, newline="")
    except OSError as exc:
        raise DataError(f"cannot open data file {path}: {exc}") from None
    with handle:
        reader = csv.DictReader(handle)
        header = reader.fieldnames or []
        for name in [outcome, disease, *covariates]:
            if name not in header:
                raise DataError(
                    f"column {name!r} not in data file (columns: {', '.join(header)})"
                )
        used = [outcome, disease, *covariates]
        y, dz, X, rows = [], [], [], []
        n_skipped = 0
        for i, record in enumerate(reader, start=1):
            cells = {name: (record.get(name) or "") for name in used}
            missing = [name for name, cell in cells.items()
                       if cell.strip().lower() in {"", "na", "nan", "null"}]
            if missing:
                if skip_missing:
                    n_skipped += 1
                    continue
                raise DataError(
                    f"missing value in column {missing[0]!r} at data row {i}"
                )
            parsed = {}
            for name, cell in cells.items():
                try:
                    parsed[name] = float(cell)
                except ValueError:
                    raise DataError(
                        f"cannot parse {cell!r} in column {name!r} at data row {i}"
                    ) from None
            flag = parsed[disease]
            if flag not in (0.0, 1.0):
                raise DataError(
                    f"disease column {disease!r} must be 0 or 1, got {cells[disease]!r}"
                    f" at data row {i}"
                )
            y.append(parsed[outcome])
            dz.append(int(flag))
            X.append([parsed[name] for name in covariates])
            rows.append(i)
    if not y:
        raise DataError("no usable data rows")
    dz = np.asarray(dz, dtype=int)
    for label in (0, 1):
        if not np.any(dz == label):
            raise DataError(f"no rows with {disease} == {label}")
    y, X, rows = np.asarray(y, dtype=float), np.asarray(X, dtype=float), np.asarray(rows)
    return Dataset(*(GroupSample(outcomes=y[dz == label], covariates=X[dz == label],
                                 label=LABELS[label], rows=rows[dz == label])
                     for label in (0, 1)), n_skipped=n_skipped)


def groups(ds):
    return ds.nondiseased, ds.diseased


def reference_write_table(path, header, rows):
    """The row writer, one _format_cell call per cell, that write_table
    must match byte for byte."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_format_cell(v) for v in row])


def write_data(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, newline="")
    return path


BASIC = """outcome,disease,age
1.5,0,30
2.5,1,40
3.5,1,50
"""


class TestReadCsv:
    def test_basic_file(self, tmp_path):
        ds = read_csv(write_data(tmp_path, BASIC), "outcome", "disease", ["age"])
        assert ds.n == 3
        for group, outcomes, ages in zip(groups(ds), ([1.5], [2.5, 3.5]), ([30], [40, 50])):
            np.testing.assert_array_equal(group.outcomes, outcomes)
            np.testing.assert_array_equal(group.covariates, np.array(ages, dtype=float)[:, None])
        assert ds.n_skipped == 0

    def test_group_split(self, tmp_path):
        nd, d = groups(read_csv(write_data(tmp_path, BASIC), "outcome", "disease", ["age"]))
        assert nd.label == "nondiseased"
        assert d.label == "diseased"
        np.testing.assert_array_equal(nd.outcomes, [1.5])
        np.testing.assert_array_equal(d.rows, [2, 3])

    def test_unknown_column(self, tmp_path):
        with pytest.raises(DataError, match="'weight' not in data file"):
            read_csv(write_data(tmp_path, BASIC), "outcome", "disease",
                     ["weight"])

    def test_bad_disease_value_names_row(self, tmp_path):
        text = "outcome,disease,age\n1.0,0,30\n2.0,2,40\n"
        with pytest.raises(DataError, match="must be 0 or 1.*row 2"):
            read_csv(write_data(tmp_path, text), "outcome", "disease", ["age"])

    def test_unparseable_cell_names_row_and_column(self, tmp_path):
        text = "outcome,disease,age\n1.0,0,30\n2.0,1,old\n"
        with pytest.raises(DataError, match="'old' in column 'age' at data row 2"):
            read_csv(write_data(tmp_path, text), "outcome", "disease", ["age"])

    @pytest.mark.parametrize("token", ["", "NA", "nan", "NULL"])
    def test_missing_tokens_abort_by_default(self, tmp_path, token):
        text = f"outcome,disease,age\n1.0,0,30\n{token},1,40\n2.0,1,50\n"
        with pytest.raises(DataError, match="missing value.*row 2"):
            read_csv(write_data(tmp_path, text), "outcome", "disease", ["age"])

    def test_skip_missing_counts_rows(self, tmp_path):
        text = "outcome,disease,age\n1.0,0,30\nNA,1,40\n2.0,1,50\n"
        ds = read_csv(write_data(tmp_path, text), "outcome", "disease",
                      ["age"], skip_missing=True)
        assert ds.n == 2
        assert ds.n_skipped == 1
        np.testing.assert_array_equal(ds.nondiseased.rows, [1])
        np.testing.assert_array_equal(ds.diseased.rows, [3])

    def test_missing_in_unused_column_is_ignored(self, tmp_path):
        text = "outcome,disease,age,extra\n1.0,0,30,NA\n2.0,1,40,\n"
        ds = read_csv(write_data(tmp_path, text), "outcome", "disease", ["age"])
        assert ds.n == 2

    def test_single_class_rejected(self, tmp_path):
        text = "outcome,disease,age\n1.0,1,30\n2.0,1,40\n"
        with pytest.raises(DataError, match="no rows with disease == 0"):
            read_csv(write_data(tmp_path, text), "outcome", "disease", ["age"])

    @pytest.mark.parametrize("text, message", [
        ("inf,0,30\n2.0,1,40\n", "non-finite outcomes in group 'nondiseased'"),
        ("1.0,0,30\n2.0,1,-nan\n", "non-finite covariates in group 'diseased'"),
        ("inf,1,30\n2.0,1,40\n", "no rows with disease == 0"),
    ], ids=["inf_outcome", "nan_covariate", "label_before_value"])
    def test_group_faults_raised_by_the_reader(self, tmp_path, text, message):
        # both labels are checked before either group is built
        with pytest.raises(DataError, match=f"^{message}$"):
            read_csv(write_data(tmp_path, "outcome,disease,age\n" + text), "outcome",
                     "disease", ["age"])

    def test_empty_file_rejected(self, tmp_path, capfd):
        # np.loadtxt warns of a body with no rows; the row loop names it
        text = "outcome,disease,age\n"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError, match="^no usable data rows$"):
                read_csv(write_data(tmp_path, text), "outcome", "disease", ["age"])
        assert capfd.readouterr() == ("", "")

    def test_no_covariates_gives_empty_matrix(self, tmp_path):
        ds = read_csv(write_data(tmp_path, BASIC), "outcome", "disease", [])
        assert ds.nondiseased.covariates.shape == (1, 0)
        assert ds.diseased.covariates.shape == (2, 0)

    def test_absent_file(self, tmp_path):
        with pytest.raises(DataError, match="cannot open data file"):
            read_csv(tmp_path / "nope.csv", "outcome", "disease", ["age"])

    def test_field_over_csv_limit_names_file_and_row(self, tmp_path):
        text = BASIC + f'"{"9" * 200_000}",1,60\n'
        path = write_data(tmp_path, text)
        with pytest.raises(DataError, match=f"{path}.*data row 4.*field larger"):
            read_csv(path, "outcome", "disease", ["age"])

    @pytest.mark.parametrize("field", [
        "9" * 200_000, ("x" * 999 + "\n") * 200, ("x" * 999 + "\r\n") * 200,
    ], ids=["one_line", "lf_lines", "crlf_lines"])
    def test_field_over_csv_limit_in_unused_column_names_row(self, tmp_path, field):
        # np.loadtxt reads no field of a column it does not use
        text = "outcome,disease,age,note\n1.5,0,30,a\n2.5,1,40,b\n"
        path = write_data(tmp_path, text + f'3.5,1,50,"{field}"\n4.5,0,60,c\n')
        with pytest.raises(DataError, match=f"{path}.*data row 3.*field larger"):
            read_csv(path, "outcome", "disease", ["age"])

    def test_rows_split_by_lone_cr_do_not_hide_a_long_field(self, tmp_path):
        # 201 rows on one LF line, split by lone CRs, and one row over 201
        # LF lines: as many rows as nonblank LF lines, so a count of LF
        # lines alone cannot tell that a field is over the csv limit
        rows = "\r".join(f"{k}.5,{k % 2},30,a" for k in range(201))
        field = ("x" * 999 + "\n") * 200
        path = write_data(tmp_path, f'outcome,disease,age,note\n{rows}\n3.5,1,50,"{field}"\n')
        with pytest.raises(DataError, match=f"{path}.*data row 202.*field larger"):
            read_csv(path, "outcome", "disease", ["age"])

    def test_quoted_field_across_chunks_joins_its_lines(self, tmp_path, monkeypatch):
        # each line is a chunk: parsed alone, the second line would be a row
        monkeypatch.setattr(robroc_io, "_CHUNK_CHARS", 1)
        text = 'note,outcome,disease\nx,1.5,0,"a\nb",2.5,1\ny,3.5,1\n'
        nd, d = groups(read_csv(write_data(tmp_path, text), "outcome", "disease", []))
        np.testing.assert_array_equal(nd.outcomes, [1.5])
        np.testing.assert_array_equal(d.outcomes, [3.5])
        np.testing.assert_array_equal(d.rows, [2])

    @pytest.mark.parametrize("skip_missing", [False, True])
    def test_row_numbers_continue_after_taken_chunks(self, tmp_path, monkeypatch,
                                                     skip_missing):
        # a blank line after each row, which is not counted
        monkeypatch.setattr(robroc_io, "_CHUNK_CHARS", 40)
        lines = [f"{k}.5,{k % 2},30\n\n" for k in range(1, 41)]
        lines[36] = "NA,1,30\n\n"
        path = write_data(tmp_path, "outcome,disease,age\n" + "".join(lines))
        if not skip_missing:
            message = "^missing value in column 'outcome' at data row 37$"
            with pytest.raises(DataError, match=message):
                read_csv(path, "outcome", "disease", ["age"])
            return
        ds = read_csv(path, "outcome", "disease", ["age"], skip_missing=True)
        assert ds.n_skipped == 1
        rows = np.sort(np.concatenate([ds.nondiseased.rows, ds.diseased.rows]))
        np.testing.assert_array_equal(rows, [k for k in range(1, 41) if k != 37])

    @pytest.mark.parametrize("chunk", [None, 3000], ids=["one_chunk", "third_chunk"])
    @pytest.mark.parametrize("skip_missing, message", [
        (False, "missing value in column 'outcome' at data row 700"),
        (True, "cannot decode data file"),
    ], ids=["fault_first", "skipped"])
    def test_bytes_that_do_not_decode_after_a_fault(self, tmp_path, monkeypatch, chunk,
                                                    skip_missing, message):
        # The text decoder reads 8 KiB at a time, so the bytes are met after
        # row 700 has been read, both here and in the row loop alone; with
        # 3,000-character chunks, two chunks are taken first.
        if chunk:
            monkeypatch.setattr(robroc_io, "_CHUNK_CHARS", chunk)
        rows = [f"{k}.5,{k % 2},30\n".encode() for k in range(1, 2001)]
        rows[699] = b"NA,1,30\n"
        rows[899] = b"4.5,0,\xe9\n"
        path = tmp_path / "data.csv"
        path.write_bytes(b"outcome,disease,age\n" + b"".join(rows))
        with pytest.raises(DataError, match=message):
            read_csv(path, "outcome", "disease", ["age"], skip_missing=skip_missing)

    @pytest.mark.parametrize("space", ["\x1c", "\x1d", "\x1e", "\x1f"])
    def test_cell_with_a_separator_control_is_unparseable(self, tmp_path, space):
        # np.loadtxt strips these from a number as whitespace; float() does not
        text = f"outcome,disease,age\n1.0,0,30\n2.0,1,40{space}\n"
        with pytest.raises(DataError, match=r"'40\\x1.' in column 'age' at data row 2"):
            read_csv(write_data(tmp_path, text), "outcome", "disease", ["age"])

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_pipe_is_read_once(self, tmp_path):
        # a pipe cannot be rewound, so the row loop reads it
        path = tmp_path / "data.pipe"
        os.mkfifo(path)
        writer = threading.Thread(target=path.write_text, args=(BASIC,))
        writer.start()
        try:
            ds = read_csv(path, "outcome", "disease", ["age"])
        finally:
            writer.join()
        np.testing.assert_array_equal(ds.diseased.outcomes, [2.5, 3.5])
        np.testing.assert_array_equal(ds.diseased.rows, [2, 3])

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_pipe_that_does_not_decode_names_file(self, tmp_path):
        # past the text decoder's first 8 KiB, so that the header decodes
        path = tmp_path / "data.pipe"
        os.mkfifo(path)
        text = BASIC + "".join(f"{k}.5,{k % 2},30\n" for k in range(1000))
        writer = threading.Thread(target=path.write_bytes, args=(text.encode() + b"\xe9\n",))
        writer.start()
        try:
            with pytest.raises(DataError, match=f"cannot decode data file {path}"):
                read_csv(path, "outcome", "disease", ["age"])
        finally:
            writer.join()

    def test_utf8_byte_order_mark_dropped(self, tmp_path):
        # Excel's "CSV UTF-8" starts the file with a byte-order mark
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbf" + BASIC.encode())
        ds = read_csv(path, "outcome", "disease", ["age"])
        plain = read_csv(write_data(tmp_path, BASIC), "outcome", "disease", ["age"])
        for group, want in zip(groups(ds), groups(plain)):
            for name in ("outcomes", "covariates", "rows"):
                np.testing.assert_array_equal(getattr(group, name), getattr(want, name))

    def test_non_utf8_byte_names_file(self, tmp_path):
        path = tmp_path / "latin1.csv"
        path.write_bytes(BASIC.encode() + b"4.5,0,\xe9\n")
        with pytest.raises(DataError, match=f"cannot decode data file {path}"):
            read_csv(path, "outcome", "disease", ["age"])


# Generated rows are mostly numbers, with a 0/1 code in the disease column
# written several ways; up to two cells per row are then swapped for a
# fault: a missing token in mixed case or padding, a disease code of 2 or
# 0.5, or a cell that float() takes or refuses where a stricter parser
# would differ.  Files end their lines with LF, CRLF or a lone CR, and
# some rows are written with every cell quoted.
NUMBERS = ["0", "1", "1.5", "-3e2", " 4.25", "1_0", "inf", "-Infinity", "-nan",
           "+NaN", "5e-324", "1,5", "1_000", "\uff17", "#2", "3\x1c"]
# the numbers that parse to finite values: with the others most files end
# in an error before any group is compared
FINITE = ["0", "1", "1.5", "-3e2", " 4.25", "1_0", "5e-324", "1_000", "\uff17"]
# the finite numbers that np.loadtxt parses too, so that most files are
# read in one pass
PLAIN = ["0", "1", "1.5", "-3e2", " 4.25", "5e-324", "-0.0"]
CODES = ["0", "1", "1.0", "-0", " 1 ", "0e0"]
FAULTS = ["2", "0.5", "", " ", "NA", "na", " nan ", "NaN", "NULL", "Null",
          "x", '"7"', "1,5", "-nan", "#", "6\n", "8\r\n9"]


@st.composite
def csv_files(draw, numbers=NUMBERS, faults=(0, 0, 0, 1, 2)):
    """CSV text with repeated header names, blank and whitespace-only lines,
    and short and long rows, cells drawn from numbers and each row's count
    of faults from faults, plus the covariate list to ask for."""
    header = draw(st.permutations(
        ["y", "d", "a", "b", *draw(st.lists(st.sampled_from(["y", "d", "a", "e"]),
                                            max_size=2))]))
    code_at = len(header) - 1 - header[::-1].index("d")
    end = draw(st.sampled_from(["\n"] * 4 + ["\r\n", "\r"]))
    buffer = io.StringIO()
    writers = [csv.writer(buffer, lineterminator=end, quoting=quoting)
               for quoting in (csv.QUOTE_MINIMAL, csv.QUOTE_ALL)]
    if draw(st.integers(0, 9)) == 1:
        buffer.write(end)
    writers[0].writerow(header)
    for _ in range(draw(st.integers(0, 12))):
        if draw(st.integers(0, 9)) == 1:
            buffer.write(draw(st.sampled_from(["", "", " ", "\t"])) + end)
            continue
        size = draw(st.sampled_from([len(header)] * 6 + [code_at, len(header) + 1]))
        row = [draw(st.sampled_from(CODES if j == code_at else numbers))
               for j in range(max(size, 1))]
        for _ in range(draw(st.sampled_from(faults))):
            row[draw(st.integers(0, len(row) - 1))] = draw(st.sampled_from(FAULTS))
        writers[draw(st.sampled_from([0, 0, 0, 1]))].writerow(row)
    covariates = draw(st.lists(st.sampled_from(["a", "b"]), max_size=2))
    return buffer.getvalue(), covariates


def load_outcome(reader, path, covariates, skip_missing):
    try:
        return reader(path, "y", "d", covariates, skip_missing=skip_missing)
    except DataError as exc:
        return str(exc)


class TestReadCsvMatchesReference:
    @settings(derandomize=True, max_examples=600, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=csv_files(), skip_missing=st.booleans())
    def test_same_arrays_counts_and_errors(self, tmp_path, data, skip_missing):
        self.check(tmp_path, *data, skip_missing)

    @settings(derandomize=True, max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=csv_files(FINITE), skip_missing=st.booleans())
    def test_same_groups_from_finite_cells(self, tmp_path, data, skip_missing):
        self.check(tmp_path, *data, skip_missing)

    @settings(derandomize=True, max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=csv_files(PLAIN, faults=(0,) * 19 + (1,)), skip_missing=st.booleans())
    def test_same_groups_from_plain_cells(self, tmp_path, data, skip_missing):
        self.check(tmp_path, *data, skip_missing)

    @settings(derandomize=True, max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=csv_files(PLAIN, faults=(0,) * 9 + (1,)), skip_missing=st.booleans(),
           chunk=st.integers(1, 80))
    def test_same_groups_over_small_chunks(self, tmp_path, monkeypatch, data,
                                           skip_missing, chunk):
        # chunk boundaries fall inside quoted fields and between a row the
        # row loop must read and the rows before it
        monkeypatch.setattr(robroc_io, "_CHUNK_CHARS", chunk)
        self.check(tmp_path, *data, skip_missing)

    @staticmethod
    def check(tmp_path, text, covariates, skip_missing):
        path = write_data(tmp_path, text)
        got = load_outcome(read_csv, path, covariates, skip_missing)
        want = load_outcome(reference_read_csv, path, covariates, skip_missing)
        if isinstance(want, str):
            assert got == want
            return
        assert isinstance(got, Dataset), got
        for group, want_group in zip(groups(got), groups(want)):
            assert group.label == want_group.label
            for name in ("outcomes", "covariates", "rows"):
                a, b = getattr(group, name), getattr(want_group, name)
                assert a.dtype == b.dtype and a.shape == b.shape, name
                assert np.array_equal(a, b), name
                assert a.flags.c_contiguous, name
        assert got.n == want.n and got.n_skipped == want.n_skipped

    def test_repeated_header_name_takes_last_column(self, tmp_path):
        text = "outcome,age,disease,age\n1.0,5,0,30\n\n2.0,6,1,40\n"
        nd, d = groups(read_csv(write_data(tmp_path, text), "outcome", "disease", ["age"]))
        np.testing.assert_array_equal(nd.covariates[:, 0], [30.0])
        np.testing.assert_array_equal(d.covariates[:, 0], [40.0])
        np.testing.assert_array_equal(nd.rows, [1])
        np.testing.assert_array_equal(d.rows, [2])


class TestGroupSample:
    @pytest.mark.parametrize("outcomes, covariates, message", [
        ([1.0, 2.0], np.zeros((2, 1, 1)), "covariates must be a 2-d array"),
        ([1.0, 2.0], np.zeros((3, 1)), "2 outcomes but 3 covariate rows"),
        ([], np.zeros((0, 1)), "empty group 'g'"),
        ([1.0, np.nan], np.zeros((2, 1)), "non-finite outcomes in group 'g'"),
        ([1.0, 2.0], [[0.0], [np.inf]], "non-finite covariates in group 'g'"),
    ], ids=["three_dim", "row_mismatch", "empty", "nan_outcome", "inf_covariate"])
    def test_bad_group_rejected(self, outcomes, covariates, message):
        with pytest.raises(DataError, match=f"^{message}$"):
            GroupSample(outcomes=outcomes, covariates=covariates, label="g")


class TestLoadConfig:
    def test_comments_and_blanks(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("# fit options\n\ntuning = 2.0\nknots=1,2\n")
        assert load_config(path) == {"tuning": "2.0", "knots": "1,2"}

    def test_bad_line(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("tuning 2.0\n")
        with pytest.raises(UsageError, match="line 1 is not key=value"):
            load_config(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(UsageError, match="cannot read config file"):
            load_config(tmp_path / "absent.cfg")


class TestRunConfig:
    def test_flag_beats_config_beats_default(self):
        cfg = RunConfig.resolve({"tuning": 2.5, "seed": None},
                                {"tuning": "9.9", "alpha": "0.1"})
        assert cfg.tuning == 2.5       # flag wins
        assert cfg.alpha == 0.1        # config wins over default
        assert cfg.seed == 0           # default
        assert cfg.replicates == 1000

    def test_unknown_config_key(self):
        with pytest.raises(UsageError, match="unknown config keys: bandwidth"):
            RunConfig.resolve({}, {"bandwidth": "1"})

    def test_typed_parsing_from_config(self):
        cfg = RunConfig.resolve({}, {"max_iterations": "7", "tol": "1e-6",
                                     "skip_missing": "yes",
                                     "covariates": "age, bmi"})
        assert cfg.max_iterations == 7
        assert cfg.tol == 1e-6
        assert cfg.skip_missing is True
        assert cfg.covariates == ["age", "bmi"]

    def test_bad_typed_value(self):
        with pytest.raises(UsageError, match="expected int"):
            RunConfig.resolve({}, {"seed": "soon"})
        with pytest.raises(UsageError, match="expected a boolean"):
            RunConfig.resolve({}, {"skip_missing": "perhaps"})

    def test_simulate_keys_accepted(self):
        cfg = RunConfig.resolve({}, {"scenario": "I", "sizes": "200,100",
                                     "reps": "50", "contamination": "0.05",
                                     "kappa": "15,20", "estimators": "robust",
                                     "grid_points": "11"})
        assert cfg.scenario == "I"
        assert cfg.sizes == "200,100"
        assert cfg.reps == 50
        assert cfg.contamination == 0.05
        assert cfg.grid_points == 11


class TestTables:
    def test_roundtrip_preserves_full_precision(self, tmp_path):
        path = tmp_path / "table.csv"
        values = [1 / 3, np.pi, 1e-17, -2.5000000000000004]
        write_table(path, ["name", "value"],
                    [[f"v{i}" for i in range(len(values))], np.array(values)])
        header, rows = read_table(path)
        assert header == ["name", "value"]
        assert [float(r[1]) for r in rows] == values

    def test_integer_and_bool_cells(self, tmp_path):
        path = tmp_path / "table.csv"
        write_table(path, ["a", "b", "c", "d"],
                    [[np.int64(7)], [True], [False], np.array([True])])
        _, rows = read_table(path)
        assert rows == [["7", "1", "0", "1"]]

    def test_byte_identical_rewrite(self, tmp_path):
        rng = np.random.default_rng(3)
        columns = [np.arange(20), rng.normal(size=20)]
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_table(p1, ["i", "x"], columns)
        write_table(p2, ["i", "x"], columns)
        assert p1.read_bytes() == p2.read_bytes()

    def test_unequal_columns_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="unequal length"):
            write_table(tmp_path / "t.csv", ["a", "b"], [[1, 2], [3]])


def awkward_floats(size):
    return st.lists(st.one_of(
        st.floats(allow_nan=True, allow_infinity=True),
        st.sampled_from([0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1e-310,
                         1 / 3, -1e300, float("nan"), float("inf"), float("-inf")])),
        min_size=size, max_size=size)


# One generated column kind each: how it is built from n rows.
COLUMN_KINDS = {
    "float64": lambda n: awkward_floats(n).map(np.array),
    "int64": lambda n: st.lists(st.integers(-2**63, 2**63 - 1), min_size=n,
                                max_size=n).map(lambda v: np.array(v, dtype=np.int64)),
    "uint8": lambda n: st.lists(st.integers(0, 255), min_size=n,
                                max_size=n).map(lambda v: np.array(v, dtype=np.uint8)),
    "bool": lambda n: st.lists(st.booleans(), min_size=n, max_size=n).map(np.array),
    "float32": lambda n: st.lists(st.floats(width=32), min_size=n, max_size=n).map(
        lambda v: np.array(v, dtype=np.float32)),
    "cells": lambda n: st.lists(st.one_of(
        st.booleans(), st.booleans().map(np.bool_), st.integers(),
        st.integers(-2**63, 2**63 - 1).map(np.int64), st.floats(),
        st.floats().map(np.float64),
        st.text(st.sampled_from('ab ,"\n\r\'é'), max_size=6)),
        min_size=n, max_size=n),
}


@st.composite
def tables(draw):
    n = draw(st.integers(0, 12))
    kinds = draw(st.lists(st.sampled_from(sorted(COLUMN_KINDS)), min_size=1, max_size=5))
    return [f"c{j}" for j in range(len(kinds))], [draw(COLUMN_KINDS[k](n)) for k in kinds]


class TestWriteTableMatchesReference:
    @settings(derandomize=True, max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(table=tables())
    def test_same_bytes_as_row_writer(self, tmp_path, table):
        header, columns = table
        write_table(tmp_path / "got.csv", header, columns)
        reference_write_table(tmp_path / "want.csv", header, zip(*columns))
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()

    @pytest.mark.parametrize("columns", [
        [["", "a"]], [["a", ""], [1, 2]], [["a,b", "c"], [1.5, 2.5]],
        [['say "hi"', "x"], [1, 2]], [["x\ry", "z"], [1, 2]], [["x\ny", "z"], [1, 2]],
    ], ids=["lone_empty_cell", "empty_cell", "comma", "quote", "cr", "newline"])
    def test_cells_that_need_quoting(self, tmp_path, columns):
        header = [f"c{j}" for j in range(len(columns))]
        write_table(tmp_path / "got.csv", header, columns)
        reference_write_table(tmp_path / "want.csv", header, zip(*columns))
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()

    def test_same_bytes_across_row_blocks(self, tmp_path):
        rng = np.random.default_rng(5)
        n = 3 * 4096 + 17
        columns = [["nondiseased"] * n, np.arange(n), rng.standard_cauchy(n),
                   rng.uniform(size=n) < 0.5, np.column_stack([rng.normal(size=n)] * 2).T[1]]
        write_table(tmp_path / "got.csv", list("abcde"), columns)
        reference_write_table(tmp_path / "want.csv", list("abcde"), zip(*columns))
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()

    def test_each_row_block_chooses_its_writer(self, tmp_path):
        # the first block's cells are plain; the second's need the csv
        # module, which writes a lone CR unquoted where it ends lines with LF
        n = 4096 + 6
        names = ["plain"] * n
        names[4096:4099] = ["a,b", "\r", ""]
        columns = [names, np.arange(n), np.linspace(0.0, 1.0, n)]
        write_table(tmp_path / "got.csv", list("abc"), columns)
        reference_write_table(tmp_path / "want.csv", list("abc"), zip(*columns))
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


class TestManifest:
    def test_structure_and_stability(self, tmp_path):
        path = tmp_path / "manifest.json"
        write_manifest(path, "fit", {"seed": 1, "knots": "2"},
                       [tmp_path / "coefficients.csv"])
        payload = json.loads(path.read_text())
        assert set(payload) == {"command", "options", "outputs",
                                "package_version"}
        assert payload["command"] == "fit"
        assert payload["options"]["seed"] == 1
        assert payload["outputs"] == [str(tmp_path / "coefficients.csv")]
        first = path.read_bytes()
        write_manifest(path, "fit", {"seed": 1, "knots": "2"},
                       [tmp_path / "coefficients.csv"])
        assert path.read_bytes() == first
