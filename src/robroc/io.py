"""Data files in, output tables out.

A data file is a headered CSV with an outcome column, a 0/1 disease column
and covariate columns, and read_csv returns it as its two groups.
Missing-value tokens ("", "NA", "NaN", "null", case-insensitive) either
abort ingestion with the offending row named or, with the skip policy
enabled, drop the row and count it.  Every fault in a data file is a
DataError.  Output tables are CSV with floats written through repr, so
reading a table back reproduces every value exactly.
"""

from __future__ import annotations

import csv
import itertools
import json
import operator
import os
from dataclasses import dataclass

import numpy as np

from .data import GroupSample
from .errors import DataError

_MISSING_TOKENS = {"", "na", "nan", "null"}
_FLAGS = (0.0, 1.0)
# Characters that np.loadtxt strips from a number as whitespace and float()
# refuses
_LOADTXT_ONLY_SPACES = "\x1c\x1d\x1e\x1f"
# Characters of body lines parsed per np.loadtxt call: a chunk that the
# row loop must read costs one chunk's parse, and no more than a chunk of
# the file is held as text.
_CHUNK_CHARS = 1 << 18


@dataclass
class Dataset:
    """A study table as its two groups, each holding its 1-based data-row
    numbers, and the number of rows skipped for missing values."""

    nondiseased: GroupSample
    diseased: GroupSample
    n_skipped: int = 0

    @property
    def n(self) -> int:
        return self.nondiseased.n + self.diseased.n


def _checked_row(i: int, row: list[str], cols: list[int], used: list[str],
                 skip_missing: bool) -> list[float] | None:
    """Parse data row i cell by cell, naming its first fault in this order: a
    missing token, an unparseable cell, a disease code other than 0/1.  cols
    holds the column of each name in used, whose second is the disease.
    Return the used columns' values, or None when the row is skipped."""
    cells = [row[j] if j < len(row) else "" for j in cols]
    for name, cell in zip(used, cells):
        if cell.strip().lower() in _MISSING_TOKENS:
            if skip_missing:
                return None
            raise DataError(f"missing value in column {name!r} at data row {i}")
    parsed = []
    for name, cell in zip(used, cells):
        try:
            parsed.append(float(cell))
        except ValueError:
            raise DataError(
                f"cannot parse {cell!r} in column {name!r} at data row {i}"
            ) from None
    if parsed[1] not in _FLAGS:
        raise DataError(
            f"disease column {used[1]!r} must be 0 or 1, got {cells[1]!r}"
            f" at data row {i}"
        )
    return parsed


def _chunk_table(lines: list[str], cols: list[int]) -> np.ndarray | None:
    """A chunk of a data file's body lines parsed by np.loadtxt as the
    values of cols, when these are the row loop's rows: no character that
    only loadtxt reads as a space, no line longer than the csv module's
    field limit, every row on one nonblank line, no NaN (a missing token
    may parse to one) and only 0/1 disease codes.  Otherwise None, since
    only the row loop names a fault or skips a row.  A quoted field may
    hold line breaks, and loadtxt reads no field of a column it does not
    use, so a row over several lines could hide a field that the csv
    module refuses."""
    text = "".join(lines)
    if (any(char in text for char in _LOADTXT_ONLY_SPACES)
            or max(map(len, lines)) > csv.field_size_limit()):
        return None
    # A line of zeros after the chunk is a row of its own only when the
    # chunk does not end inside a quoted field.  loadtxt ends each line of
    # the list it is given, the last line of a file with no line break too.
    zeros = ",".join(["0"] * (max(cols) + 1)) + "\n"
    try:
        table = np.loadtxt([*lines, zeros], delimiter=",", quotechar='"', comments=None,
                           usecols=cols, dtype=float, ndmin=2)
    except ValueError:  # a cell or a row loadtxt refuses
        return None
    # The file is read with newline="", so a line ends in LF, CRLF or a
    # lone CR, as a csv module row does, and is blank when it is that alone.
    n_rows = len(lines) - sum(map(lines.count, ("\n", "\r\n", "\r")))
    if (len(table) != n_rows + 1 or np.isnan(table).any()
            or not ((table[:, 1] == 0) | (table[:, 1] == 1)).all()):
        return None
    return table[:-1]


def read_csv(path, outcome: str, disease: str, covariates,
             skip_missing: bool = False) -> Dataset:
    """Load a headered CSV as its nondiseased (disease 0) and diseased
    (disease 1) groups.

    Row numbers in error messages are 1-based data rows (the header is row
    0); blank lines are not counted.  Where a column name repeats in the
    header, its last column is used.  With skip_missing, rows containing a
    missing token in any used column are dropped and counted instead of
    raising.  A file the csv module cannot split, or that does not decode,
    is a DataError too, and so is a group with no rows or with a
    non-finite value.
    """
    used = [outcome, disease, *covariates]
    try:
        # utf-8-sig also drops the byte-order mark that Excel writes
        handle = open(path, newline="", encoding="utf-8-sig")
    except OSError as exc:
        raise DataError(f"cannot open data file {path}: {exc}") from None
    blocks = []  # tables of rows taken a chunk at a time
    values, rows = [], []
    n_skipped = 0
    i = -1
    with handle:
        reader = csv.reader(handle)
        try:
            header = next(reader, [])
            i = 0
            column = {name: j for j, name in enumerate(header)}  # last one wins
            for name in used:
                if name not in column:
                    raise DataError(
                        f"column {name!r} not in data file (columns: {', '.join(header)})"
                    )
            cols = [column[name] for name in used]
            # The body is parsed a chunk at a time until a chunk holds a row
            # that the row loop must read.  Bytes that do not decode send
            # the whole file back to the row loop, which names the first
            # fault, in an earlier row or in them; so a pipe, which cannot
            # be read again, goes to the row loop from the start.
            if handle.seekable():
                try:
                    while lines := handle.readlines(_CHUNK_CHARS):
                        table = _chunk_table(lines, cols)
                        if table is None:
                            # the row loop reads the rest from this chunk on
                            reader = csv.reader(itertools.chain(lines, handle))
                            break
                        blocks.append(table)
                        i += len(table)
                except UnicodeDecodeError:
                    i = 0
                    handle.seek(0)
                    reader = csv.reader(handle)
                    next(reader)  # the header again
            n_taken = i
            pick = operator.itemgetter(*cols)
            # A row whose used cells all parse, none to NaN, with a 0/1
            # disease code is taken as it is; any other row is parsed again
            # cell by cell to find its fault.  A NaN may be a missing token.
            for i, row in enumerate(filter(None, reader), start=n_taken + 1):
                try:
                    parsed = [*map(float, pick(row))]
                except (ValueError, IndexError):
                    parsed = None
                if parsed is None or parsed[1] not in _FLAGS or (s := sum(parsed)) != s:
                    parsed = _checked_row(i, row, cols, used, skip_missing)
                    if parsed is None:
                        n_skipped += 1
                        continue
                values.extend(parsed)
                rows.append(i)
        except csv.Error as exc:
            at = "its header" if i < 0 else f"data row {i + 1}"
            raise DataError(f"cannot read data file {path} at {at}: {exc}") from None
        except UnicodeDecodeError as exc:
            raise DataError(f"cannot decode data file {path}: {exc}") from None
    if not n_taken + len(rows):
        raise DataError("no usable data rows")
    table = np.concatenate([*blocks, np.array(values, dtype=float).reshape(-1, len(used))])
    rows = np.concatenate([np.arange(1, n_taken + 1), np.array(rows, dtype=int)])
    # both labels are checked before either group is built, so that a
    # missing group is named before a non-finite value
    masks = [table[:, 1] == label for label in (0, 1)]
    for label, mask in enumerate(masks):
        if not mask.any():
            raise DataError(f"no rows with {disease} == {label}")
    nondiseased, diseased = (
        GroupSample(outcomes=table[mask, 0], covariates=table[mask, 2:], label=label,
                    rows=rows[mask])
        for mask, label in zip(masks, ("nondiseased", "diseased")))
    return Dataset(nondiseased, diseased, n_skipped)


def _format_cell(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


# Rows formatted and written per block: formatting whole columns at once
# would hold every cell of a large table as a string.
_BLOCK_ROWS = 4096


def _format_column(column) -> list[str]:
    if isinstance(column, np.ndarray) and column.dtype == np.float64:
        return list(map(repr, column.tolist()))
    if isinstance(column, np.ndarray) and column.dtype.kind in "iu":
        return list(map(str, column.tolist()))
    return [v if type(v) is str else _format_cell(v) for v in column]


def _plain(column, cells: list[str]) -> bool:
    """Whether the csv module writes each of a column's formatted cells as
    it is: a number always, and a str that is not empty and holds no
    delimiter, quote or line break."""
    if isinstance(column, np.ndarray) and column.dtype.kind in "biuf":
        return True
    if "" in cells:
        return False
    text = "".join(cells)
    return not any(char in text for char in ',"\r\n')


def write_table(path, header, columns) -> None:
    """CSV with repr-formatted floats, newline-terminated rows.  columns
    holds one equal-length sequence per header name."""
    n = len(columns[0]) if len(columns) else 0
    if any(len(column) != n for column in columns):
        raise ValueError(f"columns of unequal length for {path}")
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        for start in range(0, n, _BLOCK_ROWS):
            parts = [column[start:start + _BLOCK_ROWS] for column in columns]
            block = [_format_column(part) for part in parts]
            if all(map(_plain, parts, block)):
                # no cell is quoted, so the csv module would only join them
                handle.write("\n".join(map(",".join, zip(*block))) + "\n")
            else:
                writer.writerows(zip(*block))


def write_manifest(path, command: str, options: dict, outputs) -> None:
    from . import __version__

    payload = {
        "command": command,
        "options": options,
        "outputs": [os.fspath(p) for p in outputs],
        "package_version": __version__,
    }
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
