"""CSV ingestion, option-value parsers, and output tables.

Data files are headered CSV.  Missing-value tokens ("", "NA", "NaN",
"null", case-insensitive) either abort ingestion with the offending row
named or, with the skip policy enabled, drop the row and count it.  Output
tables are CSV with floats written through repr, so reading a table back
reproduces every value exactly.
"""

from __future__ import annotations

import csv
import json
import operator
import os
from dataclasses import dataclass

import numpy as np

from .data import GroupSample
from .errors import DataError, UsageError

_MISSING_TOKENS = {"", "na", "nan", "null"}
_FLAGS = (0.0, 1.0)


@dataclass
class Dataset:
    """Parsed study data: one outcome, one 0/1 disease marker, covariates."""

    outcomes: np.ndarray
    disease: np.ndarray
    covariates: np.ndarray
    outcome_name: str
    disease_name: str
    covariate_names: list[str]
    rows: np.ndarray
    n_skipped: int = 0

    @property
    def n(self) -> int:
        return self.outcomes.size

    def group(self, label: int) -> GroupSample:
        mask = self.disease == label
        name = "diseased" if label == 1 else "nondiseased"
        if not np.any(mask):
            raise DataError(f"no rows with {self.disease_name} == {label}")
        return GroupSample(
            outcomes=self.outcomes[mask],
            covariates=self.covariates[mask],
            label=name,
            rows=self.rows[mask],
        )


def _is_missing(cell: str) -> bool:
    return cell.strip().lower() in _MISSING_TOKENS


def _checked_row(i: int, row: list[str], column: dict[str, int], used: list[str],
                 disease: str, skip_missing: bool) -> list[float] | None:
    """Parse data row i cell by cell, naming its first fault in this order: a
    missing token, an unparseable cell, a disease code other than 0/1.
    Return the used columns' values, or None when the row is skipped."""
    cells = {name: (row[column[name]] if column[name] < len(row) else "")
             for name in used}
    missing = [name for name, cell in cells.items() if _is_missing(cell)]
    if missing:
        if skip_missing:
            return None
        raise DataError(f"missing value in column {missing[0]!r} at data row {i}")
    parsed = {}
    for name, cell in cells.items():
        try:
            parsed[name] = float(cell)
        except ValueError:
            raise DataError(
                f"cannot parse {cell!r} in column {name!r} at data row {i}"
            ) from None
    if parsed[disease] not in _FLAGS:
        raise DataError(
            f"disease column {disease!r} must be 0 or 1, got {cells[disease]!r}"
            f" at data row {i}"
        )
    return [parsed[name] for name in used]


def read_csv(path, outcome: str, disease: str, covariates,
             skip_missing: bool = False) -> Dataset:
    """Load a headered CSV into a Dataset.

    Row numbers in error messages are 1-based data rows (the header is row
    0); blank lines are not counted.  Where a column name repeats in the
    header, its last column is used.  With skip_missing, rows containing a
    missing token in any used column are dropped and counted instead of
    raising.  A file the csv module cannot split, or that does not decode,
    is a DataError too.
    """
    covariates = list(covariates)
    used = [outcome, disease, *covariates]
    try:
        # utf-8-sig also drops the byte-order mark that Excel writes
        handle = open(path, newline="", encoding="utf-8-sig")
    except OSError as exc:
        raise DataError(f"cannot open data file {path}: {exc}") from None
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
            pick = operator.itemgetter(*(column[name] for name in used))
            # A row whose used cells all parse, none to NaN, with a 0/1
            # disease code is taken as it is; any other row is parsed again
            # cell by cell to find its fault.  A NaN may be a missing token.
            for i, row in enumerate(filter(None, reader), start=1):
                try:
                    parsed = [*map(float, pick(row))]
                except (ValueError, IndexError):
                    parsed = None
                if parsed is None or parsed[1] not in _FLAGS or (s := sum(parsed)) != s:
                    parsed = _checked_row(i, row, column, used, disease, skip_missing)
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
    if not rows:
        raise DataError("no usable data rows")
    table = np.array(values, dtype=float).reshape(len(rows), len(used))
    ds = Dataset(
        outcomes=table[:, 0].copy(),
        disease=table[:, 1].astype(int),
        covariates=table[:, 2:].copy(),
        outcome_name=outcome,
        disease_name=disease,
        covariate_names=covariates,
        rows=np.asarray(rows, dtype=int),
        n_skipped=n_skipped,
    )
    for label in (0, 1):
        if not np.any(ds.disease == label):
            raise DataError(f"no rows with {disease} == {label}")
    return ds


def parse_knots(raw: str, n_covariates: int) -> list[int | None]:
    """Per-covariate interior knot counts; 'cat' marks a 0/1 passthrough
    column; a single entry broadcasts to all covariates."""
    items = [s.strip() for s in str(raw).split(",") if s.strip()]
    if not items:
        raise UsageError("empty knots specification")
    parsed: list[int | None] = []
    for item in items:
        if item.lower() == "cat":
            parsed.append(None)
        else:
            try:
                value = int(item)
            except ValueError:
                raise UsageError(f"bad knot count {item!r}") from None
            if value < 0:
                raise UsageError(f"knot count must be >= 0, got {value}")
            parsed.append(value)
    if len(parsed) == 1 and n_covariates > 1:
        parsed = parsed * n_covariates
    if len(parsed) != n_covariates:
        raise UsageError(
            f"{len(parsed)} knot entries for {n_covariates} covariates"
        )
    return parsed


def parse_grid(raw: str) -> np.ndarray:
    """Parse 'start:stop:count' into an inclusive linspace."""
    parts = str(raw).split(":")
    if len(parts) != 3:
        raise UsageError(f"grid must be start:stop:count, got {raw!r}")
    try:
        start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise UsageError(f"grid must be start:stop:count, got {raw!r}") from None
    if count < 1:
        raise UsageError("grid count must be >= 1")
    return np.linspace(start, stop, count)


def parse_values(raw: str) -> np.ndarray:
    try:
        return np.asarray([float(s) for s in str(raw).split(",") if s.strip()])
    except ValueError:
        raise UsageError(f"bad numeric list {raw!r}") from None


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
            block = [_format_column(column[start:start + _BLOCK_ROWS])
                     for column in columns]
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
