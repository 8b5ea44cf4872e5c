"""CSV ingestion, flat key=value configs, and output tables.

Data files are headered CSV.  Missing-value tokens ("", "NA", "NaN",
"null", case-insensitive) either abort ingestion with the offending row
named or, with the skip policy enabled, drop the row and count it.  Output
tables are CSV with floats written through repr, so reading a table back
reproduces every value exactly.
"""

from __future__ import annotations

import csv
import json
import os
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .data import GroupSample
from .errors import DataError, UsageError

CONFIG_ENV_VAR = "ROBROC_CONFIG"
_MISSING_TOKENS = {"", "na", "nan", "null"}


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


def read_csv(path, outcome: str, disease: str, covariates,
             skip_missing: bool = False) -> Dataset:
    """Load a headered CSV into a Dataset.

    Row numbers in error messages are 1-based data rows (the header is row
    0).  With skip_missing, rows containing a missing token in any used
    column are dropped and counted instead of raising.
    """
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
            missing = [name for name, cell in cells.items() if _is_missing(cell)]
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
    ds = Dataset(
        outcomes=np.asarray(y, dtype=float),
        disease=np.asarray(dz, dtype=int),
        covariates=np.asarray(X, dtype=float),
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


def load_config(path) -> dict[str, str]:
    """Flat key=value file; blank lines and # comments are ignored."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from None
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise UsageError(f"config line {lineno} is not key=value: {raw!r}")
        key, _, value = line.partition("=")
        out[key.strip()] = value.strip()
    return out


@dataclass
class RunConfig:
    """Resolved options for one CLI run: flag > config file > default."""

    data: str | None = None
    outcome: str = "outcome"
    disease: str = "disease"
    covariates: list[str] = field(default_factory=list)
    knots: str = "0"
    candidates: str = "0,1,2,3,4"
    tuning: float = 1.345
    truncation: float = 3.0
    max_iterations: int = 50
    tol: float = 1e-8
    seed: int = 0
    replicates: int = 1000
    alpha: float = 0.05
    t_points: int = 201
    simpson_panels: int = 200
    x: str | None = None
    x_grid: str | None = None
    out: str = "."
    skip_missing: bool = False
    scenario: str | None = None
    sizes: str | None = None
    reps: int = 100
    contamination: float = 0.0
    kappa: str | None = None
    outlier_kind: str = "location"
    select: str | None = None
    estimators: str = "robust"
    grid_points: int = 21

    @classmethod
    def resolve(cls, flags: dict, config: dict[str, str]) -> "RunConfig":
        known = {f.name for f in fields(cls) if not f.name.startswith("_")}
        unknown = set(config) - known
        if unknown:
            raise UsageError(f"unknown config keys: {', '.join(sorted(unknown))}")
        values: dict = {}
        for name in known:
            if name in flags and flags[name] is not None:
                values[name] = flags[name]
            elif name in config:
                values[name] = cls._parse(name, config[name])
        if isinstance(values.get("covariates"), str):
            values["covariates"] = cls._parse("covariates", values["covariates"])
        return cls(**values)

    @classmethod
    def _parse(cls, name: str, raw: str):
        if name == "covariates":
            return [c.strip() for c in raw.split(",") if c.strip()]
        if name == "skip_missing":
            low = raw.strip().lower()
            if low in ("1", "true", "yes", "on"):
                return True
            if low in ("0", "false", "no", "off"):
                return False
            raise UsageError(f"config key skip_missing: expected a boolean, got {raw!r}")
        kind = type(next(f.default for f in fields(cls) if f.name == name))
        if kind not in (int, float):
            return raw
        try:
            return kind(raw)
        except ValueError:
            raise UsageError(
                f"config key {name}: expected {kind.__name__}, got {raw!r}"
            ) from None


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


def write_table(path, header, rows) -> None:
    """CSV with repr-formatted floats, newline-terminated rows."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_format_cell(v) for v in row])


def read_table(path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader)
        return header, [row for row in reader]


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
