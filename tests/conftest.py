"""Shared pytest hooks and test helpers.

The acceptance tests register one verdict line each; printing them from a
terminal-summary hook keeps them visible under pytest's default capture.
"""

import csv

import numpy as np

from robroc.splines import _full_basis

VERDICTS = []


def read_table(path) -> tuple[list[str], list[list[str]]]:
    """A written table's header and data rows, as strings."""
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader)
        return header, [row for row in reader]


def full_basis_row(x: float, knots) -> np.ndarray:
    """The complete K + 4 basis values at a single point (nothing dropped)."""
    return _full_basis(np.asarray([[x]], dtype=float), [knots])[0, :, 0]


def pytest_terminal_summary(terminalreporter):
    if VERDICTS:
        terminalreporter.section("acceptance verdicts")
        for line in VERDICTS:
            terminalreporter.write_line(line)
