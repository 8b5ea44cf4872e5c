"""Line counts of the robroc sources, per module and in total.

Each line of a module under src/robroc is counted once, as a docstring
line (inside a module, class or function docstring), a comment line (a
line that starts with #), a blank line, or a code line (any other).  A
design change can then show where a cut in total lines comes from: code
removed, or comments, docstrings and blank lines dropped.

    python3 tools/src_lines.py [SRC_DIR]

SRC_DIR defaults to src/robroc beside this script's directory.  Uses the
standard library only.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

KINDS = ("total", "code", "docstring", "comment", "blank")


def docstring_lines(tree: ast.Module) -> set[int]:
    """Line numbers covered by the module's, classes' and functions'
    docstrings."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def count(path: Path) -> dict[str, int]:
    text = path.read_text()
    docs = docstring_lines(ast.parse(text))
    counts = dict.fromkeys(KINDS, 0)
    for number, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        kind = ("docstring" if number in docs else "blank" if not stripped
                else "comment" if stripped.startswith("#") else "code")
        counts[kind] += 1
        counts["total"] += 1
    return counts


def main(argv: list[str]) -> int:
    src = Path(argv[1]) if len(argv) > 1 else Path(__file__).resolve().parent.parent / "src" / "robroc"
    rows = {path.stem: count(path) for path in sorted(src.glob("*.py"))}
    rows["total"] = {kind: sum(r[kind] for r in rows.values()) for kind in KINDS}
    width = max(map(len, rows))
    print(f"{'module':<{width}}" + "".join(f"{kind:>11}" for kind in KINDS))
    for name, r in rows.items():
        print(f"{name:<{width}}" + "".join(f"{r[kind]:>11}" for kind in KINDS))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
