"""Count the lines of each module of ``src/mfglab``, and of ``tests/``.

    python3 benchmarks/loc.py [REV]

Run from the root of a source checkout.  For each module of
``src/mfglab`` it prints three counts:

- ``lines``: every line of the file;
- ``code``: the Python code lines, those holding a token other than a
  comment, a docstring or the C source string ``_SOURCE`` (so blank lines,
  comment lines, docstrings and the C source are left out);
- ``C``: the C source lines, the lines of ``_SOURCE`` that are not blank.

Then it prints the totals of ``src/mfglab`` and of the test files
``tests/*.py``.  Given REV, each count is printed for REV and for the
working tree side by side; REV is exported with ``git archive`` into a
temporary directory, which is removed when the script ends, also on
failure.
"""

from __future__ import annotations

import ast
import glob
import io
import os
import subprocess
import sys
import tempfile
import tokenize

ROOT = os.getcwd()
PACKAGE = os.path.join("src", "mfglab")
# tokens that hold no code
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _is_source(node: ast.AST) -> bool:
    return (isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "_SOURCE" for t in node.targets))


def _left_out(tree: ast.Module) -> list[tuple[int, int]]:
    """The (first, last) lines of each docstring and of ``_SOURCE``'s value."""
    spans = []
    for node in ast.walk(tree):
        body = getattr(node, "body", None)
        if (isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
                and body and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)):
            spans.append((body[0].lineno, body[0].end_lineno))
        if _is_source(node):
            spans.append((node.value.lineno, node.value.end_lineno))
    return spans


def counts(path: str) -> tuple[int, int, int]:
    """(lines, code lines, C source lines) of one Python file."""
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    tree = ast.parse(text)
    spans = _left_out(tree)
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type in _LAYOUT or any(a <= tok.start[0] <= b for a, b in spans):
            continue
        code.update(range(tok.start[0], tok.end[0] + 1))
    c_lines = sum(1 for node in ast.walk(tree) if _is_source(node)
                  for line in node.value.value.splitlines() if line.strip())
    return len(text.splitlines()), len(code), c_lines


def _total(rows) -> tuple[int, int, int]:
    return tuple(sum(column) for column in zip(*rows, (0, 0, 0)))


def tree_counts(root: str) -> dict[str, tuple[int, int, int]]:
    """The counts of each module of ``src/mfglab`` under ``root``, and the
    totals of the package and of ``tests/*.py``."""
    out = {os.path.basename(path): counts(path)
           for path in sorted(glob.glob(os.path.join(root, PACKAGE, "*.py")))}
    out["src/mfglab total"] = _total(out.values())
    out["tests/ total"] = _total(counts(path)
                                 for path in glob.glob(os.path.join(root, "tests", "*.py")))
    return out


def export(rev: str, into: str) -> None:
    """``rev``'s tree, exported with ``git archive`` into ``into``."""
    archive = subprocess.run(["git", "archive", rev], cwd=ROOT, check=True,
                             capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", into], input=archive, check=True)


def main(argv: list[str]) -> int:
    sides = [("tree", tree_counts(ROOT))]
    if argv:
        with tempfile.TemporaryDirectory() as tmp:
            export(argv[0], tmp)
            sides.insert(0, (argv[0], tree_counts(tmp)))
    columns = [(i, f"{what} {side}", c) for i, what in enumerate(("lines", "code", "C"))
               for side, c in sides]
    width = max(10, *(len(label) + 2 for _, label, _ in columns))
    names = sorted({n for _, c in sides for n in c if not n.endswith("total")})
    print(f"{'module':<18}" + "".join(f"{label:>{width}}" for _, label, _ in columns))
    for name in [*names, "src/mfglab total", "tests/ total"]:
        print(f"{name:<18}" + "".join(f"{c[name][i] if name in c else '-':>{width}}"
                                      for i, _, c in columns))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
