#!/usr/bin/env python3
"""Count the lines of each src/fraclab module, all and code only, and
report the memory its compilation peaks at.

Usage: python3 tools/count_lines.py [REV]

Code lines leave out blank lines, comment lines, and the module, class and
function docstrings: a line counts when it holds a token other than a
comment, a docstring or layout (newlines, indents).  A multi-line string
that is not a docstring counts in full.  The compile peak is what
tracemalloc records at most while compile() turns the module's source into
code, in KB; an import without cached bytecode pays it, so it shows in a
run's peak RSS.  The total row sums the lines and gives the largest compile
peak.  Without REV the working tree's modules are counted; with REV (any
git revision) that revision's modules, read with `git show`, are counted
beside them, and the differences follow.
"""

import ast
import io
import subprocess
import sys
import tokenize
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
PACKAGE = "src/fraclab"
LAYOUT = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER,
}
# Compiles the source bytes on stdin and prints tracemalloc's peak meanwhile.
PROBE = (
    "import sys, tracemalloc; source = sys.stdin.buffer.read(); tracemalloc.start(); "
    "compile(source, '<module>', 'exec', dont_inherit=True); print(tracemalloc.get_traced_memory()[1])"
)


def docstring_spans(tree):
    """(start, end) positions of every module, class and function docstring."""
    spans = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                value = first.value
                spans.append(((value.lineno, value.col_offset), (value.end_lineno, value.end_col_offset)))
    return spans


def count(text):
    """(all lines, code lines) of one Python source text."""
    spans = docstring_spans(ast.parse(text))
    code = set()
    for token in tokenize.generate_tokens(io.StringIO(text).readline):
        if token.type in LAYOUT:
            continue
        if token.type == tokenize.STRING and any(lo <= token.start < hi for lo, hi in spans):
            continue
        code.update(range(token.start[0], token.end[0] + 1))
    return len(text.splitlines()), len(code)


def compile_peak(text):
    """Peak bytes tracemalloc records while a fresh interpreter compiles one
    Python source text from its bytes, as an import without cached bytecode
    does.  A fresh interpreter per text keeps the one-off growth of shared
    tables (the interned-string dict) off whichever text happens to trigger
    it, so equal texts read equal."""
    proc = subprocess.run(
        [sys.executable, "-I", "-c", PROBE], input=text.encode("utf-8"), capture_output=True, check=True
    )
    return int(proc.stdout)


def working_tree():
    """Module name -> source text of the working tree's package."""
    return {path.name: path.read_text(encoding="utf-8") for path in sorted((REPO / PACKAGE).glob("*.py"))}


def revision(rev):
    """Module name -> source text of the package at git revision `rev`."""
    def git(*args):
        proc = subprocess.run(["git", "-C", str(REPO), *args], capture_output=True, text=True)
        if proc.returncode != 0:
            sys.exit(f"count_lines: git {' '.join(args)} failed: {proc.stderr.strip()}")
        return proc.stdout

    names = [Path(name).name for name in git("ls-tree", "--name-only", f"{rev}:{PACKAGE}").split()]
    return {name: git("show", f"{rev}:{PACKAGE}/{name}") for name in names if name.endswith(".py")}


def main(argv):
    if len(argv) > 1:
        sys.exit("usage: python3 tools/count_lines.py [REV]")
    sides = [working_tree()] + [revision(rev) for rev in argv]
    counts = [
        {name: (*count(text), round(compile_peak(text) / 1024)) for name, text in side.items()} for side in sides
    ]
    for side in counts:
        lines, code, peaks = zip(*side.values())
        side["total"] = (sum(lines), sum(code), max(peaks))
    names = sorted(set().union(*counts) - {"total"}) + ["total"]
    columns = ["lines", "code", "compile KB"]
    header = ["module", *columns]
    if argv:
        header += [f"{argv[0]} {column}" for column in columns] + [f"diff {column}" for column in columns]
    rows = [header]
    for name in names:
        cells = [number for side in counts for number in side.get(name, (0, 0, 0))]
        if argv:
            cells += [f"{new - old:+d}" for new, old in zip(cells[:3], cells[3:])]
        rows.append([name, *map(str, cells)])
    widths = [max(len(row[i]) for row in rows) for i in range(len(header))]
    for row in rows:
        print("  ".join([row[0].ljust(widths[0])] + [cell.rjust(w) for cell, w in zip(row[1:], widths[1:])]))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
