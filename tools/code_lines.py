"""Count the code, docstring, comment and blank lines of Python modules.

    python tools/code_lines.py SRC...

Each SRC is a .py file or a directory, searched for .py files.  One line is
printed per module, then one of the totals.  Every line of a module is of
exactly one kind, taken in this order:

- docstring: a line of the docstring of a module, class or function, as
  ast finds them, blank lines inside it included;
- code: a line that any other token spans, as tokenize finds them, so a
  multi-line string or bracket counts on each of its lines;
- comment: a line that holds a comment and nothing else;
- blank: every other line, which holds only white space.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

KINDS = ("code", "docstring", "comment", "blank")
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def count(source: str) -> dict:
    """{kind: number of lines} of one module's source."""
    docstring = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and ast.get_docstring(node) is not None:
            text = node.body[0]
            docstring.update(range(text.lineno, text.end_lineno + 1))
    code, comment = set(), set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type == tokenize.COMMENT:
            comment.add(token.start[0])
        elif token.type not in _LAYOUT:
            code.update(range(token.start[0], token.end[0] + 1))
    code -= docstring
    comment -= docstring | code
    lines = len(source.splitlines())
    counts = {"code": len(code), "docstring": len(docstring), "comment": len(comment)}
    counts["blank"] = lines - sum(counts.values())
    return counts


def modules(paths) -> list:
    """The .py files of paths, a directory standing for those under it."""
    found = []
    for path in map(Path, paths):
        found += sorted(path.rglob("*.py")) if path.is_dir() else [path]
    return found


def main(argv) -> int:
    if not argv:
        print("usage: python tools/code_lines.py SRC...", file=sys.stderr)
        return 2
    paths = modules(argv)
    width = max((len(str(path)) for path in paths), default=5) + 2
    total = dict.fromkeys(KINDS, 0)
    print(f"{'module':<{width}}" + "".join(f"{kind:>10}" for kind in KINDS))
    for path in paths:
        counts = count(path.read_text(encoding="utf-8"))
        for kind in KINDS:
            total[kind] += counts[kind]
        print(f"{str(path):<{width}}" + "".join(f"{counts[kind]:>10,}" for kind in KINDS))
    print(f"{'total':<{width}}" + "".join(f"{total[kind]:>10,}" for kind in KINDS))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
