"""Count the code lines of each module of the package and their total.

    python tools/code_lines.py [PACKAGE_DIR]

PACKAGE_DIR defaults to src/isogenion beside this script's directory.  A
code line is a line of a .py file that carries a token other than a
comment: blank lines, comment-only lines and the lines of docstrings
(module, class and function) are not counted.  The second column gives how
many code lines carry an `assert` statement or the name AssertionError, the
checks that python -O strips or that a caller should never see, per module
and in total.  The last line gives how many module-level functions are
decorated with lru_cache, the package's cache tables.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

NOT_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER,
}


def docstring_lines(tree):
    """Line numbers spanned by the docstrings of `tree`."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                out.update(range(first.lineno, first.end_lineno + 1))
    return out


def cache_tables(tree):
    """How many module-level functions of `tree` carry an lru_cache decorator
    (`@lru_cache`, `@lru_cache(...)` or `@functools.lru_cache(...)`)."""
    names = (
        ast.unparse(d.func if isinstance(d, ast.Call) else d)
        for node in tree.body
        if isinstance(node, ast.FunctionDef)
        for d in node.decorator_list
    )
    return sum(name.split(".")[-1] == "lru_cache" for name in names)


def code_lines(path):
    """(code lines, lines using assert or AssertionError, lru_cache tables)
    of one file."""
    text = path.read_text(encoding="utf-8")
    lines, asserts = set(), set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
        if tok.type == tokenize.NAME and tok.string in ("assert", "AssertionError"):
            asserts.add(tok.start[0])
    tree = ast.parse(text)
    return len(lines - docstring_lines(tree)), len(asserts), cache_tables(tree)


def main(argv):
    root = Path(argv[1]) if len(argv) > 1 else Path(__file__).resolve().parent.parent / "src" / "isogenion"
    total = total_asserts = total_caches = 0
    print("  code  assert  module")
    for path in sorted(root.glob("*.py")):
        n, asserts, caches = code_lines(path)
        total += n
        total_asserts += asserts
        total_caches += caches
        print(f"{n:6d}  {asserts:6d}  {path.name}")
    print(f"{total:6d}  {total_asserts:6d}  total")
    print(f"{total_caches:6d}  module-level lru_cache tables")


if __name__ == "__main__":
    main(sys.argv)
