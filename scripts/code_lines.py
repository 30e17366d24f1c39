"""Count the code lines of the `ellded` package: the physical lines of
`src/ellded/*.py` that hold at least one token of code, by `tokenize`, so
that blank lines, comments and docstrings (a logical line that is one
string literal and nothing else) count for nothing.

    python3 scripts/code_lines.py [DIR]

prints the total, then one line per file; DIR defaults to `src/ellded`
next to this script's directory.
"""

from __future__ import annotations

import io
import sys
import tokenize
from pathlib import Path

#: tokens that are never code
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(source: str) -> int:
    """The lines of `source` that hold a token of code."""
    lines = set()
    statement = []
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in _LAYOUT:
            if tok.type == tokenize.NEWLINE:
                # a statement that is one string literal is a docstring
                if not (len(statement) == 1 and statement[0].type == tokenize.STRING):
                    for t in statement:
                        lines.update(range(t.start[0], t.end[0] + 1))
                statement = []
            continue
        statement.append(tok)
    return len(lines)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    root = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent / "src" / "ellded"
    counts = {path.name: code_lines(path.read_text()) for path in sorted(root.glob("*.py"))}
    print(sum(counts.values()))
    for name, count in counts.items():
        print(f"  {name} {count}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
