"""Count the code lines of Python sources: lines that hold a token other
than a comment or a docstring. Blank lines, comment lines and the lines of
a string that stands alone as a statement (a module, class or function
docstring, or any other bare string) do not count; a line that holds code
and a comment counts once.

    python tools/code_lines.py src/gamesync   # the total, then each file
"""

import io
import sys
import tokenize
from pathlib import Path

# A statement starts after one of these tokens, or at the start of a file,
# and these and ENDMARKER are the only tokens left that hold no code once
# comments and blank-line NL tokens are dropped.
_STATEMENT_START = frozenset((tokenize.NEWLINE, tokenize.INDENT,
                              tokenize.DEDENT))


def code_lines(source: str) -> int:
    """The number of code lines in the Python source text."""
    readline = io.StringIO(source).readline
    tokens = [tok for tok in tokenize.generate_tokens(readline)
              if tok.type not in (tokenize.COMMENT, tokenize.NL)]
    lines = set()
    for i, tok in enumerate(tokens):
        if tok.type in _STATEMENT_START or tok.type == tokenize.ENDMARKER:
            continue
        if (tok.type == tokenize.STRING
                and (i == 0 or tokens[i - 1].type in _STATEMENT_START)
                and tokens[i + 1].type in (tokenize.NEWLINE,
                                           tokenize.ENDMARKER)):
            continue    # a docstring, or another bare string statement
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def count_paths(paths) -> dict:
    """{file: code lines} for each .py file under the paths, sorted."""
    files = []
    for path in map(Path, paths):
        files.extend(sorted(path.rglob("*.py")) if path.is_dir() else [path])
    return {str(f): code_lines(f.read_text(encoding="utf-8")) for f in files}


def main(paths) -> int:
    counts = count_paths(paths)
    print(sum(counts.values()))
    for name, count in counts.items():
        print(f"{count:6d}  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
