"""Only matrices.inverse and matrices.scalar may divide.

A '/' between two ints makes a float, so the package keeps its one
division in matrices.inverse, which works on exact scalars, and no '/'
or '/=' operator appears anywhere else under src/convmc.  The scan reads
operator tokens, so '//', strings and comments do not count.
"""

from __future__ import annotations

import ast
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "convmc"

ALLOWED = {"matrices": ("inverse", "scalar")}


def division_sites(root: Path) -> list[tuple[str, int, str]]:
    """(module, line, operator) of every '/' or '/=' under root outside
    the functions ALLOWED names for its module."""
    sites = []
    for path in sorted(root.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        spans = [(node.lineno, node.end_lineno) for node in tree.body
                 if isinstance(node, ast.FunctionDef)
                 and node.name in ALLOWED.get(path.stem, ())]
        with tokenize.open(path) as fh:
            for tok in tokenize.generate_tokens(fh.readline):
                line = tok.start[0]
                if (tok.type == tokenize.OP and tok.string in ("/", "/=")
                        and not any(a <= line <= b for a, b in spans)):
                    sites.append((path.stem, line, tok.string))
    return sites


def test_only_inverse_divides():
    assert division_sites(SRC) == []


def test_the_scan_finds_a_division_outside_inverse(tmp_path):
    (tmp_path / "matrices.py").write_text(
        "def inverse(c):\n"
        "    return 1 / c\n"
        "\n"
        "\n"
        "def halve(c):\n"
        "    return c / 2\n")
    (tmp_path / "words.py").write_text(
        '"""1 / n! is the weight."""\n'
        "def symmetrize(n, coeff):\n"
        "    # coeff / k for each k\n"
        "    for k in range(2, n + 1):\n"
        "        coeff /= k\n"
        "    return coeff, n // 2, '/'\n")
    assert division_sites(tmp_path) == [("matrices", 6, "/"),
                                        ("words", 5, "/=")]
