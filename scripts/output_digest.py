#!/usr/bin/env python3
"""Digest of the program's outputs, for checking that a refactor keeps them.

Prints the row count, atom total and sha256 of the `qe` outputs over the
corpus plus the benchmark's generated `eliminate` family (seed 941), and the
disjunct total and sha256 of the corpus decompositions, and the same for the
decompositions of a generated grid of lex_zq, lex_zz and tchain atoms in x.
Two trees print the same digest exactly when those outputs are
byte-identical.  CI compares
the three lines with scripts/output_digest.expected; a change that alters an
output on purpose updates that file in the same commit.  With --rows the
script also prints one tab-separated line per row (section, theory, text,
and the row's atom or disjunct count) before the line of its section, so
that the outputs of two trees can be compared row by row with diff.

Usage: python scripts/output_digest.py [--rows]   (from the repository root)
"""

import hashlib
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.generate import eliminate_family  # noqa: E402
from qomin import corpus  # noqa: E402
from qomin.normal_form import decompose  # noqa: E402
from qomin.qe import ComponentFormula, qe  # noqa: E402
from qomin.syntax import Theory, atoms, parse, print_formula  # noqa: E402

FAMILY_SEED = 941


def qe_rows() -> list[tuple[Theory, str]]:
    rows = [(t, e.text) for t in corpus.CORPUS for e in corpus.entries(t)]
    rows += [(Theory.from_name(name), text) for name, text in eliminate_family(FAMILY_SEED)]
    return list(dict.fromkeys(rows))


def grid_rows() -> list[tuple[Theory, str]]:
    """80 decompose inputs in x: the three order shapes of n*x against y, the
    coset atoms del_k(n*x + y) and D_m(n*x + y) over both lexicographic
    products, and S_n in both argument orders over tchain."""
    rows = []
    for theory in (Theory.LEX_ZQ, Theory.LEX_ZZ):
        rows += [(theory, f"{n}*x {op} y") for n in range(1, 5) for op in (">", "<", "=")]
        rows += [(theory, f"del{k}({n}*x + y)") for n in (1, -1, 2, -2, 3, -3) for k in range(3)]
        rows += [(theory, f"D{m}({n}*x + y)") for m in (2, 3) for n in range(1, 4)]
    rows += [(Theory.TCHAIN, f"S{n}({a})") for n in range(4) for a in ("x, y", "y, x")]
    return rows


def decompose_digest(rows: list[tuple[Theory, str, str]], show) -> str:
    """Row count, disjunct total and sha256 of the decompositions' JSON."""
    digest = hashlib.sha256()
    disjuncts = 0
    for theory, text, var in rows:
        dec = decompose(theory, parse(text, theory), var)
        disjuncts += len(dec.disjuncts)
        show(theory, text, len(dec.disjuncts))
        line = json.dumps([theory.value, text, dec.to_json()], sort_keys=True)
        digest.update(f"{line}\n".encode())
    return f"{len(rows)} rows, {disjuncts} disjuncts, sha256 {digest.hexdigest()}"


def row_printer(section: str, on: bool):
    """The per-row printer of --rows for one section; a no-op when off."""
    def show(theory: Theory, text: str, count: int) -> None:
        if on:
            print(f"{section}\t{theory.value}\t{text}\t{count}")
    return show


def main(argv: list[str]) -> int:
    if argv not in ([], ["--rows"]):
        print(__doc__.strip().splitlines()[-1], file=sys.stderr)
        return 2
    per_row = bool(argv)
    digest = hashlib.sha256()
    total_atoms = 0
    rows = qe_rows()
    show = row_printer("qe", per_row)
    for theory, text in rows:
        out = qe(theory, parse(text, theory))
        f = out.formula if isinstance(out, ComponentFormula) else out
        n = sum(1 for _ in atoms(f))
        total_atoms += n
        show(theory, text, n)
        digest.update(f"{theory.value}\t{text}\t{print_formula(f)}\n".encode())
    print(f"qe: {len(rows)} rows, {total_atoms} atoms, sha256 {digest.hexdigest()}")

    corpus_rows = [(t, e.text, e.dist_var) for t in corpus.CORPUS
                   for e in corpus.entries(t) if e.dist_var is not None]
    print(f"decompose: {decompose_digest(corpus_rows, row_printer('decompose', per_row))}")
    grid = [(t, text, "x") for t, text in grid_rows()]
    print(f"decompose grid: {decompose_digest(grid, row_printer('decompose grid', per_row))}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
