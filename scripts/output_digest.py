#!/usr/bin/env python3
"""Digest of the program's outputs, for checking that a refactor keeps them.

Prints the row count, atom total and sha256 of the `qe` outputs over the
corpus plus the benchmark's generated `eliminate` family (seed 941), and the
disjunct total and sha256 of the corpus decompositions.  Two trees print the
same digest exactly when those outputs are byte-identical.  CI compares
the two lines with scripts/output_digest.expected; a change that alters an
output on purpose updates that file in the same commit.

Usage: python scripts/output_digest.py   (from the repository root)
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


def main() -> int:
    digest = hashlib.sha256()
    total_atoms = 0
    rows = qe_rows()
    for theory, text in rows:
        out = qe(theory, parse(text, theory))
        f = out.formula if isinstance(out, ComponentFormula) else out
        total_atoms += sum(1 for _ in atoms(f))
        digest.update(f"{theory.value}\t{text}\t{print_formula(f)}\n".encode())
    print(f"qe: {len(rows)} rows, {total_atoms} atoms, sha256 {digest.hexdigest()}")

    digest = hashlib.sha256()
    count = disjuncts = 0
    for theory in corpus.CORPUS:
        for entry in corpus.entries(theory):
            if entry.dist_var is None:
                continue
            dec = decompose(theory, parse(entry.text, theory), entry.dist_var)
            count += 1
            disjuncts += len(dec.disjuncts)
            line = json.dumps([theory.value, entry.text, dec.to_json()], sort_keys=True)
            digest.update(f"{line}\n".encode())
    print(f"decompose: {count} rows, {disjuncts} disjuncts, sha256 {digest.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
