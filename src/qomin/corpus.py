"""Curated formula corpora for every theory, with paired windows.

Each theory carries an assignment window (free variables range over its
enumeration) and a wider search window (quantifiers range over it).  The
formulas are written so that every relevant quantifier witness or
counterexample lies inside the search window for every assignment drawn
from the assignment window; that is what makes the finite oracle exact on
this corpus.  Dense theories avoid existentials nested under universals
unless the inner witness is a parameter value itself (fresh interior points
would need unbounded denominators).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import UnsupportedTheoryError
from .models import Window
from .syntax import Theory


@dataclass(frozen=True)
class CorpusEntry:
    theory: Theory
    text: str
    dist_var: str | None = None  # distinguished variable for decomposition


# (assignment window, search window); the search windows are the smallest
# ones containing every witness the corpus formulas can demand: interior
# points of assignment gaps need denominators up to 8 (dense scalar models)
# or 2 (pair second coordinates), class/coset shifts reach two units past
# the assignment range
WINDOWS: dict[Theory, tuple[Window, Window]] = {
    Theory.PRES_Z: (Window(-8, 8), Window(-24, 24)),
    Theory.PRES_N: (Window(0, 10), Window(0, 30)),
    Theory.DLO_PRED: (
        Window(Fraction(-2), Fraction(2), 2),
        Window(Fraction(-3), Fraction(3), 8),
    ),
    Theory.DOAG_Q: (
        Window(Fraction(-2), Fraction(2), 1),
        Window(Fraction(-4), Fraction(4), 8),
    ),
    Theory.LEX_ZQ: (
        Window((-2, Fraction(-1)), (2, Fraction(1)), 1),
        Window((-4, Fraction(-2)), (4, Fraction(2)), 4),
    ),
    Theory.LEX_ZZ: (
        Window((-2, -1), (2, 1)),
        Window((-4, -4), (4, 4)),
    ),
    Theory.TCHAIN: (
        Window((-2, Fraction(-1)), (2, Fraction(1)), 1),
        Window((-5, Fraction(-2)), (5, Fraction(2)), 2),
    ),
}


def _entries(theory: Theory, rows: list) -> list[CorpusEntry]:
    out = []
    for row in rows:
        if isinstance(row, tuple):
            text, dist = row
        else:
            text, dist = row, None
        out.append(CorpusEntry(theory, text, dist))
    return out


CORPUS: dict[Theory, list[CorpusEntry]] = {}

CORPUS[Theory.PRES_Z] = _entries(Theory.PRES_Z, [
    ("x + x = y", "x"),
    "D2(y) & y < 4",
    ("D3(x - y)", "x"),
    ("x < y | y < x", "x"),
    ("~(x < y)", "x"),
    ("D2(x) <-> D2(x + 2)", "x"),
    ("x <= y & y <= x", "x"),
    ("D6(2*x + 3*y)", "x"),
    ("2*x - 3 < y", "x"),
    ("x = 2*y + 1", "x"),
    ("x + y = y + x", "x"),
    ("3*x < y + z", "x"),
    ("D4(x) -> D2(x)", "x"),
    ("y < 2*x & 3*x < y + 12", "x"),
    ("~D3(x + 1)", "x"),
    "E u. 2*u = y",
    "E u. 3*u = y",
    "E u. y < 2*u & 2*u < y + 2",
    "E u. y < u & u < z",
    "E u. u > y",
    "E u. 2*u = y | 2*u = y + 1",
    "E u. D2(u) & y < u & u < y + 3",
    "E u. u + u + u = y",
    "E u. u + y = z",
    "E u. 2*u < y & z < 3*u",
    "E u. y < u & u < y + 1",
    "~(E u. y < u & u < y + 1)",
    "D2(y) -> (E u. 2*u = y)",
    "E u. E v. u + v = y & u < v",
    "E u. D2(u) & (E v. 3*v = u + y)",
    "A u. u < y -> u < y + 1",
    "A u. D2(u) -> D2(u + 2)",
    "A u. y < u & u < y + 2 -> u = y + 1",
    ("E u. x < u & u < y & D2(u)", "x"),
    "A u. E v. v + v = u | v + v = u + 1",
    ("E u. 2*u = x + y", "x"),
])

CORPUS[Theory.PRES_N] = _entries(Theory.PRES_N, [
    ("x + y = 5", "x"),
    ("x < y", "x"),
    ("D3(x + y)", "x"),
    ("x + x = y", "x"),
    ("2*x < y + 3", "x"),
    ("x = 0 | 0 < x", "x"),
    ("D2(x) | D2(x + 1)", "x"),
    ("x + 1 <= y", "x"),
    ("y < x & x < y + 4", "x"),
    ("D2(x - y)", "x"),
    "E u. u + y = 1",
    "E u. u + 1 = 0",
    "A u. 0 < u | 0 = u",
    "E u. u + u = y",
    "E u. u < y",
    "E u. 2*u = y & u < y",
    "E u. u + y = z",
    "E u. y < u & u < y + 2",
    "E u. 3*u = y + 1",
    "E u. u = y + 1",
    "A u. u + y = y + u",
    "A u. u < u + 1",
    "A u. y < u -> y < u + 1",
    "E u. E v. u + v = y",
    "E u. E v. u + v = y & u < v",
    "D2(y) -> (E u. u + u = y)",
    "~(E u. u + 1 = 0)",
    "E u. u = 0",
    "A u. D2(u) | D2(u + 1)",
    "E u. y <= u",
    "E u. u <= y",
    ("x <= y + z", "x"),
])

CORPUS[Theory.DLO_PRED] = _entries(Theory.DLO_PRED, [
    ("x < y & y < z", "x"),
    ("Qp(x)", "x"),
    ("Qp(x) <-> Qp(y)", "x"),
    ("x = y | x < y | y < x", "x"),
    ("Qp(x) & ~Qp(y)", "x"),
    ("x <= y", "x"),
    ("~(x < y) & ~(y < x)", "x"),
    ("Qp(x) | ~Qp(x)", "x"),
    ("x < y -> x <= y", "x"),
    ("Qp(y) & x < y", "x"),
    ("E u. x < u & u < y", "x"),
    ("E u. x < u & u < y & Qp(u)", "x"),
    ("E u. x < u & u < y & ~Qp(u)", "x"),
    ("E u. u < x", "x"),
    ("E u. Qp(u) & u < x", "x"),
    ("E u. x = u & Qp(u)", "x"),
    ("E u. u = x | u = y", "x"),
    ("E u. x < u", "x"),
    ("E u. ~Qp(u) & x < u", "x"),
    "E u. Qp(u)",
    "E u. ~Qp(u)",
    "E u. u < y & Qp(u)",
    "E u. E v. y < u & u < v & v < z",
    "E u. E v. u < v & Qp(u) & ~Qp(v) & y < u & v < z",
    "A u. y < u -> y < u",
    "A u. u < y -> ~(y < u)",
    "A u. Qp(u) -> Qp(u)",
    "A u. u = y -> (Qp(u) <-> Qp(y))",
    "~(E u. y < u & u < y)",
    "Qp(y) -> (E u. u = y & Qp(u))",
    "E u. (u < y | y < u) & Qp(u)",
    ("A u. u < x -> u < y", "x"),
])

CORPUS[Theory.DOAG_Q] = _entries(Theory.DOAG_Q, [
    ("x + x > 1", "x"),
    ("(0 < x & x < 1) | x = 2", "x"),
    ("3*x = y + z", "x"),
    ("2*x < y & y < 3*x", "x"),
    ("x = y | x < y | y < x", "x"),
    ("2*x = y", "x"),
    ("x < y + 1", "x"),
    ("3*x < 2*y | 3*x = 2*y", "x"),
    ("x + y < x + z", "x"),
    ("2*x + y = 0", "x"),
    "E u. 2*u = y",
    "E u. 3*u = y",
    "E u. y < u & u < z",
    "E u. y < 3*u & 2*u < z",
    "E u. u + u = y & 2*u > 1",
    "E u. u < y",
    "E u. y < u",
    "E u. u + y = z",
    "E u. 2*u = y & 3*u < z",
    "E u. E v. u + v = y & u < v",
    "E u. E v. y < u & u < v & v < z",
    "A u. u < y -> 2*u < 2*y",
    "A u. y < u & u < z -> 3*u < 3*z",
    "A u. u + y = y + u",
    "A u. u < y -> ~(y < u)",
    "~(E u. y < u & u < y)",
    "E u. u = y & u < z",
    "E u. 2*u < y & y < 2*u + 1",
    "E u. y < 2*u & 2*u < z",
    "E u. u + u + u = y",
    "A u. 2*u = y -> u < y + 1",
    ("E u. u + u = x & u < y", "x"),
])

CORPUS[Theory.LEX_ZQ] = _entries(Theory.LEX_ZQ, [
    ("2*x > y", "x"),
    ("2*x = y", "x"),
    ("3*x < y", "x"),
    ("del0(x)", "x"),
    ("del1(x) & x < y", "x"),
    ("D2(x + y)", "x"),
    ("del0(x - y)", "x"),
    ("del2(2*x + y)", "x"),
    ("x < y & D2(x)", "x"),
    ("x < y + 1Z", "x"),
    ("D3(x) <-> D3(x + 3*1Z)", "x"),
    ("del0(x) -> D2(x)", "x"),
    ("x = y | ~(x = y)", "x"),
    ("2*x > y | 2*x = y", "x"),
    "E u. 2*u = y",
    "E u. y < u & u < z",
    "E u. y < 2*u & u < z",
    "E u. D2(u) & y < u",
    "E u. del1(u) & y < u",
    "E u. del0(u - y)",
    "E u. u + y = z",
    "E u. u < y & del0(u)",
    "E u. 2*u = y | 2*u = y + 1Z",
    "E u. E v. u + v = y & del0(u - v)",
    "E u. del2(u) & u < y + 2*1Z",
    "A u. u < y -> u < y + 1Z",
    "A u. del0(u) -> D2(u)",
    "A u. u < y & y < u -> del1(u)",
    "E u. y < u & u < y + 1Z",
    "~(E u. del0(u) & del1(u))",
    "E u. del1(u) & D3(u - 1Z)",
    "E u. u + u = x + y",
    ("del1(x - y) | del1(y - x)", "x"),
])

CORPUS[Theory.LEX_ZZ] = _entries(Theory.LEX_ZZ, [
    ("2*x > y", "x"),
    ("2*x = y", "x"),
    ("D2(x + y)", "x"),
    ("del1(x + y)", "x"),
    ("x < y | del0(x - y)", "x"),
    ("D2(x) | D2(x + 1p)", "x"),
    ("del0(x)", "x"),
    ("x < y + 1p", "x"),
    ("del1(x) & x < y", "x"),
    ("D2(x - 1pp)", "x"),
    ("x = y + 1p | x = y", "x"),
    ("del0(x) -> D2(x) | D2(x + 1p)", "x"),
    "E u. 2*u = y",
    "E u. y < u & u < z",
    "E u. u + u = y | u + u = y - 1p",
    "E u. del1(u) & u < y",
    "E u. del0(u - y)",
    "E u. u + y = z",
    "E u. y < u & u < y + 1p",
    "~(E u. y < u & u < y + 1p)",
    "E u. 2*u = y + 1p",
    "E u. del0(u) & y < u & u < y + 1pp",
    "E u. D3(u) & y < u",
    "E u. E v. u + v = y & del0(u - v)",
    "A u. u < y -> u < y + 1p",
    "A u. del0(u) -> (D2(u) | D2(u + 1p))",
    "A u. y < u -> y < u + 1p",
    "E u. u < y & D2(u)",
    "E u. u = y + 1pp",
    "E u. del2(u) & u < y + 2*1pp",
    "~(E u. del0(u) & del1(u))",
    "E u. u + u = x + y",
    ("D2(x - y) & x < y", "x"),
])

CORPUS[Theory.TCHAIN] = _entries(Theory.TCHAIN, [
    ("S0(x, y)", "x"),
    ("S1(x, y)", "x"),
    ("S2(x, y) | x = y", "x"),
    ("P(x) & x < y", "x"),
    ("P(x) <-> P(y)", "x"),
    ("S1(x, y) & P(x)", "x"),
    ("x < y & ~S0(x, y)", "x"),
    ("S0(x, y) -> ~S1(x, y)", "x"),
    ("S1(x, y) | S1(y, x)", "x"),
    ("~P(x) & S0(x, y)", "x"),
    ("E u. S0(u, y) & u < y", "x"),
    "E u. y < u & u < z",
    "E u. S1(u, y) & S1(u, z)",
    "E u. S2(u, y) & u < z",
    "E u. P(u) & y < u & u < z",
    "E u. ~S1(u, y) & y < u & u < z",
    "A u. S0(u, y) -> ~S1(u, y)",
    "E u. S0(u, y) & P(u)",
    "A u. y < u & u < z -> ~S2(u, y)",
    "E u. S3(u, y) & z < u",
    "E u. S1(u, y) & P(u) & u < z",
    "E u. u = y & P(u)",
    "E u. u < y & S0(u, y)",
    "E u. y < u & S0(u, y)",
    "E u. S0(u, y) & S0(u, z)",
    "E u. S1(u, y) & S2(u, z)",
    "A u. S1(u, y) -> (P(u) <-> ~P(y))",
    "E u. ~P(u) & u < y",
    "E u. E v. S1(u, y) & S1(v, y) & u < v",
    "A u. u < y -> (E v. v = u & v < y)",
    "E u. ~S0(u, y) & ~S1(u, y) & y < u & u < z",
    ("E u. S1(u, x) & u < y", "x"),
])


def _lookup(table: dict, theory: Theory):
    if theory not in table:
        raise UnsupportedTheoryError(f"no corpus or windows for {theory.value}")
    return table[theory]


def entries(theory: Theory) -> list[CorpusEntry]:
    return _lookup(CORPUS, theory)


def windows(theory: Theory) -> tuple[Window, Window]:
    """(assignment window, quantifier search window) for the theory."""
    return _lookup(WINDOWS, theory)

