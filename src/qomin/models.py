"""Concrete exact-arithmetic models for every theory in the roster.

Elements are plain Python values: an int or a Fraction, or a pair of them
ordered lexicographically, as the table `_SORTS` gives each theory's
coordinate sorts.
Quantifiers range over a finite Window — exact only when every relevant
witness lies inside the window, which the curated corpora guarantee.  The
search for a bound variable bisects the sorted window to the slice that the
variable's order and equality literals in the quantifier's body allow, and
evaluates the body at every element of that slice until it decides; the
elements skipped are ones at which the body cannot change the verdict (see
compile_eval).
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Mapping

from .errors import EvalError, WindowCapError
from .syntax import (
    And, Bool, Div, Eq, Exists, Forall, Formula, Iff, Implies, Lt, Not, Or,
    Pred, Term, Theory, and_, free_vars, is_quantifier_free, or_, rebuild,
)

Element = int | Fraction | tuple

DEFAULT_WINDOW_CAP = 10**6

# the sort of each coordinate of a theory's elements: "z" integers, "n"
# naturals, "q" rationals, "d" dyadic rationals; one letter for a scalar
# element, two for a pair ordered lexicographically
_SORTS: dict[Theory, str] = {
    Theory.PRES_Z: "z",
    Theory.PRES_N: "n",
    Theory.DLO_PRED: "q",
    Theory.DOAG_Q: "q",
    Theory.DYADIC: "d",
    Theory.LEX_ZQ: "zq",
    Theory.LEX_ZZ: "zz",
    Theory.TCHAIN: "zq",
}
_PAIR_THEORIES = tuple(t for t, s in _SORTS.items() if len(s) == 2)
_INT_THEORIES = tuple(t for t, s in _SORTS.items() if all(c in "zn" for c in s))

# the value of each constant symbol; a theory's signature admits only the
# symbols whose value has its elements' shape
UNITS: dict[str, Element] = {"1": 1, "1Z": (1, 0), "1pp": (1, 0), "1p": (0, 1)}


def _scale(n: int, v: Element) -> Element:
    if isinstance(v, tuple):
        return (n * v[0], n * v[1])
    return n * v


def _add(a: Element, b: Element) -> Element:
    if isinstance(a, tuple):
        return (a[0] + b[0], a[1] + b[1])
    return a + b


def zero_element(theory: Theory) -> Element:
    z = tuple(0 if s in "zn" else Fraction(0) for s in _SORTS[theory])
    return z if len(z) == 2 else z[0]


def _in_sort(sort: str, c) -> bool:
    if sort in "zn":
        return isinstance(c, int) and (sort == "z" or c >= 0)
    return isinstance(c, Fraction) and (sort == "q" or _is_dyadic(c))


def check_element(theory: Theory, v: Element) -> None:
    """Raise EvalError unless each coordinate of v is of the model's sort."""
    sorts = _SORTS[theory]
    coords = v if isinstance(v, tuple) and len(sorts) == 2 else (v,)
    if len(coords) != len(sorts) or not all(map(_in_sort, sorts, coords)):
        # named as format_element writes a number or a pair of numbers
        parts = v if isinstance(v, tuple) and len(v) == 2 else (v,)
        numbers = all(isinstance(c, (int, Fraction)) for c in parts)
        shown = format_element(v) if numbers else repr(v)
        raise EvalError(f"element {shown} does not belong to the {theory.value} model")


def _is_dyadic(q: Fraction) -> bool:
    d = q.denominator
    return d & (d - 1) == 0


def eval_term(theory: Theory, t: Term, asg: Mapping[str, Element]) -> Element:
    v = zero_element(theory)
    for var, c in t.coeffs:
        if var not in asg:
            raise EvalError(f"unbound variable {var!r}")
        v = _add(v, _scale(c, asg[var]))
    for sym, c in t.consts:
        v = _add(v, _scale(c, UNITS[sym]))
    return v


# ---------------------------------------------------------------------------
# Windows


@dataclass(frozen=True)
class Window:
    """Finite symmetric search box: scalar range [lo, hi], or for pair models
    the box [lo[0], hi[0]] x [lo[1], hi[1]]; rational coordinates are
    enumerated up to the denominator bound."""

    lo: Element
    hi: Element
    denom: int = 1

    def __post_init__(self):
        if self.denom < 1:
            raise ValueError("denominator bound must be >= 1")


def _coords(theory: Theory, w: Window):
    """(sort, lo, hi) for each coordinate of the window's elements."""
    sorts = _SORTS[theory]
    return zip(sorts, w.lo, w.hi) if len(sorts) == 2 else [(sorts, w.lo, w.hi)]


def _coord_range(sort: str, lo, hi, denom: int):
    """The sorted values of one coordinate sort in [lo, hi]: integers, or
    rationals with denominator up to denom (powers of two for "d")."""
    if sort in "zn":
        return range(max(0, lo) if sort == "n" else lo, hi + 1)
    lo, hi = Fraction(lo), Fraction(hi)
    qs = range(1, denom + 1) if sort == "q" else [1 << k for k in range(denom.bit_length())]
    seen = set()
    for q in qs:
        p_lo = -((-lo.numerator * q) // lo.denominator)  # ceil(lo*q)
        p_hi = (hi.numerator * q) // hi.denominator      # floor(hi*q)
        seen.update(Fraction(p, q) for p in range(p_lo, p_hi + 1))
    return sorted(seen)


def _window_count(theory: Theory, w: Window) -> int:
    # cheap overestimate used for the cap check
    n = 1
    for sort, lo, hi in _coords(theory, w):
        if sort in "zn":
            n *= max(0, hi - lo + 1)
        else:
            n *= int((hi - lo) * w.denom * w.denom) + w.denom + 1
    return n


def window_cap() -> int:
    """The most elements a window holds and the most intervals a density scan
    checks: QOMIN_WINDOW_CAP, or DEFAULT_WINDOW_CAP when it is unset or
    empty.  EvalError unless it is a positive integer."""
    raw = os.environ.get("QOMIN_WINDOW_CAP")
    if not raw:
        return DEFAULT_WINDOW_CAP
    try:
        cap = int(raw)
    except ValueError:
        cap = 0
    if cap < 1:
        raise EvalError(f"QOMIN_WINDOW_CAP must be a positive integer, got {raw!r}")
    return cap


# one entry per window, under (theory, lo, hi, denom): its elements, then
# from the first compile over it on (L, scaled elements) (see _scaled_window)
_WINDOWS: dict[tuple, list] = {}


def enumerate_window(theory: Theory, w: Window) -> tuple:
    """Deterministic, duplicate-free, model-ordered finite enumeration of at
    most `window_cap()` elements, checked again on every call."""
    cap = window_cap()
    key = (theory, w.lo, w.hi, w.denom)
    entry = _WINDOWS.get(key)
    if entry is None:
        if _SORTS[theory] != "n":
            check_element(theory, w.lo)
        if (count := _window_count(theory, w)) > cap:
            raise WindowCapError(f"window would enumerate about {count} elements, cap is {cap}")
        ranges = [_coord_range(sort, lo, hi, w.denom) for sort, lo, hi in _coords(theory, w)]
        vals = tuple(itertools.product(*ranges)) if len(ranges) == 2 else tuple(ranges[0])
        entry = _WINDOWS[key] = [vals]
    if len(entry[0]) > cap:
        raise WindowCapError(f"window holds {len(entry[0])} elements, cap is {cap}")
    return entry[0]


# ---------------------------------------------------------------------------
# Exact integer scaling: a rational coordinate q is evaluated as the integer
# q*L for a common multiple L of the denominators in play (see compile_eval)


def _coord(theory: Theory, v: Element):
    """The coordinate of v that scaling multiplies (the whole of a scalar)."""
    return v[1] if theory in _PAIR_THEORIES else v


def _lift(theory: Theory, v: Element, L: int):
    """v with its rational coordinate multiplied by L; exact when its
    denominator divides L.  Integer models have L == 1."""
    if theory in _PAIR_THEORIES:
        a, q = v
        return (a, q.numerator * (L // q.denominator))
    return v.numerator * (L // v.denominator)


def _scaled_window(theory: Theory, w: Window) -> tuple[int, tuple]:
    """(L, scaled elements) for the window: L is the lcm of the element
    denominators.  Kept in the window's entry after its elements."""
    elems = enumerate_window(theory, w)
    entry = _WINDOWS[(theory, w.lo, w.hi, w.denom)]
    if len(entry) == 1:
        L = math.lcm(1, *{_coord(theory, e).denominator for e in elems})
        entry.append((L, tuple(_lift(theory, e, L) for e in elems)))
    return entry[1]


# ---------------------------------------------------------------------------
# Miniscoping


def _conjuncts(f: Formula) -> list[Formula]:
    if isinstance(f, And):
        return [c for a in f.args for c in _conjuncts(a)]
    return [f]


def _disjuncts(f: Formula) -> list[Formula]:
    if isinstance(f, Or):
        return [d for a in f.args for d in _disjuncts(a)]
    if isinstance(f, Implies):
        return [Not(c) for c in _conjuncts(f.left)] + _disjuncts(f.right)
    return [f]


def miniscope(f: Formula) -> Formula:
    """Narrow every quantifier to the part of its body that mentions its
    variable: `E v. A & B` becomes `A & (E v. B)` and `A v. A | B` becomes
    `A | (A v. B)` when v is not free in A (an implication counts as the
    disjunction it abbreviates).  Both hold over every domain, the empty
    one included: with no part left that mentions v the quantifier stays,
    as `E v. true` or `A v. false`, and says whether the domain is empty."""
    match f:
        case Exists(v, body) | Forall(v, body):
            body = miniscope(body)
            split, join = (_conjuncts, and_) if isinstance(f, Exists) else (_disjuncts, or_)
            parts = split(body)
            inside = [p for p in parts if v in free_vars(p)]
            if len(inside) == len(parts):
                return type(f)(v, body)
            outside = [p for p in parts if v not in free_vars(p)]
            return join(*outside, type(f)(v, join(*inside)))
    return rebuild(f, miniscope)


# ---------------------------------------------------------------------------
# Evaluation

Assignment = dict[str, Element]


def _linear(coeffs, base, i=None) -> Callable[[Assignment], int]:
    """base + sum(c * value) over scaled values, or over their coordinate i."""
    unit = len(coeffs) == 1 and coeffs[0][1] == 1 and base == 0
    if i is None:
        if unit:
            x = coeffs[0][0]
            return lambda a: a[x]

        def ev(a: Assignment) -> int:
            v = base
            for x, c in coeffs:
                v += c * a[x]
            return v
        return ev
    if unit:
        x = coeffs[0][0]
        return lambda a: a[x][i]

    def ev_i(a: Assignment) -> int:
        v = base
        for x, c in coeffs:
            v += c * a[x][i]
        return v
    return ev_i


def _compile_atom(theory: Theory, atom, L: int) -> Callable[[Assignment], bool]:
    """The meaning of each atom, as a closure over values scaled by L."""
    pair = theory in _PAIR_THEORIES

    def base(t: Term):
        b = (0, 0) if pair else 0
        for sym, c in t.consts:
            k = _lift(theory, UNITS[sym], L)
            b = (b[0] + c * k[0], b[1] + c * k[1]) if pair else b + c * k
        return b

    def value(t: Term):
        return _linear(t.coeffs, base(t))

    def coordinate(t: Term, i: int):
        # coordinate 0 of a pair is the unscaled integer one
        if not pair:
            raise EvalError(f"cannot interpret atom {atom!r} in {theory.value}")
        return _linear(t.coeffs, base(t)[i], i)

    match atom:
        case Lt(l, r) | Eq(l, r) if not pair:
            ev = value(l - r)
            return (lambda a: ev(a) == 0) if isinstance(atom, Eq) else (lambda a: ev(a) < 0)
        case Eq(l, r):
            t0, t1 = coordinate(l - r, 0), coordinate(l - r, 1)
            return lambda a: t0(a) == 0 and t1(a) == 0
        case Lt(l, r):
            t0, t1 = coordinate(l - r, 0), coordinate(l - r, 1)

            def lex_lt(a: Assignment) -> bool:
                v = t0(a)
                return v < 0 or (v == 0 and t1(a) < 0)
            return lex_lt
        case Div(m, t):
            if not pair:
                # exact at every rational t (see compile_eval); of the scalar
                # theories only pres_z and pres_n admit D_m, so a rational one
                # meets it only in a lex_zq component formula
                ev = value(t)
                return lambda a: ev(a) % (m * L) == 0
            if theory == Theory.LEX_ZQ:
                # the rational coordinate is m-divisible, so only the integer
                # coordinate matters: D_m((a, q)) iff m | a
                t0 = coordinate(t, 0)
                return lambda a: t0(a) % m == 0
            if theory == Theory.LEX_ZZ:
                t0, t1 = coordinate(t, 0), coordinate(t, 1)
                return lambda a: t0(a) % m == 0 and t1(a) % m == 0
            raise EvalError(f"divisibility has no interpretation in {theory.value}")
        case Pred("Qp", _, (t,)) if _SORTS[theory] in ("q", "d"):
            # q is dyadic iff its reduced denominator L/gcd(q*L, L) is a power
            # of two, i.e. iff the odd part of L divides q*L
            odd = L // (L & -L)
            ev = value(t)
            return lambda a: ev(a) % odd == 0
        case Pred("P", _, (t,)):
            t0 = coordinate(t, 0)
            return lambda a: t0(a) % 2 == 0
        case Pred("S", n, (t, s)):
            d0 = coordinate(t - s, 0)
            return lambda a: abs(d0(a)) == n
        case Pred("del", k, (t,)):
            t0 = coordinate(t, 0)
            return lambda a: t0(a) == k
    raise EvalError(f"cannot interpret atom {atom!r} in {theory.value}")


_MISSING = object()


def _cuts(v: str, body: Formula, exists: bool) -> list[tuple[Lt, bool, bool]]:
    """The cuts of the search for v: (atom, rising, suffix) for each order or
    equality literal on v, possibly negated, among the conjuncts of an E body
    (the disjuncts of an A body).

    atom is `l < r`, where l - r = n*v + (a term free of v) with n != 0: it is
    false and then true along the sorted window (rising) when n < 0, true and
    then false when n > 0.  The search keeps the suffix from (suffix True),
    or the prefix up to, the first element at which atom == rising: there the
    literal is true under E and false under A, and at any other element the
    body cannot stop the search.  `l = r` kept true gives two cuts, `l < r`
    and `r < l` kept false, that leave its one point; kept false, it gives
    none.
    """
    cuts = []
    for p in _conjuncts(body) if exists else _disjuncts(body):
        negated = isinstance(p, Not)
        lit = p.arg if negated else p
        keep = exists != negated
        match lit:
            case Lt():
                kept = [(lit, keep)]
            case Eq(l, r) if keep:
                kept = [(Lt(l, r), False), (Lt(r, l), False)]
            case _:
                continue
        for atom, want in kept:
            n = atom.left.coeff(v) - atom.right.coeff(v)
            if n:
                cuts.append((atom, n < 0, (n < 0) == want))
    return cuts


def _compile_scaled(theory: Theory, f: Formula, L: int,
                    elems: tuple | None) -> Callable[[Assignment], bool]:
    """Closure over assignments of values scaled by L; quantifiers range over
    elems (scaled by the same L), or raise EvalError when elems is None."""

    def comp(g: Formula) -> Callable[[Assignment], bool]:
        match g:
            case Bool(b):
                return lambda a: b
            case Lt() | Eq() | Div() | Pred():
                return _compile_atom(theory, g, L)
            case Not(arg):
                inner = comp(arg)
                return lambda a: not inner(a)
            case And(args) | Or(args):
                parts = [comp(x) for x in args]
                if len(parts) == 2:
                    p, q = parts
                    if isinstance(g, And):
                        return lambda a: p(a) and q(a)
                    return lambda a: p(a) or q(a)
                if isinstance(g, And):
                    def conj(a: Assignment) -> bool:
                        for p in parts:
                            if not p(a):
                                return False
                        return True
                    return conj

                def disj(a: Assignment) -> bool:
                    for p in parts:
                        if p(a):
                            return True
                    return False
                return disj
            case Implies(l, r):
                cl, cr = comp(l), comp(r)
                return lambda a: (not cl(a)) or cr(a)
            case Iff(l, r):
                cl, cr = comp(l), comp(r)
                return lambda a: cl(a) == cr(a)
            case Exists(v, body) | Forall(v, body):
                if elems is None:
                    raise EvalError("quantifier present; a window is required")
                inner = comp(body)
                # E stops at the first element the body holds at, A at the
                # first one it fails at
                stop = isinstance(g, Exists)
                cuts = [(comp(atom), rising, suffix)
                        for atom, rising, suffix in _cuts(v, body, stop)]

                def search(a: Assignment) -> bool:
                    old = a.get(v, _MISSING)
                    lo, hi = 0, len(elems)
                    for atom, rising, suffix in cuts:
                        # the first index of [lo, hi) at which atom == rising
                        i, j = lo, hi
                        while i < j:
                            mid = (i + j) // 2
                            a[v] = elems[mid]
                            if atom(a) == rising:
                                j = mid
                            else:
                                i = mid + 1
                        if suffix:
                            lo = i
                        else:
                            hi = i
                    result = not stop
                    for e in elems[lo:hi]:
                        a[v] = e
                        if inner(a) == stop:
                            result = stop
                            break
                    if old is not _MISSING:
                        a[v] = old
                    return result
                return search
        raise EvalError(f"cannot compile {g!r}")

    return comp(f)


def compile_eval(theory: Theory, f: Formula,
                 window: Window | None = None) -> Callable[[Assignment], bool]:
    """Compile a formula to a closure over assignments.

    Quantifiers require a window; without one any quantifier raises
    EvalError at compile time.  A quantifier on v searches the slice of the
    window that the order and equality literals on v among its body's
    top-level parts allow (the conjuncts under E, the disjuncts under A, an
    implication counting as a disjunction): each literal, possibly negated,
    is read at compile time as `t < a*v` or `a*v < t` with a > 0 and t free
    of v, and bisected over the sorted window.  A positive `a*v = t` leaves
    at most one element, a negated one narrows nothing, and a body with no
    such literal leaves the whole window.  The search stops at the first
    element of the slice at which the body decides it.

    The closure is exact, and gives what the plain reading of the formula
    over the window gives, for three reasons:

    - Miniscoping (`miniscope`) only moves parts of a quantifier's body
      that do not mention its variable, and `E v. A & B` has the truth of
      `A & (E v. B)` over any domain, the empty window included; dually
      for `A v.` over disjuncts.  Every quantifier still ranges over the
      whole window.
    - Scaling: each call takes L as the lcm of the denominators in the
      window and in the assignment, so every rational coordinate q in play
      maps to the integer q*L (an assignment off the window's grid just
      gets a larger L, with the window rescaled to it).  q -> q*L is additive, injective and
      order-preserving, and the constants are scaled with it (`1` -> L,
      while `1Z` = (1, 0) keeps its unscaled integer coordinate), so a
      term t maps to t*L and `t < 0`, `t = 0` keep their truth.  On a
      pair, D_m, del_k, P and S_n read the integer coordinate, which is
      not scaled.  On a scalar, D_m(t) is read as "m*L divides t*L":
      t*L is an integer, and m*L divides it iff t/m is an integer, so
      this is exact for every rational t (a lex_zq component formula,
      compiled as doag_q, has D_m over its integer-sort variables).
      Qp(q) holds iff the reduced denominator L/gcd(q*L, L) of q is a
      power of two.  A model with integer coordinates only (pres_z,
      pres_n, lex_zz) has L = 1, so its closure evaluates the assignment
      as it is.
    - The slice: the window is enumerated in model order, and scaling by L
      or relifting by L/L0 keeps that order.  The compiled `<` is a group
      order (lexicographic on pairs), so `t < a*v` with a > 0 is monotone in
      v and holds on a suffix of the window, `a*v < t` on a prefix, and the
      bisection finds the boundary exactly.  The elements skipped are those
      at which a conjunct is false (under E) or a disjunct is true (under A),
      so the body's value there cannot change the verdict, and the full body
      is evaluated at every element that is visited.
    """
    f = miniscope(f)
    L0, elems0 = (1, None) if window is None else _scaled_window(theory, window)
    plans: dict[int, Callable[[Assignment], bool]] = {}

    def plan(L: int) -> Callable[[Assignment], bool]:
        fn = plans.get(L)
        if fn is None:
            elems = elems0
            if elems0 is not None and L != L0:
                elems = tuple(_lift(theory, e, L // L0) for e in elems0)
            fn = plans[L] = _compile_scaled(theory, f, L, elems)
        return fn

    base = plan(L0)
    fvs = tuple(sorted(free_vars(f)))
    # with integer coordinates only, L0 == 1 and each element is its own
    # scaled value
    integer = theory in _INT_THEORIES

    def run(asg: Mapping[str, Element]) -> bool:
        try:
            vals = {v: asg[v] for v in fvs}
        except KeyError as e:
            raise EvalError(f"unbound variable {e.args[0]!r}") from None
        if integer:
            return base(vals)
        L = L0
        for x in vals.values():
            d = _coord(theory, x).denominator
            if L % d:
                L = math.lcm(L, d)
        return plan(L)({v: _lift(theory, x, L) for v, x in vals.items()})
    return run


def check_assignment(theory: Theory, f: Formula, asg: Mapping[str, Element]) -> None:
    """Every free variable of f is bound, to an element of the theory's model."""
    missing = free_vars(f) - set(asg)
    if missing:
        raise EvalError(f"unbound variable(s): {', '.join(sorted(missing))}")
    for v in free_vars(f):
        check_element(theory, asg[v])


def eval_qf(theory: Theory, f: Formula, asg: Mapping[str, Element]) -> bool:
    """Evaluate a quantifier-free formula exactly."""
    if not is_quantifier_free(f):
        raise EvalError("formula contains quantifiers; use eval_windowed")
    check_assignment(theory, f, asg)
    return compile_eval(theory, f)(dict(asg))


def eval_windowed(theory: Theory, f: Formula, asg: Mapping[str, Element],
                  w: Window) -> bool:
    """Evaluate with quantifiers ranging over the window.

    This is an approximation of model truth that is exact exactly when all
    relevant quantifier witnesses lie inside the window.  The evaluation of
    the windowed reading itself is exact: `compile_eval` miniscopes without
    changing any quantifier's range and scales rationals to integers by a
    common multiple of every denominator in the window and the assignment.
    """
    check_assignment(theory, f, asg)
    return compile_eval(theory, f, w)(dict(asg))


def format_element(v: Element) -> str:
    if isinstance(v, tuple):
        return f"({v[0]}, {format_element(v[1])})"
    if isinstance(v, Fraction):
        if v.denominator == 1:
            return str(v.numerator)
        return f"{v.numerator}/{v.denominator}"
    return str(v)


def parse_rational(text: str) -> Fraction:
    """Parse 'n' or 'p/q'; a zero denominator is an input error."""
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise EvalError(f"zero denominator in {text.strip()!r}") from None


def parse_element(text: str, theory: Theory) -> Element:
    """Parse 'n', 'p/q', or '(a, p/q)' into a model element.  A numeral of
    the wrong kind raises EvalError naming the text and the theory."""
    text = text.strip()
    sorts = _SORTS[theory]

    def number(part: str, sort: str):
        try:
            return int(part) if sort in "zn" else parse_rational(part)
        except ValueError:
            raise EvalError(f"{text!r} is not an element of the {theory.value} model") from None

    if text.startswith("("):
        if not text.endswith(")"):
            raise EvalError(f"malformed pair {text!r}")
        inner = text[1:-1]
        parts = inner.split(",")
        if len(parts) != 2:
            raise EvalError(f"malformed pair {text!r}")
        # a pair in a scalar model is read as a lex_zq one, and rejected below
        v: Element = tuple(map(number, parts, sorts if len(sorts) == 2 else "zq"))
    else:
        v = number(text, sorts[0])
    check_element(theory, v)
    return v
