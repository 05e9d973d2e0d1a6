"""Quantifier elimination and sentence decision for the theory roster.

One pipeline serves every theory: validate, relativize pres_n to pres_z or
split a lexicographic product into its components, then eliminate
innermost-first over DNF, dropping each conjunct whose literals bound one
linear form to an empty interval.  Variables of integer sort go to Cooper's
algorithm (divisibility-aware test points over an lcm-normalized variable);
the others go to the theory's dense engine: scaled Fourier-Motzkin for the
divisible rational group, which also covers the dense order with predicate
as its unit-coefficient case, and, for the chain-of-classes theory, a nested
elimination in Z x Q, of which it is a reduct.  The engines share one literal
classifier and one equality pivot; the driver simplifies once per step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .errors import (
    EvalError, NonSentenceError, ResourceCapError, UnsupportedTheoryError,
)
from .syntax import (
    And, Bool, Div, Eq, Exists, FALSE, Forall, Formula, Implies, Lt, Not, Or,
    Pred, Solved, TRUE, Term, Theory, _combine, and_, bound_vars, free_vars,
    fresh_name, map_atoms, or_, rebuild, solve_for, substitute, to_nnf, validate,
)
from . import models


# ---------------------------------------------------------------------------
# Constant folding and Boolean simplification


def _const_value(t: Term):
    """Comparable value of a variable-free term: the sum of its constants'
    `models.UNITS` values, an integer or a pair.  None if the term has
    variables or mixes scalar and pair constants."""
    if t.coeffs:
        return None
    v = None
    for sym, c in t.consts:
        u = models._scale(c, models.UNITS[sym])
        if v is None:
            v = u
        elif isinstance(u, tuple) is not isinstance(v, tuple):
            return None
        else:
            v = models._add(v, u)
    return 0 if v is None else v


def _fold_atom(a) -> bool | None:
    """Truth value of a variable-free atom, None when not decidable here."""
    match a:
        case Lt(l, r) | Eq(l, r):
            if l.coeffs != r.coeffs:  # canonical: l - r has a variable
                return None
            v = _const_value(l - r)
            if v is None:
                return None
            zero = (0, 0) if isinstance(v, tuple) else 0
            return v < zero if isinstance(a, Lt) else v == zero
        case Div(m, t):
            v = _const_value(t)
            if v is None:
                return None
            return all(c % m == 0 for c in (v if isinstance(v, tuple) else (v,)))
        case Pred("S", n, (l, r)) if l == r:
            return n == 0
        case Pred("del", k, (t,)):
            v = _const_value(t)
            if v is None or not isinstance(v, tuple):
                return None
            return v[0] == k
    return None


def _connect(cls: type, parts) -> Formula:
    """The And or Or (cls) of parts that are already simplified, folded once:
    nested cls nodes are flattened, units and duplicates dropped, argument
    order kept; the zero when a part is the zero or a literal meets its
    complement, and no part after it is drawn.  Each leaf is keyed by its
    atom, a negated one by its argument (NNF), and the key maps to where the
    leaf first occurs in the output, so one lookup finds a repeat or a
    complement."""
    zero, unit = (FALSE, TRUE) if cls is And else (TRUE, FALSE)
    out: list[Formula] = []
    first: dict[Formula, int] = {}
    for p in parts:
        if isinstance(p, Bool):
            if p.value == zero.value:
                return zero
            continue
        for leaf in p.args if isinstance(p, cls) else (p,):
            neg = isinstance(leaf, Not)
            i = first.setdefault(leaf.arg if neg else leaf, len(out))
            if i == len(out):
                out.append(leaf)
            elif isinstance(out[i], Not) is not neg:
                return zero
    # out is flat and free of units already: no second pass through and_/or_
    if len(out) > 1:
        return cls(tuple(out))
    return out[0] if out else unit


def simplify(f: Formula) -> Formula:
    """One bottom-up pass over a quantifier-free NNF formula: closed atoms
    and their negations fold to truth values, and each And/Or node is folded
    once by _connect.  Deterministic: argument order is preserved.  A node
    outside that grammar (a quantifier, ->, <->, or a negation of a
    non-atom) comes back unchanged, which is sound."""
    match f:
        case And(args) | Or(args):
            return _connect(type(f), (simplify(a) for a in args))
        case Not(arg):
            v = _fold_atom(arg)
            return f if v is None else (FALSE if v else TRUE)
    v = _fold_atom(f)
    return f if v is None else (TRUE if v else FALSE)


# ---------------------------------------------------------------------------
# DNF over NNF formulas

_DNF_CAP = 100_000  # also bounds the branches of one Cooper elimination


def dnf(f: Formula) -> list[tuple[Formula, ...]]:
    """Disjunctive normal form of an NNF quantifier-free formula, as a list
    of literal tuples; contradictory and duplicate conjuncts are pruned."""

    def rec(g: Formula) -> list[tuple[Formula, ...]]:
        match g:
            case Bool(True):
                return [()]
            case Bool(False):
                return []
            case Or(args):
                out: list[tuple[Formula, ...]] = []
                keys = set()
                for a in args:
                    for conj in rec(a):
                        k = frozenset(conj)
                        if k not in keys:
                            keys.add(k)
                            out.append(conj)
                return out
            case And(args):
                combos: list[tuple[Formula, ...]] = [()]
                for a in args:
                    branches = rec(a)
                    new: list[tuple[Formula, ...]] = []
                    for left in combos:
                        for right in branches:
                            merged = _merge_conj(left, right)
                            if merged is not None:
                                new.append(merged)
                    if len(new) > _DNF_CAP:
                        raise ResourceCapError("DNF blowup beyond internal cap")
                    combos = new
                return combos
            case _:
                return [(g,)]

    return rec(f)


def _merge_conj(left: tuple[Formula, ...], right: tuple[Formula, ...]) -> tuple[Formula, ...] | None:
    """left + right without repeats, or None when a literal meets its
    complement.  Each literal is keyed by its atom, as in _connect."""
    out = list(left)
    first = {lit.arg if isinstance(lit, Not) else lit: i for i, lit in enumerate(left)}
    for lit in right:
        neg = isinstance(lit, Not)
        i = first.setdefault(lit.arg if neg else lit, len(out))
        if i == len(out):
            out.append(lit)
        elif isinstance(out[i], Not) is not neg:
            return None
    return tuple(out)


# ---------------------------------------------------------------------------
# Generic driver: innermost-first existential elimination over DNF, without
# the conjuncts whose literals give one linear form an empty interval


def _form(atom: Lt | Eq) -> tuple[tuple[tuple[str, int], ...], int | None]:
    """(p, c) when atom reads p < c or p = c: p the canonical (variable,
    coefficient) pairs of l - r, c a multiple of the constant 1, or None when
    a side holds another constant."""
    c = 0
    for side, sign in ((atom.right, 1), (atom.left, -1)):
        for s, k in side.consts:
            if s != "1":
                return (), None
            c += sign * k
    return _combine(atom.left.coeffs, atom.right.coeffs, -1), c


def _interval_reader(int_var: Callable[[str], bool]):
    """A memoizing reader of the interval that an Lt or Eq literal whose
    constants are all 1 gives its primitive linear form, the p of _form with
    the gcd g of its coefficients divided out and the leading one made
    positive, so that the literal reads g*p < c or g*p = c.

    The reader returns (p, low, high), p interned as an int; each end is a key
    (value, e) read as value + e*epsilon, or None when unbounded.  Over the
    integers (every variable of p of integer sort) a strict end is tightened
    to a closed one by floor division, and an equality that g does not divide
    is the empty interval [1, 0].  Any other literal reads as None."""
    memo: dict[int, tuple | None] = {}
    forms: dict[tuple, int] = {}

    def interval(lit: Formula) -> tuple | None:
        if not isinstance(lit, (Lt, Eq)):
            return None
        pairs, c = _form(lit)
        if not pairs or c is None:
            return None
        g = math.gcd(*[a for _, a in pairs])
        g = g if pairs[0][1] > 0 else -g
        primitive = pairs if g == 1 else tuple([(x, a // g) for x, a in pairs])
        p = forms.setdefault(primitive, len(forms))
        if all([int_var(x) for x, _ in pairs]):
            if isinstance(lit, Eq):
                return (p, (c // g, 0), (c // g, 0)) if c % g == 0 else (p, (1, 0), (0, 0))
            return (p, None, ((c - 1) // g, 0)) if g > 0 else (p, (c // g + 1, 0), None)
        value = c * g if abs(g) == 1 else Fraction(c, g)
        if isinstance(lit, Eq):
            return p, (value, 0), (value, 0)
        return (p, None, (value, -1)) if g > 0 else (p, (value, 1), None)

    def read(lit: Formula) -> tuple | None:
        key = id(lit)  # the conjuncts of one DNF share their literal nodes
        if key not in memo:
            memo[key] = interval(lit)
        return memo[key]
    return read


def _empty_interval(conj: tuple[Formula, ...], read) -> bool:
    """Whether the literals of conj bound one linear form to an empty
    interval, each literal read by an _interval_reader."""
    lows: dict[int, tuple] = {}
    highs: dict[int, tuple] = {}
    for lit in conj:
        bound = read(lit)
        if bound is None:
            continue
        p, low, high = bound
        if low is not None and (p not in lows or low > lows[p]):
            lows[p] = low
        if high is not None and (p not in highs or high < highs[p]):
            highs[p] = high
        if p in lows and p in highs and lows[p] > highs[p]:
            return True
    return False


def _eliminate(f: Formula, elim_exists,
               int_var: Callable[[str], bool] = lambda v: False) -> Formula:
    """f must be in NNF.  elim_exists(var, literals) -> Formula; int_var
    tells to_nnf and the interval reader which variables have integer sort.
    Of a DNF with more than one conjunct, the conjuncts that _empty_interval
    finds empty are dropped before elim_exists runs.  Every node comes back
    simplified: an atom, an engine output or a negated universal body goes
    through simplify's one pass, and an And/Or node folds its simplified
    children with _connect without walking them again."""

    def rec(g: Formula) -> Formula:
        match g:
            case And(args):
                return _connect(And, [rec(a) for a in args])
            case Or(args):
                return _connect(Or, [rec(a) for a in args])
            case Exists(v, body):
                return _exists(v, rec(body))
            case Forall(v, body):
                inner = rec(body)
                if v not in free_vars(inner):
                    return inner
                negated = simplify(to_nnf(Not(inner), int_var))
                return simplify(to_nnf(Not(_exists(v, negated)), int_var))
            case _:
                return simplify(g)

    def _exists(v: str, body: Formula) -> Formula:
        if v not in free_vars(body):
            return body
        conjs = dnf(body)
        if len(conjs) > 1:  # a lone conjunct goes to the engine as it is
            read = _interval_reader(int_var)
            conjs = [conj for conj in conjs if not _empty_interval(conj, read)]
        return simplify(or_(*(elim_exists(v, conj) for conj in conjs)))

    return rec(f)


def _integer_sort(theory: Theory, sorts=()) -> Callable[[str], bool]:
    """Which variables have integer sort: every one in pres_z, pres_n (after
    translate_nat) and lex_zz, the integer components among a lex_zq
    ComponentFormula's sorts, and none in the dense theories."""
    if theory in models._INT_THEORIES:
        return lambda v: True
    return {name for name, sort in sorts if sort == "z"}.__contains__


# ---------------------------------------------------------------------------
# Cooper's algorithm for Presburger arithmetic


def _integer(t: Term) -> int | None:
    """t's value when t is an integer, a multiple of the constant 1 alone."""
    if t.coeffs:
        return None
    ks = t.consts
    if not ks:
        return 0
    return ks[0][1] if len(ks) == 1 and ks[0][0] == "1" else None


def _lt(l: Term, r: Term) -> Formula:
    """l < r, decided when both sides are integers."""
    a = _integer(l)
    b = None if a is None else _integer(r)
    if b is None:
        return Lt(l, r)
    return TRUE if a < b else FALSE


def _div_lit(m: int, t: Term, positive: bool) -> Formula:
    """D_m(t), or its negation when positive is False, decided when m is 1
    or t is an integer."""
    k = 0 if m < 2 else _integer(t)
    if k is None:
        return Div(m, t) if positive else Not(Div(m, t))
    return TRUE if (k % m == 0) == positive else FALSE


def _classify(v: str, lits: tuple[Formula, ...], accepts) -> tuple[list, ...]:
    """Sort a conjunct's literals for the elimination of v.

    Returns (rest, lowers, uppers, eqs, divs, preds): the literals free of v;
    the pairs (a, t) of t < a*v, a*v < t and a*v = t; the tuples
    (m, a, t, positive) of D_m(a*v + t) and its negation; and the predicate
    literals on v.  accepts names what an engine handles beyond bounds and
    equalities: "div", or predicate names.  Any other literal on v raises
    EvalError.
    """
    rest: list[Formula] = []
    divs: list[tuple[int, int, Term, bool]] = []
    preds: list[Formula] = []
    sides: dict[str, list[tuple[int, Term]]] = {"lower": [], "upper": [], "eq": []}
    for lit in lits:
        match solve_for(lit, v):
            case Solved("div", a, t, m, positive) if "div" in accepts:
                divs.append((m, a, t, positive))
            case Solved(kind, a, t) if kind in sides:
                sides[kind].append((a, t))
            case other if not isinstance(other, Solved) and v not in free_vars(other):
                rest.append(other)
            case Pred(name) | Not(Pred(name)) if name in accepts:
                preds.append(lit)
            case _:
                raise EvalError(f"unexpected literal {lit!r} in the elimination of {v}")
    return rest, sides["lower"], sides["upper"], sides["eq"], divs, preds


def _pivot(v: str, n: int, s: Term, eqs, lowers, uppers, divs=(), preds=()) -> list[Formula]:
    """The literals on v after substituting v = s/n from the equality n*v = s
    (n > 0): a*v = t, t < a*v and a*v < t scale by n, D_m(a*v + t) becomes
    D_{m*n}(a*s + n*t), exact once D_n(s) holds, and predicate literals take
    s for v (n = 1 wherever one occurs)."""
    return [
        *(Eq(s.scale(a), t.scale(n)) for a, t in eqs),
        *(Lt(t.scale(n), s.scale(a)) for a, t in lowers),
        *(Lt(s.scale(a), t.scale(n)) for a, t in uppers),
        *(_div_lit(m * n, s.scale(a) + t.scale(n), pos) for m, a, t, pos in divs),
        *(substitute(p, {v: s}) for p in preds),
    ]


def _cooper_exists(v: str, lits: tuple[Formula, ...]) -> Formula:
    rest, lowers, uppers, eqs, divs, _ = _classify(v, lits, {"div"})
    if eqs:
        n, s = eqs[0]  # v = s/n, an integer exactly when D_n(s)
        return and_(*rest, _div_lit(n, s, True), *_pivot(v, n, s, eqs[1:], lowers, uppers, divs))

    coeffs = [a for a, _ in lowers] + [a for a, _ in uppers] + [a for _, a, _, _ in divs]
    big = math.lcm(*coeffs) if coeffs else 1
    lows = [t.scale(big // a) for a, t in lowers]
    ups = [t.scale(big // a) for a, t in uppers]
    dv = [(m * (big // a), t.scale(big // a), pos) for m, a, t, pos in divs]
    if big > 1:
        dv.append((big, Term.zero(), True))

    period = math.lcm(*(m for m, _, _ in dv)) if dv else 1
    # Test points b + j above the lower bounds b, or, when there are fewer
    # upper bounds, a - j below the upper bounds a.  With no bound on that
    # side, v near -infinity (+infinity) satisfies every bound on the other,
    # and only the divisibilities at v = j (v = -j) are left.
    sign, cands = (1, lows) if len(lows) <= len(ups) else (-1, ups)
    if period * (len(cands) + 1) > _DNF_CAP:
        raise ResourceCapError(f"Cooper elimination of {v} needs {period} x "
                               f"{len(cands) + 1} branches, beyond the internal cap")
    if not cands and all(pos for _, _, pos in dv):
        # v = -t_i (mod m_i) for every i has a solution iff each pair of
        # congruences agrees modulo the gcd of their moduli (Ore 1952)
        return and_(*rest, *(_div_lit(math.gcd(m, n), t - u, True)
                             for i, (m, t, _) in enumerate(dv) for n, u, _ in dv[i + 1:]))

    def instance(y: Term, bounded: bool) -> Formula:
        parts = [_lt(t, y) for t in lows] + [_lt(y, t) for t in ups] if bounded else []
        return and_(*parts, *(_div_lit(m, y + t, pos) for m, t, pos in dv))

    shifts = [Term.const(sign * j) for j in range(1, period + 1)]
    branches = [] if cands else [instance(j, False) for j in shifts]
    branches += [instance(c + j, True) for c in cands for j in shifts]
    return and_(*rest, or_(*branches))


def translate_nat(f: Formula) -> Formula:
    """Relativize every quantifier to v >= 0, turning a naturals formula into
    an integers formula that agrees with it on natural assignments."""

    def ge0(v: str) -> Formula:
        return Or((Lt(Term.zero(), Term.var(v)), Eq(Term.zero(), Term.var(v))))

    def rec(g: Formula) -> Formula:
        match g:
            case Exists(v, body):
                return Exists(v, and_(ge0(v), rec(body)))
            case Forall(v, body):
                return Forall(v, Implies(ge0(v), rec(body)))
        return rebuild(g, rec)

    return rec(f)


# ---------------------------------------------------------------------------
# Example 2 identities, exposed as first-class rewrites


def rewrite_divisibility(m: int, n: int, t: Term, var: str = "x") -> Formula:
    """Split D_m(n*var + t) into a disjunction of var-only and t-only parts:
    OR_{i<m} ( D_m(n*var - i) & D_m(t + i) )."""
    if m < 2:
        raise ValueError("modulus must be >= 2")
    x = Term.var(var, n)
    branches = []
    for i in range(m):
        c = Term.const(i)
        branches.append(And((Div(m, x - c), Div(m, t + c))))
    return Or(tuple(branches))


def floor_div_bounds(var: str, t: Term, n: int) -> Formula:
    """The order characterization of var = floor(t/n) over the integers:
    n*var <= t < n*var + n."""
    nx = Term.var(var, n)
    return and_(
        or_(Lt(nx, t), Eq(nx, t)),
        Lt(t, nx + Term.const(n)),
    )


def isolate_x_equality(n: int, t: Term, var: str = "x") -> Formula:
    """n*var = t  iff  var = floor(t/n) and n divides t; the floor equation is
    rendered by its order characterization."""
    if n < 1:
        raise ValueError("n must be positive")
    if n == 1:
        return Eq(Term.var(var), t)
    return and_(floor_div_bounds(var, t, n), Div(n, t))


def isolate_x_inequality(n: int, t: Term, var: str = "x") -> Formula:
    """t < n*var  iff  floor(t/n) < var; over the integers the scaled atom is
    that inequality, with the floor itself realized at the witness layer."""
    if n < 1:
        raise ValueError("n must be positive")
    return Lt(t, Term.var(var, n))


# ---------------------------------------------------------------------------
# Divisible ordered group of rationals; the dense order with predicate is its
# unit-coefficient case


def _doag_exists(v: str, lits: tuple[Formula, ...]) -> Formula:
    rest, lowers, uppers, eqs, _, preds = _classify(v, lits, {"Qp"})
    if eqs:
        n, s = eqs[0]  # v = s/n; n = 1 wherever Qp occurs
        return and_(*rest, *_pivot(v, n, s, eqs[1:], lowers, uppers, preds=preds))

    # without an equality the Qp literals drop: Qp and its complement are
    # both dense, so every open interval holds witnesses of either kind
    pairs = [Lt(t.scale(b), u.scale(a)) for a, t in lowers for b, u in uppers]
    return and_(*rest, *pairs)


# ---------------------------------------------------------------------------
# Chain-of-classes theory: dense S_0-classes on a discrete chain with an
# alternating predicate P, a reduct of lex_zq


def _to_lex(atom: Formula) -> Formula:
    """A tchain atom read in Z x Q."""
    match atom:
        case Pred("P", _, (t,)):
            return Div(2, t)
        case Pred("S", 0, (t, s)):
            return Pred("del", 0, (t - s,))
        case Pred("S", n, (t, s)):
            return or_(Pred("del", n, (t - s,)), Pred("del", n, (s - t,)))
    return atom


def _prune(f: Formula) -> Formula:
    """f with each And/Or node rid of the atoms that another atom on the same
    linear form p subsumes: in an And every p < c but the least, in an Or
    every p < c but the greatest and each p = c (or -p = -c) below it."""
    if not isinstance(f, (And, Or)):
        return f
    args, conj = [_prune(a) for a in f.args], isinstance(f, And)
    kept: dict[tuple, tuple[int, int]] = {}  # p -> (c, position) of the p < c kept
    for i, a in enumerate(args):
        if isinstance(a, Lt):
            p, c = _form(a)
            if p not in kept or (c < kept[p][0] if conj else c > kept[p][0]):
                kept[p] = (c, i)

    def stays(i: int, a: Formula) -> bool:
        if isinstance(a, Lt):
            return kept[_form(a)[0]][1] == i
        if isinstance(a, Eq) and not conj:
            p, c = _form(a)
            minus = tuple([(x, -k) for x, k in p])
            return all(q not in kept or d >= kept[q][0] for q, d in ((p, c), (minus, -c)))
        return True
    return (and_ if conj else or_)(*(a for i, a in enumerate(args) if stays(i, a)))


def _from_lex(cf: ComponentFormula) -> Formula:
    """The tchain reading of a lex_zq output of _tchain_exists (see there); a
    component atom of any other shape raises EvalError."""
    orig = {name: v for v, z, s in cf.pairs for name in (z, s)}
    ints = {z for _, z, _ in cf.pairs}

    def back(atom: Formula) -> Formula:
        t = atom.arg if isinstance(atom, Div) else atom.left - atom.right
        plus = [Term.var(orig[n]) for n, k in t.coeffs if k == 1]
        minus = [Term.var(orig[n]) for n, k in t.coeffs if k == -1]
        sorts = {n in ints for n, _ in t.coeffs}
        match atom:
            case Div(2) if len(t.coeffs) == 1 and plus and sorts == {True}:
                p = Pred("P", None, (plus[0],))
                return p if dict(t.consts).get("1", 0) % 2 == 0 else Not(p)
            case Lt() | Eq() if len(plus) == len(minus) == 1 == len(sorts):
                (x,), (y,), c = plus, minus, _form(atom)[1]
                if sorts == {False}:
                    if c == 0:
                        return type(atom)(x, y)
                elif isinstance(atom, Eq):
                    order = Lt(y, x) if c > 0 else Lt(x, y) if c < 0 else TRUE
                    return and_(Pred("S", abs(c), (x, y)), order)
                elif c <= 0:
                    return and_(Lt(x, y), *(Not(Pred("S", n, (x, y))) for n in range(-c + 1)))
                else:
                    return or_(Lt(x, y), *(Pred("S", n, (x, y)) for n in range(c)))
        raise EvalError(f"no tchain reading of the component atom {atom}")

    return to_nnf(map_atoms(_prune(cf.formula), back))


def _tchain_exists(v: str, lits: tuple[Formula, ...]) -> Formula:
    """E v over a conjunct of tchain literals, as a reduct of Z x Q: qe over
    lex_zq eliminates the literals on v, read by _to_lex, and _from_lex reads
    the component output back, once _prune has dropped subsumed order atoms.
    - With unit coefficients Cooper's period is at most 2, so every
      divisibility is D2(x_z + c): P(x), or ~P(x) when c is odd.
    - x_z - y_z = c is S_|c|(x, y) with the order; x_z - y_z < c is x < y &
      ~S_0 & ... & ~S_{-c} when c <= 0, x < y | S_0 | ... | S_{c-1} if c >= 1.
    - x_2 < y_2 and x_2 = y_2 read as x < y and x = y: order automorphisms
      of Q inside each class preserve <, P and S_n, and so the truth of both
      formulas and of every other atom read back; they can place the second
      coordinates of a point in increasing, disjoint ranges class by class,
      where x_2 < y_2 holds exactly when x < y, and x_2 = y_2 when x = y.
    An equality on v goes through the shared pivot instead.
    """
    rest, lowers, uppers, eqs, _, preds = _classify(v, lits, {"P", "S"})
    if eqs:
        n, s = eqs[0]  # v = w for a variable w, so n = 1
        return and_(*rest, *_pivot(v, n, s, eqs[1:], lowers, uppers, preds=preds))
    body = map_atoms(and_(*(lit for lit in lits if lit not in rest)), _to_lex)
    return and_(*rest, _from_lex(qe(Theory.LEX_ZQ, Exists(v, body))))


# ---------------------------------------------------------------------------
# Lexicographic products: component reduction


@dataclass(frozen=True)
class ComponentFormula:
    """A formula over split coordinates: each product variable x becomes an
    integer-sort variable x_z and a second-coordinate variable x_2."""

    theory: Theory
    formula: Formula
    pairs: tuple[tuple[str, str, str], ...]  # (original, z-name, second-name)
    sorts: tuple[tuple[str, str], ...] = ()  # (component name, 'z' | 's')


def _split_term(t: Term, names: dict[str, tuple[str, str]]) -> tuple[Term, Term]:
    zc: dict[str, int] = {}
    sc: dict[str, int] = {}
    for v, c in t.coeffs:
        z, s = names[v]
        zc[z] = c
        sc[s] = c
    zk = 0
    sk = 0
    for sym, c in t.consts:
        u = models.UNITS[sym]
        zk += c * u[0]
        sk += c * u[1]
    return Term.make(zc, {"1": zk}), Term.make(sc, {"1": sk})


def lex_split(theory: Theory, f: Formula) -> ComponentFormula:
    """Translate a lexicographic-product formula componentwise: order atoms
    become first-coordinate-then-second comparisons, divisibility follows the
    product subgroup, del_k pins the integer coordinate."""
    if theory not in (Theory.LEX_ZQ, Theory.LEX_ZZ):
        raise UnsupportedTheoryError(f"lex_split does not apply to {theory.value}")
    taken = set(free_vars(f)) | set(bound_vars(f))
    names: dict[str, tuple[str, str]] = {}
    sorts: dict[str, str] = {}

    def split_name(v: str) -> None:
        """Map v to fresh names v_z and v_2, and record their sorts."""
        z = fresh_name(f"{v}_z", taken)
        taken.add(z)
        s = fresh_name(f"{v}_2", taken)
        taken.add(s)
        names[v] = (z, s)
        sorts[z] = "z"
        sorts[s] = "s"

    for v in sorted(free_vars(f)):
        split_name(v)

    def split_atom(a) -> Formula:
        match a:
            case Eq(l, r):
                lz, ls = _split_term(l, names)
                rz, rs = _split_term(r, names)
                return and_(Eq(lz, rz), Eq(ls, rs))
            case Lt(l, r):
                lz, ls = _split_term(l, names)
                rz, rs = _split_term(r, names)
                return or_(Lt(lz, rz), and_(Eq(lz, rz), Lt(ls, rs)))
            case Div(m, t):
                tz, ts = _split_term(t, names)
                if theory == Theory.LEX_ZQ:
                    return Div(m, tz)
                return and_(Div(m, tz), Div(m, ts))
            case Pred("del", k, (t,)):
                tz, _ = _split_term(t, names)
                return Eq(tz, Term.const(k))
        raise EvalError(f"cannot split atom {a!r}")

    def rec(g: Formula) -> Formula:
        match g:
            case Lt() | Eq() | Div() | Pred():
                return split_atom(g)
            case Exists(v, body) | Forall(v, body):
                split_name(v)
                inner = rec(body)
                z, s = names.pop(v)
                return type(g)(z, type(g)(s, inner))
        return rebuild(g, rec)

    formula = rec(f)
    pairs = tuple((v, *names[v]) for v in sorted(names))
    return ComponentFormula(theory, formula, pairs, tuple(sorted(sorts.items())))


# the scalar theory a component formula is evaluated in
_COMPONENT_THEORY = {Theory.LEX_ZQ: Theory.DOAG_Q, Theory.LEX_ZZ: Theory.PRES_Z}


def _compile_output(theory: Theory, out) -> Callable[[dict], bool]:
    """Compiled truth of a quantifier-free QE output at an assignment of the
    input's free variables.  A ComponentFormula compiles as a doag_q
    (lex_zq) or pres_z (lex_zz) formula in its split variables, reading each
    pair (a, b) as x_z = a, x_2 = b; no per-variable sort is needed, as
    every component atom mentions one sort and `compile_eval` reads D_m(t)
    exactly at every rational t."""
    if not isinstance(out, ComponentFormula):
        return models.compile_eval(theory, out)
    fn = models.compile_eval(_COMPONENT_THEORY[out.theory], out.formula)
    pairs = out.pairs

    def run(asg: dict) -> bool:
        flat = {}
        for orig, z, s in pairs:
            flat[z], flat[s] = asg[orig]
        return fn(flat)
    return run


def eval_component(cf: ComponentFormula, asg: dict) -> bool:
    """Evaluate a quantifier-free component formula at a pair assignment
    keyed by the original variables."""
    return _compile_output(cf.theory, cf)(asg)


# ---------------------------------------------------------------------------
# The elimination pipeline and sentence decision


# the engine for each theory's variables of non-integer sort; variables of
# integer sort (see _integer_sort) are eliminated by Cooper
_ENGINES = {
    Theory.PRES_Z: _cooper_exists,
    Theory.PRES_N: _cooper_exists,
    Theory.LEX_ZZ: _cooper_exists,
    Theory.DLO_PRED: _doag_exists,
    Theory.DOAG_Q: _doag_exists,
    Theory.LEX_ZQ: _doag_exists,
    Theory.TCHAIN: _tchain_exists,
}


def qe(theory: Theory, f: Formula):
    """Quantifier elimination for the given theory.  pres_n is relativized
    to pres_z first.  The lexicographic products are split into components
    and return a ComponentFormula; all others return a Formula."""
    validate(f, theory)
    if theory not in _ENGINES:
        raise UnsupportedTheoryError(f"no quantifier elimination engine for {theory.value}")
    split = None
    if theory == Theory.PRES_N:
        f = translate_nat(f)
    elif theory in (Theory.LEX_ZQ, Theory.LEX_ZZ):
        split = lex_split(theory, f)
        f = split.formula
    int_var = _integer_sort(theory, split.sorts if split else ())
    dense = _ENGINES[theory]

    def elim(v: str, lits: tuple[Formula, ...]) -> Formula:
        return _cooper_exists(v, lits) if int_var(v) else dense(v, lits)

    out = _eliminate(to_nnf(f, int_var), elim, int_var)
    return out if split is None else ComponentFormula(theory, out, split.pairs, split.sorts)


def oracle_agreement(theory: Theory, f: Formula, asg_window, search_window):
    """Compare windowed truth of f against its quantifier-free image under
    qe, over every assignment of the free variables drawn from the
    assignment window.

    Returns (total, mismatches) where mismatches lists at most five
    (assignment, windowed, eliminated) triples."""
    import itertools

    out = qe(theory, f)
    fvs = sorted(free_vars(f))
    elems = models.enumerate_window(theory, asg_window)
    f_fn = models.compile_eval(theory, f, search_window)
    out_fn = _compile_output(theory, out)
    total = 0
    mismatches = []
    for combo in itertools.product(elems, repeat=len(fvs)):
        asg = dict(zip(fvs, combo))
        lhs = f_fn(asg)
        rhs = out_fn(asg)
        total += 1
        if lhs != rhs and len(mismatches) < 5:
            mismatches.append((asg, lhs, rhs))
    return total, mismatches


def decide(theory: Theory, sentence: Formula) -> bool:
    """Truth of a sentence in the standard model: QE, then closed evaluation."""
    if free_vars(sentence):
        raise NonSentenceError(
            f"free variable(s) {sorted(free_vars(sentence))} in decide()"
        )
    return _compile_output(theory, qe(theory, sentence))({})
