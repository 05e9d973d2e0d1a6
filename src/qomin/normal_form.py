"""Witnessed interval normal forms.

Every formula theta(x, ybar) is rewritten into a disjunction of triples
(phi_i(x), psi_i(ybar), rho_i(x, zbar)): phi_i uses only 0-definable unary
predicates of the theory, psi_i mentions only the parameters, and rho_i is a
conjunction of order/equality constraints between x and witness values zbar
computed from the parameters.  Witnesses are either definable terms (with
floor or exact division) or named instance procedures.

This module also houses the explicit constructions for the lexicographic
products (coset-membership formulas del_k, divisibility splitting of x + y,
the three-case rewriting of n*x > a) and for the chain-of-classes model
(interval decompositions of S_n around a parameter).
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

from .errors import DecompositionError, EvalError, UnsupportedTheoryError
from . import models
from .models import Element, Window
from .qe import (
    ComponentFormula, dnf, qe, rewrite_divisibility, simplify,
)
from .syntax import (
    And, Bool, Div, Eq, Exists, FALSE, Forall, Formula, Lt, Not, Or, Pred,
    Solved, TRUE, Term, Theory, and_, bound_vars, free_vars, is_quantifier_free,
    map_atoms, or_, print_formula, solve_for, substitute, to_nnf,
    validate,
)

_LEX = (Theory.LEX_ZQ, Theory.LEX_ZZ)


# ---------------------------------------------------------------------------
# del_k: definitional expansion in the base group language


def _le(l: Term, r: Term) -> Formula:
    return or_(Lt(l, r), Eq(l, r))


def _double(u: str, t: Term) -> Formula:
    """t is divisible by two: E u. u + u = t."""
    return Exists(u, Eq(Term.var(u, 2), t))


def _in_two_index_subgroup_zz(t: Term, names: list[str]) -> Formula:
    """Membership of t in the index-two subgroup (even first coordinate) of
    the integer product, written in the base language: t is double an
    element, or the immediate successor of such a double."""
    v, w = names
    tv = Term.var(v, 2)
    succ = and_(
        Lt(tv, t),
        Forall(w, or_(Not(Lt(tv, Term.var(w))), _le(t, Term.var(w)))),
    )
    return Exists(v, or_(Eq(tv, t), succ))


def _delta0(theory: Theory, x: str) -> Formula:
    """Defining formula of the convex subgroup (zero first coordinate)."""
    u = f"{x}_u"
    zero = Term.zero()
    xv = Term.var(x)
    uv = Term.var(u)
    if theory == Theory.LEX_ZQ:
        member = _double(f"{x}_v", uv)
    else:
        member = _in_two_index_subgroup_zz(uv, [f"{x}_v", f"{x}_w"])
    def all_below(bound: Term) -> Formula:
        return Forall(u, or_(Not(and_(_le(zero, uv), _le(uv, bound))), member))
    return or_(
        and_(_le(zero, xv), all_below(xv)),
        and_(Lt(xv, zero), all_below(-xv)),
    )


def delta(theory: Theory, k: int, var: str = "x") -> Formula:
    """Base-language defining formula of the coset with first coordinate k.

    k = 0 is the convex subgroup itself; k >= 1 says x > 0 and the interval
    [0, x] meets exactly k cosets other than the subgroup, witnessed by k
    pairwise-inequivalent nonmembers covering every nonmember of [0, x].
    """
    if theory not in _LEX:
        raise UnsupportedTheoryError(f"del_k expansion applies to lexicographic theories, not {theory.value}")
    if k < 0:
        raise ValueError("coset index must be >= 0")
    if k == 0:
        return _delta0(theory, var)
    d0 = _delta0(theory, "c0")

    def in_subgroup(t: Term) -> Formula:
        return substitute(d0, {"c0": t})

    xv = Term.var(var)
    zero = Term.zero()
    ws = [f"{var}_w{i}" for i in range(1, k + 1)]
    conds: list[Formula] = []
    for i, w in enumerate(ws):
        wv = Term.var(w)
        conds.append(and_(_le(zero, wv), _le(wv, xv), Not(in_subgroup(wv))))
        for w2 in ws[:i]:
            conds.append(Not(in_subgroup(wv - Term.var(w2))))
    u = f"{var}_u"
    uv = Term.var(u)
    cover = Forall(
        u,
        or_(
            Not(and_(_le(zero, uv), _le(uv, xv))),
            in_subgroup(uv),
            *(in_subgroup(uv - Term.var(w)) for w in ws),
        ),
    )
    body = and_(*conds, cover)
    for w in reversed(ws):
        body = Exists(w, body)
    return and_(Lt(zero, xv), body)


# ---------------------------------------------------------------------------
# Divisibility splitting of x + y over the lexicographic products


def _del_atom(k: int, t: Term) -> Formula:
    return Pred("del", k, (t,))


def lex_div_split(theory: Theory, m: int, x: str = "x", y: str = "y",
                  coordinate: str | None = None) -> Formula:
    """Boolean combination of formulas in x alone and y alone that separates
    a divisibility constraint on x + y.

    For Z x Q the single coset-shift disjunction defines 'm divides x + y'.
    For Z x Z, coordinate='first' gives the (mZ x Z)-splitting (same shape),
    coordinate='second' the (Z x mZ)-splitting via shifted even-coset
    membership, and the default conjoins both; the second splitting pins the
    first coordinates of x and y to multiples of m (its shifts are only
    0-definable there), so the conjunction agrees with D_m(x + y) exactly on
    that subgroup.
    """
    if theory not in _LEX:
        raise UnsupportedTheoryError(f"divisibility splitting applies to lexicographic theories, not {theory.value}")
    if m < 2:
        raise ValueError("modulus must be >= 2")
    if theory == Theory.LEX_ZQ:
        if coordinate not in (None, "first"):
            raise ValueError("Z x Q has only the first-coordinate splitting")
        return _div_split_first(m, x, y)
    if coordinate == "first":
        return _div_split_first(m, x, y)
    if coordinate == "second":
        return _div_split_second(m, x, y)
    if coordinate is None:
        return and_(_div_split_first(m, x, y), _div_split_second(m, x, y))
    raise ValueError(f"unknown coordinate {coordinate!r}")


def _div_split_first(m: int, x: str, y: str) -> Formula:
    v, u = f"{x}_v", f"{y}_u"
    branches = []
    for i in range(m):
        left = Exists(v, _del_atom(i, Term.var(x) + Term.var(v, m)))
        right = Exists(u, _del_atom(m - i, Term.var(y) + Term.var(u, m)))
        branches.append(And((left, right)))
    return Or(tuple(branches))


def _div_split_second(m: int, x: str, y: str) -> Formula:
    w, z = f"{x}_w", f"{y}_z"
    one_p = Term.const(1, "1p")
    branches = []
    for i in range(m):
        xw = Term.var(x) + Term.var(w, m)
        yz = Term.var(y) + Term.var(z, m)
        phi = Exists(w, and_(_del_atom(0, xw), Div(m, xw + one_p.scale(i))))
        psi = Exists(z, and_(_del_atom(0, yz), Div(m, yz + one_p.scale(m - i))))
        branches.append(And((phi, psi)))
    return Or(tuple(branches))


# ---------------------------------------------------------------------------
# Three-case rewriting of n*x > a


@dataclass(frozen=True)
class InequalityForm:
    """Which of the three shapes n*x > a takes, with its bound elements."""

    form: int               # 1, 2 or 3
    d: Element | None
    e: Element

    def formula(self, theory: Theory, x: str = "x",
                d_var: str = "zd", e_var: str = "ze") -> Formula:
        return _three_case(theory, self.form, x, Term.var(e_var), Term.var(d_var))


def _three_case(theory: Theory, form: int, x: str, e: Term, d: Term) -> Formula:
    """Form 1 is x > e.  Form 2 is x > e off the index-two subgroup, or
    x > d; form 3 is the same with x > e on the subgroup."""
    above_e = Lt(e, Term.var(x))
    if form == 1:
        return above_e
    par = parity_predicate(theory, x)
    if form == 2:
        par = Not(par)
    return or_(and_(par, above_e), Lt(d, Term.var(x)))


def parity_predicate(theory: Theory, x: str = "x") -> Formula:
    """Membership in the index-two subgroup used by the three-case forms:
    D2(x) over Z x Q, D2(x) | D2(x + 1p) over Z x Z."""
    xv = Term.var(x)
    if theory == Theory.LEX_ZQ:
        return Div(2, xv)
    return or_(Div(2, xv), Div(2, xv + Term.const(1, "1p")))


def inequality_form(theory: Theory, n: int, a: Element) -> InequalityForm:
    """Decompose a = n*b + c with the coset index of c unique below n, then
    classify n*x > a: form 1 (x > e) when the index is zero, otherwise form
    2 or 3 by the parity of b, with d = b + first-unit and e = b."""
    if theory not in _LEX:
        raise UnsupportedTheoryError(f"inequality forms apply to lexicographic theories, not {theory.value}")
    if n < 1:
        raise ValueError("n must be positive")
    models.check_element(theory, a)
    a1, a2 = a
    i = a1 % n
    if theory == Theory.LEX_ZQ:
        b: Element = ((a1 - i) // n, Fraction(a2) / n)
    else:
        c2 = a2 % n
        b = ((a1 - i) // n, (a2 - c2) // n)
    if i == 0:
        return InequalityForm(1, None, b)
    d = (b[0] + 1, b[1])
    even = b[0] % 2 == 0
    return InequalityForm(2 if even else 3, d, b)


# ---------------------------------------------------------------------------
# Interval decomposition of S_n around a parameter (chain-of-classes model)


@dataclass(frozen=True)
class SnDecomposition:
    formula: Formula                 # in x, over witness variables
    witnesses: tuple[tuple[str, Element], ...]

    def witness_map(self) -> dict[str, Element]:
        return dict(self.witnesses)


def _s0_branch(x: str, even: bool, lo: Term, hi: Term) -> Formula:
    """The S_0 class of x between lo and hi: its P-part, or the complement."""
    px = Pred("P", None, (Term.var(x),))
    return and_(px if even else Not(px), Lt(lo, Term.var(x)), Lt(Term.var(x), hi))


def sn_decompose(a: Element, n: int, x: str = "x") -> SnDecomposition:
    """S_n(M, a) as intervals around shifted classes: for n = 0 the class of
    a is the P-part (or its complement) of (b, c) with b, c one class away;
    for n > 0 it is the union of the two class decompositions at distance n."""
    if n < 0:
        raise ValueError("distance must be >= 0")
    a1, alpha = a
    if n == 0:
        wit = (("zb", (a1 - 1, alpha)), ("zc", (a1 + 1, alpha)))
        return SnDecomposition(_s0_branch(x, a1 % 2 == 0, Term.var("zb"), Term.var("zc")), wit)
    even = (a1 - n) % 2 == 0  # both shifted classes share this parity
    wit = (
        ("zbd", (a1 - n - 1, alpha)),
        ("zcd", (a1 - n + 1, alpha)),
        ("zbe", (a1 + n - 1, alpha)),
        ("zce", (a1 + n + 1, alpha)),
    )
    f = or_(
        _s0_branch(x, even, Term.var("zbd"), Term.var("zcd")),
        _s0_branch(x, even, Term.var("zbe"), Term.var("zce")),
    )
    return SnDecomposition(f, wit)


# ---------------------------------------------------------------------------
# Witness specifications


@dataclass(frozen=True)
class TermWitness:
    """A definable witness: term over the parameters, divided by a positive
    integer (floor division over the discrete models, exact otherwise)."""

    term: Term
    divisor: int = 1
    floor: bool = False

    def describe(self) -> str:
        if self.divisor == 1:
            return str(self.term)
        if self.floor:
            return f"floor(({self.term}) / {self.divisor})"
        return f"({self.term}) / {self.divisor}"


@dataclass(frozen=True)
class ProcedureWitness:
    """A computable instance recipe: parameters to element, identified and
    compared by name."""

    name: str
    description: str
    recipe: Callable[[dict[str, Element]], Element] = field(compare=False, repr=False)

    def describe(self) -> str:
        return self.description


WitnessSpec = TermWitness | ProcedureWitness


def evaluate_witness(theory: Theory, spec: WitnessSpec, asg: dict[str, Element]) -> Element:
    if isinstance(spec, ProcedureWitness):
        return spec.recipe(asg)
    v = models.eval_term(theory, spec.term, asg)
    if spec.divisor == 1:
        return v
    if spec.floor:
        return v // spec.divisor
    return Fraction(v) / spec.divisor


# ---------------------------------------------------------------------------
# Decomposition structure


RhoAtom = tuple[str, int]  # ('eq' | 'below' | 'above', witness index)


@dataclass(frozen=True)
class Disjunct:
    phi: Formula
    psi: Formula
    rho: tuple[RhoAtom, ...]


@dataclass
class Decomposition:
    theory: Theory
    var: str
    params: tuple[str, ...]
    disjuncts: list[Disjunct]
    witnesses: list[WitnessSpec]

    def assignment(self, abar: tuple[Element, ...]) -> dict[str, Element]:
        """The parameters bound to abar, which gives one model element each."""
        if len(abar) != len(self.params):
            raise EvalError(f"expected {len(self.params)} parameter values, got {len(abar)}")
        for v in abar:
            models.check_element(self.theory, v)
        return dict(zip(self.params, abar))

    def check_shape(self) -> None:
        """Purely syntactic conformance: rho atoms in the three allowed
        forms, phi built from unary 0-definable predicates of x, psi free
        of x."""
        for d in self.disjuncts:
            for op, j in d.rho:
                if op not in ("eq", "below", "above"):
                    raise DecompositionError(f"bad rho constraint kind {op!r}")
                if not 0 <= j < len(self.witnesses):
                    raise DecompositionError(f"rho references missing witness {j}")
            if self.var in free_vars(d.psi):
                raise DecompositionError(f"psi mentions {self.var}: {print_formula(d.psi)}")
            _check_phi(d.phi, self.var)

    def to_json(self) -> dict:
        return {
            "var": self.var,
            "params": list(self.params),
            "disjuncts": [
                {
                    "phi": print_formula(d.phi),
                    "psi": print_formula(d.psi),
                    "rho": [_rho_text(self.var, op, j) for op, j in d.rho],
                }
                for d in self.disjuncts
            ],
            "witnesses": [
                {
                    "kind": "term" if isinstance(w, TermWitness) else "procedure",
                    "name": w.describe() if isinstance(w, TermWitness) else w.name,
                    "description": w.describe(),
                }
                for w in self.witnesses
            ],
            # selector formulas are folded into psi, never emitted as guards
            "selectors_folded_into_psi": True,
        }


def _rho_text(var: str, op: str, j: int) -> str:
    z = f"z{j + 1}"
    if op == "eq":
        return f"{var} = {z}"
    if op == "below":
        return f"{var} < {z}"
    return f"{z} < {var}"


def _check_phi(phi: Formula, var: str) -> None:
    match phi:
        case Bool():
            return
        case Not(arg):
            _check_phi(arg, var)
        case And(args) | Or(args):
            for a in args:
                _check_phi(a, var)
        case Div(_, t):
            if t.coeff(var) != 1 or t.variables() != {var}:
                raise DecompositionError(f"phi divisibility atom not unary in {var}: {phi}")
        case Pred(name, _, args):
            if name not in ("del", "P", "Qp"):
                raise DecompositionError(f"phi predicate {name!r} is not unary 0-definable")
            t = args[0]
            if t.coeff(var) != 1 or t.variables() != {var}:
                raise DecompositionError(f"phi predicate atom not unary in {var}: {phi}")
        case _:
            raise DecompositionError(f"phi contains a non-unary part: {phi}")


# ---------------------------------------------------------------------------
# The decompose pipeline


class _Registry:
    """Witness registry with deduplication and reserved rho variable names."""

    def __init__(self, taken: set[str]):
        self.specs: list[WitnessSpec] = []
        self._index: dict = {}
        base = "zw"
        while any(name == base or name.startswith(base) for name in taken):
            base += "z"
        self.base = base

    def add(self, spec: WitnessSpec) -> int:
        key = spec if isinstance(spec, TermWitness) else ("proc", spec.name)
        j = self._index.get(key)
        if j is None:
            j = len(self.specs)
            self.specs.append(spec)
            self._index[key] = j
        return j

    def name(self, j: int) -> str:
        return f"{self.base}{j + 1}"

    def var(self, spec: WitnessSpec) -> Term:
        """Register spec, once, and return the variable that stands for it."""
        return Term.var(self.name(self.add(spec)))

    def names(self) -> dict[str, int]:
        return {self.name(j): j for j in range(len(self.specs))}


def decompose(theory: Theory, theta: Formula, x: str) -> Decomposition:
    """Rewrite theta(x, ybar) into the disjunctive witnessed normal form.

    Pipeline: per-theory quantifier elimination, then atom classification:
    parameter-only atoms feed psi, unary predicate atoms in x feed phi, and
    mixed order/equality atoms are routed to rho against registered
    witnesses.  Lexicographic inputs must be quantifier-free.
    """
    params = tuple(sorted(free_vars(theta) - {x}))
    if x not in free_vars(theta):
        return Decomposition(theory, x, params, [Disjunct(TRUE, theta, ())], [])

    if theory in _LEX:
        if not is_quantifier_free(theta):
            raise DecompositionError(
                "lexicographic decomposition handles quantifier-free inputs only"
            )
        validate(theta, theory)
        qf: Formula = theta
    elif theory == Theory.DYADIC:
        raise UnsupportedTheoryError("no decomposition engine for dyadic")
    else:
        out = qe(theory, theta)
        assert not isinstance(out, ComponentFormula)
        qf = out

    taken = set(free_vars(qf)) | set(bound_vars(qf)) | {x}
    reg = _Registry(taken)

    replace = _REPLACERS[theory]

    def maybe_replace(a):
        s = solve_for(a, x)
        if isinstance(s, Solved) or x in free_vars(s):
            return replace(s, x, reg)
        return s

    g = map_atoms(qf, maybe_replace)
    g = simplify(to_nnf(g))

    rho_names = reg.names()
    # DNF conjuncts share literals; each is classified once
    rho_of = functools.cache(lambda lit: _rho_of(lit, x, rho_names))

    disjuncts: list[Disjunct] = []
    seen = set()
    for conj in dnf(g):
        phi_lits: list[Formula] = []
        psi_lits: list[Formula] = []
        rho: list[RhoAtom] = []
        for lit in conj:
            core = lit.arg if isinstance(lit, Not) else lit
            vs = free_vars(core)
            zs = vs & rho_names.keys()
            if zs:
                if isinstance(lit, Not):
                    raise DecompositionError(f"negated witness constraint survived NNF: {lit}")
                rho.append(rho_of(lit))
            elif x in vs:
                phi_lits.append(lit)
            else:
                psi_lits.append(lit)
        rho = sorted(set(rho))
        if len({j for _, j in rho}) < len(rho):
            continue  # x = z, x < z and z < x exclude each other: no point
        d = Disjunct(and_(*phi_lits), and_(*psi_lits), tuple(rho))
        key = (d.phi, d.psi, d.rho)
        if key not in seen:
            seen.add(key)
            disjuncts.append(d)
    if not disjuncts:
        disjuncts = [Disjunct(FALSE, FALSE, ())]
    dec = Decomposition(theory, x, params, disjuncts, reg.specs)
    dec.check_shape()
    return dec


_RHO_OPS = {"eq": "eq", "upper": "below", "lower": "above"}


def _rho_of(lit: Formula, x: str, rho_names: dict[str, int]) -> RhoAtom:
    match solve_for(lit, x):
        case Solved(kind, 1, t) if kind in _RHO_OPS:
            return (_RHO_OPS[kind], rho_names[t.coeffs[0][0]])
    raise DecompositionError(f"bad witness constraint {lit}")


# --- per-theory atom replacement -------------------------------------------


def _unary_div_residues(m: int, n: int, shift: Term, x: str) -> Formula:
    """D_m(n*x + shift) with constant shift, as a disjunction of unit-
    coefficient coset atoms D_m(x - j)."""
    c = dict(shift.consts).get("1", 0)
    branches = [Div(m, Term.var(x) - Term.const(j)) for j in range(m) if (n * j + c) % m == 0]
    return or_(*branches)


def _replace_pres(s, x: str, reg: _Registry) -> Formula:
    match s:
        case Solved("eq", 1, t):
            return Eq(Term.var(x), reg.var(TermWitness(t)))
        case Solved("eq", n, t):
            return and_(Div(n, t), Eq(Term.var(x), reg.var(TermWitness(t, n, floor=True))))
        case Solved("upper", n, t):
            # n*x < t: x < floor((t - 1 + n)/n)
            return Lt(Term.var(x), reg.var(TermWitness(t + Term.const(n - 1), n, floor=True)))
        case Solved("lower", n, t):
            # t < n*x: floor(t/n) < x
            return Lt(reg.var(TermWitness(t, n, floor=True)), Term.var(x))
        case Solved("div", n, t, m):
            if not t.variables():
                return _unary_div_residues(m, n, t, x)
            split = rewrite_divisibility(m, n, t, var=x)
            return map_atoms(
                split,
                lambda atom: _unary_div_residues(atom.modulus, atom.arg.coeff(x), atom.arg.drop_var(x), x)
                if isinstance(atom, Div) and x in free_vars(atom)
                else atom,
            )
    raise DecompositionError(f"unsupported integer atom {s}")


def _replace_dlo(a, x: str, reg: _Registry) -> Formula:
    if isinstance(a, Pred) and a.name == "Qp":
        return a
    return _replace_doag(a, x, reg)


def _replace_doag(s, x: str, reg: _Registry) -> Formula:
    match s:
        case Solved("eq", n, t):
            return Eq(Term.var(x), reg.var(TermWitness(t, n)))
        case Solved("upper", n, t):
            return Lt(Term.var(x), reg.var(TermWitness(t, n)))
        case Solved("lower", n, t):
            return Lt(reg.var(TermWitness(t, n)), Term.var(x))
    raise DecompositionError(f"unsupported order atom {s}")


def _shift_witness(u: str, delta_first: int) -> ProcedureWitness:
    def recipe(asg: dict[str, Element], _u=u, _d=delta_first) -> Element:
        a1, a2 = asg[_u]
        return (a1 + _d, a2)

    return ProcedureWitness(
        name=f"shift_first({u}, {delta_first:+d})",
        description=f"first coordinate of {u} shifted by {delta_first:+d}, second kept",
        recipe=recipe,
    )


def _replace_tchain(a, x: str, reg: _Registry) -> Formula:
    match a:
        case Pred("P", _, _):
            return a
        case Pred("S", n, (l, r)):
            # the S_0 class intervals of sn_decompose around the classes n
            # away from u's; P(x) agrees with P(u) exactly when n is even
            u = (r if l == Term.var(x) else l).coeffs[0][0]
            pu = Pred("P", None, (Term.var(u),))
            branches = []
            for shift in (0,) if n == 0 else (-n, n):
                lo = reg.var(_shift_witness(u, shift - 1))
                hi = reg.var(_shift_witness(u, shift + 1))
                branches.append(and_(pu, _s0_branch(x, n % 2 == 0, lo, hi)))
                branches.append(and_(Not(pu), _s0_branch(x, n % 2 == 1, lo, hi)))
            return or_(*branches)
    return _replace_doag(a, x, reg)


# --- lexicographic replacement ----------------------------------------------


def _first_resid_sel(theory: Theory, t: Term, r: int, modulus: int) -> Formula:
    """Selector: first coordinate of t is congruent to r modulo modulus."""
    if modulus == 1:
        return TRUE
    r %= modulus
    if theory == Theory.LEX_ZQ:
        return Div(modulus, t - Term.const(r, "1Z"))
    branches = []
    for s in range(modulus):
        shift = Term.const(r, "1pp") + Term.const(s, "1p")
        arg = t - shift
        branches.append(Div(modulus, arg))
    return or_(*branches)


def _lex_gt(theory: Theory, n: int, s: Term, x: str, reg: _Registry) -> Formula:
    """Replacement for s < n*x over a lexicographic product: the form of
    inequality_form that the first coordinate of s modulo 2n selects."""
    sname = str(s)

    def bound(which: str) -> Term:
        def recipe(asg: dict[str, Element]) -> Element:
            form = inequality_form(theory, n, models.eval_term(theory, s, asg))
            if which == "e":
                return form.e
            return form.d if form.d is not None else models.zero_element(theory)
        return reg.var(ProcedureWitness(
            name=f"gt_{which}(n={n}, t={sname})",
            description=f"bound {which} of the three-case form for {n}*{{x}} > {sname}",
            recipe=recipe,
        ))

    ze, zd = bound("e"), bound("d")
    branches = [and_(_first_resid_sel(theory, s, 0, n), _three_case(theory, 1, x, ze, zd))]
    for form, offset in ((2, 0), (3, n)):
        sel = or_(*(_first_resid_sel(theory, s, i + offset, 2 * n) for i in range(1, n)))
        branches.append(and_(sel, _three_case(theory, form, x, ze, zd)))
    return or_(*branches)


def _lex_eq(theory: Theory, n: int, s: Term, x: str, reg: _Registry) -> Formula:
    """Replacement for n*x = s."""
    if n == 1:
        return Eq(Term.var(x), reg.var(TermWitness(s)))
    sname = str(s)

    def recipe(asg: dict[str, Element]) -> Element:
        v = models.eval_term(theory, s, asg)
        a1, a2 = v
        if theory == Theory.LEX_ZQ:
            if a1 % n:
                return models.zero_element(theory)
            return (a1 // n, Fraction(a2) / n)
        if a1 % n or a2 % n:
            return models.zero_element(theory)
        return (a1 // n, a2 // n)

    guard = Div(n, s)
    spec = ProcedureWitness(
        name=f"solve(n={n}, t={sname})",
        description=f"the unique solution of {n}*{{x}} = {sname} when it exists",
        recipe=recipe,
    )
    return and_(guard, Eq(Term.var(x), reg.var(spec)))


def _lex_gt_coset(theory: Theory, n: int, t: Term, k: int, side: int,
                  x: str, reg: _Registry) -> Formula:
    """x lies above the coset with first coordinate j + side - 1, where
    j = (k - first(t))/n: the three-case form with e = (j + side - 1, 0) and
    d = e + first-unit, selected by the first coordinate of t modulo 2|n|."""
    tname = str(t)
    zero2 = models.zero_element(theory)[1]

    def edge(offset: int, description: str) -> Term:
        def recipe(asg: dict[str, Element]) -> Element:
            num = k - models.eval_term(theory, t, asg)[0]
            if num % n:
                return models.zero_element(theory)
            return (num // n + offset, zero2)
        return reg.var(ProcedureWitness(
            name=f"coset_edge(k={k}, n={n}, t={tname}, off={offset})",
            description=description,
            recipe=recipe,
        ))

    ze = edge(side - 1, "representative of the coset below/at the del-shifted class "
                        f"(offset {side - 1})")
    zd = edge(side, f"representative one class above (offset {side})")
    M = abs(n)
    residues: dict[int, list[int]] = {2: [], 3: []}
    for r in range(2 * M):
        if (k - r) % M == 0:
            j = (k - r) // n  # parity is invariant modulo 2M shifts of first(t)
            residues[2 if (j + side - 1) % 2 == 0 else 3].append(r)
    branches = []
    for form, rs in residues.items():
        sel = or_(*(_first_resid_sel(theory, t, r, 2 * M) for r in rs))
        branches.append(and_(sel, _three_case(theory, form, x, ze, zd)))
    return or_(*branches)


def _replace_lex(theory: Theory):
    units = ("1Z",) if theory == Theory.LEX_ZQ else ("1pp", "1p")

    def replace(a, x: str, reg: _Registry) -> Formula:
        match a:
            case Solved("eq", n, t):
                return _lex_eq(theory, n, t, x, reg)
            case Solved("lower", n, t):
                return _lex_gt(theory, n, t, x, reg)
            case Solved("upper", n, t):
                # n*x < t: neither above nor equal
                return and_(
                    to_nnf(Not(_lex_gt(theory, n, t, x, reg))),
                    to_nnf(Not(_lex_eq(theory, n, t, x, reg))),
                )
            case Solved("div", n, t, m):
                # x in the coset j of the units modulo m, t in the coset -n*j
                branches = []
                for js in itertools.product(range(m), repeat=len(units)):
                    coset = Term.make({}, dict(zip(units, js)))
                    sel = Term.make({}, {u: (-n * j) % m for u, j in zip(units, js)})
                    branches.append(and_(Div(m, Term.var(x) - coset), Div(m, t - sel)))
                return or_(*branches)
            case Pred("del", k, (arg,)):
                # signed: del_k(-t) is not del_k(t)
                n, t = arg.coeff(x), arg.drop_var(x)
                if n == 1 and not t.variables():
                    return a  # constant shift: still a unary coset atom about x
                M = abs(n)
                sel = _first_resid_sel(theory, t, k % M, M)
                lower = _lex_gt_coset(theory, n, t, k, 0, x, reg)
                upper = _lex_gt_coset(theory, n, t, k, 1, x, reg)
                return and_(sel, lower, to_nnf(Not(upper)))
        raise DecompositionError(f"unsupported lexicographic atom {a}")

    return replace


_REPLACERS = {
    Theory.PRES_Z: _replace_pres,
    Theory.PRES_N: _replace_pres,
    Theory.DLO_PRED: _replace_dlo,
    Theory.DOAG_Q: _replace_doag,
    Theory.TCHAIN: _replace_tchain,
    Theory.LEX_ZQ: _replace_lex(Theory.LEX_ZQ),
    Theory.LEX_ZZ: _replace_lex(Theory.LEX_ZZ),
}


# ---------------------------------------------------------------------------
# Witness evaluation and pointwise verification


def witnesses(theory: Theory, dec: Decomposition, abar: tuple[Element, ...]) -> tuple[Element, ...]:
    """Concrete witness tuple for a parameter tuple."""
    asg = dec.assignment(abar)
    return tuple(evaluate_witness(theory, spec, asg) for spec in dec.witnesses)


def _rho_holds(rho: tuple[RhoAtom, ...], xval: Element, zvals: tuple[Element, ...]) -> bool:
    for op, j in rho:
        z = zvals[j]
        if op == "eq" and xval != z:
            return False
        if op == "below" and not xval < z:
            return False
        if op == "above" and not z < xval:
            return False
    return True


@dataclass
class VerificationReport:
    theory: Theory
    var: str
    abar: tuple[Element, ...]
    total: int = 0
    agreements: int = 0
    mismatches: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return self.total > 0 and self.agreements == self.total

    def to_json(self) -> dict:
        return {
            "parameters": [models.format_element(v) for v in self.abar],
            "points_checked": self.total,
            "agreements": self.agreements,
            "passed": self.passed,
            "first_mismatches": [
                {"x": models.format_element(x), "theta": a, "chi": b}
                for x, a, b in self.mismatches[:5]
            ],
        }


def verify_decomposition(theory: Theory, theta: Formula, dec: Decomposition,
                         abar: tuple[Element, ...], w: Window,
                         scan_window: Window | None = None) -> VerificationReport:
    """Compare theta(x, abar) against the instantiated normal form at every
    window point; passes only on 100% agreement.

    Quantifiers inside theta search w; the scanned x-values default to the
    same window but may come from a coarser scan_window so that the finite
    oracle stays exact (witnesses for points at the fine window's own
    granularity would need denominators beyond it)."""
    asg = dec.assignment(abar)
    zvals = witnesses(theory, dec, abar)
    psi_vals = [models.eval_windowed(theory, d.psi, asg, w) for d in dec.disjuncts]
    phi_fns = [models.compile_eval(theory, d.phi) for d in dec.disjuncts]
    theta_fn = models.compile_eval(theory, theta, w)

    report = VerificationReport(theory, dec.var, abar)
    for xval in models.enumerate_window(theory, scan_window or w):
        point = dict(asg)
        point[dec.var] = xval
        lhs = theta_fn(point)
        rhs = any(
            psi_vals[i]
            and phi_fns[i]({dec.var: xval})
            and _rho_holds(d.rho, xval, zvals)
            for i, d in enumerate(dec.disjuncts)
        )
        report.total += 1
        if lhs == rhs:
            report.agreements += 1
        else:
            report.mismatches.append((xval, lhs, rhs))
    return report
