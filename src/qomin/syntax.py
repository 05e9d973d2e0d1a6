"""First-order syntax for the supported ordered-group theories.

Terms are linear: integer coefficients on variables plus integer multiples
of the signature's constant symbols.  Atoms cover order, equality, modular
divisibility D_m, and the indexed predicate families (Qp, P, S_n, del_k).
Formulas are trees over atoms with the usual connectives and quantifiers.
Everything is immutable; every operation here is pure.  The node classes
(terms, atoms, truth values, connectives, quantifiers) are declared by
`_node`: slotted frozen dataclasses that compute their hash and their free
variables once.
"""

from __future__ import annotations

import enum
import re
from dataclasses import MISSING, FrozenInstanceError, dataclass, fields
from typing import Callable, Iterator, Mapping, NamedTuple

from .errors import ParseError, SignatureError


class Theory(enum.Enum):
    DLO_PRED = "dlo_pred"   # dense order with a dense/codense predicate Qp
    PRES_Z = "pres_z"       # ordered group of integers with D_m
    PRES_N = "pres_n"       # ordered semigroup of naturals, via relativization
    DOAG_Q = "doag_q"       # divisible ordered group of rationals
    LEX_ZQ = "lex_zq"       # Z x Q, lexicographic
    LEX_ZZ = "lex_zz"       # Z x Z, lexicographic
    TCHAIN = "tchain"       # dense classes on a discrete chain, P alternating
    DYADIC = "dyadic"       # additive group of dyadic rationals

    @classmethod
    def from_name(cls, name: str) -> "Theory":
        try:
            return cls(name.lower())
        except ValueError:
            raise SignatureError(f"unknown theory {name!r}") from None


# Per-theory signature: which constant symbols, whether +/- are present,
# whether D_m is present, and the admissible predicate names.
_SIGNATURE = {
    Theory.DLO_PRED: dict(consts=frozenset(), group=False, div=False, preds=frozenset({"Qp"})),
    Theory.PRES_Z: dict(consts=frozenset({"1"}), group=True, div=True, preds=frozenset()),
    Theory.PRES_N: dict(consts=frozenset({"1"}), group=True, div=True, preds=frozenset()),
    # The type roster gives DOAG_Q/DYADIC the bare group signature, but the
    # interval/QE operations are specified on formulas such as "x + x > 1";
    # integer numerals are therefore admitted as constants here.
    Theory.DOAG_Q: dict(consts=frozenset({"1"}), group=True, div=False, preds=frozenset()),
    Theory.DYADIC: dict(consts=frozenset({"1"}), group=True, div=False, preds=frozenset()),
    Theory.LEX_ZQ: dict(consts=frozenset({"1Z"}), group=True, div=True, preds=frozenset({"del"})),
    Theory.LEX_ZZ: dict(consts=frozenset({"1p", "1pp"}), group=True, div=True, preds=frozenset({"del"})),
    Theory.TCHAIN: dict(consts=frozenset(), group=False, div=False, preds=frozenset({"P", "S"})),
}

_VAR_RE = re.compile(r"[a-z][a-z0-9_]*")
_RESERVED = {"true", "false"}


# ---------------------------------------------------------------------------
# Node declaration


class _Hashed:
    """A cache slot for the hash, None until first asked for."""

    __slots__ = ("_hash",)


class _Node(_Hashed):
    """A formula node: a cache slot for its free variables as well."""

    __slots__ = ("_fv",)


_set_hash = _Hashed._hash.__set__
_set_fv = _Node._fv.__set__

# Equal free-variable sets share one object; bounded, since a long-lived
# process may meet ever new names.
_SHARED_VARS: dict[frozenset[str], frozenset[str]] = {}
_SHARED_VARS_CAP = 1 << 16


def _share(vs: frozenset[str]) -> frozenset[str]:
    shared = _SHARED_VARS.get(vs)
    if shared is None:
        if len(_SHARED_VARS) >= _SHARED_VARS_CAP:
            _SHARED_VARS.clear()
        shared = _SHARED_VARS[vs] = vs
    return shared


def _frozen_setattr(self, name, value):
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _frozen_delattr(self, name):
    raise FrozenInstanceError(f"cannot delete field {name!r}")


def _node(cls):
    """Declare a node class: a slotted frozen dataclass (class-sensitive ==,
    repr, __match_args__) with three methods of its own.  __init__ sets the
    slots through their descriptors, not through the frozen __setattr__;
    __hash__ is computed on first use and kept; __reduce__ pickles and
    copies through the constructor, so a copy starts with empty caches.
    Assigning to any attribute raises FrozenInstanceError (the dataclass's
    own frozen __setattr__ raises TypeError on a slotted class for a
    non-field name).  The dataclass writes no __init__, and each node class
    has a docstring, so that it computes no signature for a docstring
    either: both would only add import time."""
    cls = dataclass(frozen=True, slots=True, init=False)(cls)
    cls.__setattr__, cls.__delattr__ = _frozen_setattr, _frozen_delattr
    ns = {"set_hash": _set_hash, "set_fv": _set_fv}
    params, sets = [], []
    for f in fields(cls):
        ns[f"set_{f.name}"] = getattr(cls, f.name).__set__
        ns[f"default_{f.name}"] = f.default
        params.append(f.name if f.default is MISSING else f"{f.name}=default_{f.name}")
        sets.append(f"set_{f.name}(self, {f.name})")
    sets += ["set_hash(self, None)"] + (["set_fv(self, None)"] if issubclass(cls, _Node) else [])
    if hasattr(cls, "__post_init__"):
        sets.append("self.__post_init__()")
    values = "".join(f"self.{f.name}, " for f in fields(cls))
    exec(f"def __init__(self, {', '.join(params)}):\n    " + "\n    ".join(sets) + f"""
def __hash__(self):
    h = self._hash
    if h is None:
        h = hash(({values}))
        set_hash(self, h)
    return h
def __reduce__(self):
    return (self.__class__, ({values}))
""", ns)
    for name in ("__init__", "__hash__", "__reduce__"):
        ns[name].__qualname__ = f"{cls.__qualname__}.{name}"
        setattr(cls, name, ns[name])
    return cls


# ---------------------------------------------------------------------------
# Terms


@_node
class Term(_Hashed):
    """Canonical linear term: sorted (var, coeff) pairs plus (const, coeff) pairs.

    Invariant: each tuple is sorted by name, with each name once and no zero
    coefficient, so equal terms have equal tuples and equal variable parts
    equal coeffs.  The arithmetic relies on it and keeps it; a direct
    Term(...) call must pass canonical tuples.
    """

    coeffs: tuple[tuple[str, int], ...] = ()
    consts: tuple[tuple[str, int], ...] = ()

    @staticmethod
    def make(coeffs: Mapping[str, int] | None = None, consts: Mapping[str, int] | None = None) -> "Term":
        cs = tuple(sorted((v, c) for v, c in (coeffs or {}).items() if c != 0))
        ks = tuple(sorted((s, c) for s, c in (consts or {}).items() if c != 0))
        return Term(cs, ks)

    @staticmethod
    def var(name: str, coeff: int = 1) -> "Term":
        return Term.make({name: coeff})

    @staticmethod
    def const(coeff: int, symbol: str = "1") -> "Term":
        return Term.make({}, {symbol: coeff})

    @staticmethod
    def zero() -> "Term":
        return Term()

    def coeff(self, var: str) -> int:
        for v, c in self.coeffs:
            if v == var:
                return c
        return 0

    def variables(self) -> frozenset[str]:
        return frozenset([v for v, _ in self.coeffs])

    def __add__(self, other: "Term") -> "Term":
        return Term(_combine(self.coeffs, other.coeffs, 1), _combine(self.consts, other.consts, 1))

    def __sub__(self, other: "Term") -> "Term":
        return Term(_combine(self.coeffs, other.coeffs, -1), _combine(self.consts, other.consts, -1))

    def __neg__(self) -> "Term":
        return self.scale(-1)

    def scale(self, n: int) -> "Term":
        if n == 1:
            return self
        if n == 0:
            return Term()
        return Term(
            tuple([(v, c * n) for v, c in self.coeffs]),
            tuple([(s, c * n) for s, c in self.consts]),
        )

    def drop_var(self, var: str) -> "Term":
        return Term(tuple((v, c) for v, c in self.coeffs if v != var), self.consts)

    def subst(self, bindings: Mapping[str, "Term"]) -> "Term":
        out = Term.make({v: c for v, c in self.coeffs if v not in bindings}, dict(self.consts))
        for v, c in self.coeffs:
            if v in bindings:
                out = out + bindings[v].scale(c)
        return out

    def __str__(self) -> str:
        parts: list[tuple[int, str]] = []
        for v, c in self.coeffs:
            parts.append((c, v))
        for s, c in self.consts:
            parts.append((c, "" if s == "1" else s))
        if not parts:
            return "0"
        pieces = []
        for i, (c, sym) in enumerate(parts):
            mag = abs(c)
            if sym == "":
                body = str(mag)
            elif mag == 1:
                body = sym
            else:
                body = f"{mag}*{sym}"
            if i == 0:
                pieces.append(("-" if c < 0 else "") + body)
            else:
                pieces.append(("- " if c < 0 else "+ ") + body)
        return " ".join(pieces)


def _combine(a: tuple[tuple[str, int], ...], b: tuple[tuple[str, int], ...],
             k: int) -> tuple[tuple[str, int], ...]:
    """The canonical pairs of a + k*b, for canonical a and b and k != 0."""
    if not b:
        return a
    if not a:
        return b if k == 1 else tuple([(name, k * c) for name, c in b])
    out = dict(a)
    for name, c in b:
        out[name] = out.get(name, 0) + k * c
    return tuple(sorted([p for p in out.items() if p[1]]))


# ---------------------------------------------------------------------------
# Atoms and formulas


@_node
class Lt(_Node):
    """left < right."""

    left: Term
    right: Term

    def __str__(self) -> str:
        return f"{self.left} < {self.right}"


@_node
class Eq(_Node):
    """left = right."""

    left: Term
    right: Term

    def __str__(self) -> str:
        return f"{self.left} = {self.right}"


@_node
class Div(_Node):
    """D_m(t): the modulus m divides t.  Requires m >= 2."""

    modulus: int
    arg: Term

    def __post_init__(self):
        if self.modulus < 2:
            raise ValueError("divisibility modulus must be >= 2")

    def __str__(self) -> str:
        return f"D{self.modulus}({self.arg})"


@_node
class Pred(_Node):
    """Named predicate atom: Qp(t), P(t), S_n(t, s), del_k(t)."""

    name: str
    index: int | None
    args: tuple[Term, ...]

    def __str__(self) -> str:
        inner = ", ".join(str(a) for a in self.args)
        idx = "" if self.index is None else str(self.index)
        return f"{self.name}{idx}({inner})"


Atom = Lt | Eq | Div | Pred


@_node
class Bool(_Node):
    """A truth value, true or false."""

    value: bool

    def __str__(self) -> str:
        return "true" if self.value else "false"


TRUE = Bool(True)
FALSE = Bool(False)


@_node
class Not(_Node):
    """Negation."""

    arg: "Formula"


@_node
class And(_Node):
    """Conjunction of two or more formulas."""

    args: tuple["Formula", ...]


@_node
class Or(_Node):
    """Disjunction of two or more formulas."""

    args: tuple["Formula", ...]


@_node
class Implies(_Node):
    """left -> right."""

    left: "Formula"
    right: "Formula"


@_node
class Iff(_Node):
    """left <-> right."""

    left: "Formula"
    right: "Formula"


@_node
class Exists(_Node):
    """E var. body."""

    var: str
    body: "Formula"


@_node
class Forall(_Node):
    """A var. body."""

    var: str
    body: "Formula"


Formula = Atom | Bool | Not | And | Or | Implies | Iff | Exists | Forall


def and_(*args: Formula) -> Formula:
    """Flattening conjunction with unit folding."""
    flat: list[Formula] = []
    for a in args:
        if isinstance(a, And):
            flat.extend(a.args)
        elif isinstance(a, Bool):
            if not a.value:
                return FALSE
        else:
            flat.append(a)
    if not flat:
        return TRUE
    if len(flat) == 1:
        return flat[0]
    return And(tuple(flat))


def or_(*args: Formula) -> Formula:
    flat: list[Formula] = []
    for a in args:
        if isinstance(a, Or):
            flat.extend(a.args)
        elif isinstance(a, Bool):
            if a.value:
                return TRUE
        else:
            flat.append(a)
    if not flat:
        return FALSE
    if len(flat) == 1:
        return flat[0]
    return Or(tuple(flat))


def atoms(f: Formula) -> Iterator[Atom]:
    match f:
        case Lt() | Eq() | Div() | Pred():
            yield f
        case Bool():
            return
        case Not(arg):
            yield from atoms(arg)
        case And(args) | Or(args):
            for a in args:
                yield from atoms(a)
        case Implies(l, r) | Iff(l, r):
            yield from atoms(l)
            yield from atoms(r)
        case Exists(_, body) | Forall(_, body):
            yield from atoms(body)


def free_vars(f: Formula) -> frozenset[str]:
    """The free variables of f, computed once per node; equal sets are one
    shared object."""
    fv = f._fv
    if fv is not None:
        return fv
    match f:
        case Lt(l, r) | Eq(l, r):
            fv = frozenset([v for v, _ in l.coeffs + r.coeffs])
        case Div(_, t):
            fv = frozenset([v for v, _ in t.coeffs])
        case Pred(_, _, args):
            fv = frozenset([v for t in args for v, _ in t.coeffs])
        case Not(arg):
            fv = free_vars(arg)
        case And(args) | Or(args):
            fv = frozenset().union(*[free_vars(a) for a in args])
        case Implies(l, r) | Iff(l, r):
            fv = free_vars(l) | free_vars(r)
        case Exists(v, body) | Forall(v, body):
            fv = free_vars(body) - {v}
        case Bool():
            fv = frozenset()
    fv = _share(fv)
    _set_fv(f, fv)
    return fv


def bound_vars(f: Formula) -> frozenset[str]:
    match f:
        case Not(arg):
            return bound_vars(arg)
        case And(args) | Or(args):
            out: frozenset[str] = frozenset()
            for a in args:
                out |= bound_vars(a)
            return out
        case Implies(l, r) | Iff(l, r):
            return bound_vars(l) | bound_vars(r)
        case Exists(v, body) | Forall(v, body):
            return bound_vars(body) | {v}
        case _:
            return frozenset()


def is_quantifier_free(f: Formula) -> bool:
    match f:
        case Exists() | Forall():
            return False
        case Not(arg):
            return is_quantifier_free(arg)
        case And(args) | Or(args):
            return all(is_quantifier_free(a) for a in args)
        case Implies(l, r) | Iff(l, r):
            return is_quantifier_free(l) and is_quantifier_free(r)
        case _:
            return True


def fresh_name(base: str, taken: set[str]) -> str:
    if base not in taken and base not in _RESERVED:
        return base
    i = 1
    while f"{base}_{i}" in taken:
        i += 1
    return f"{base}_{i}"


def rebuild(f: Formula, fn: Callable[[Formula], Formula]) -> Formula:
    """f's node rebuilt from fn applied to each of its children, in order;
    an atom or a truth value comes back unchanged."""
    match f:
        case Not(arg):
            return Not(fn(arg))
        case And(args) | Or(args):
            return type(f)(tuple(fn(a) for a in args))
        case Implies(l, r) | Iff(l, r):
            return type(f)(fn(l), fn(r))
        case Exists(v, body) | Forall(v, body):
            return type(f)(v, fn(body))
    return f


def standardize(f: Formula) -> Formula:
    """Alpha-rename binders so every bound name is unique and disjoint from
    the free variables.  Idempotent: already-standard names are kept, and
    env holds only the names that change."""
    taken = set(free_vars(f))

    def walk(g: Formula, env: dict[str, Term]) -> Formula:
        match g:
            case Lt() | Eq() | Div() | Pred():
                return _map_atom_terms(g, lambda t: t.subst(env)) if env else g
            case Exists(v, body) | Forall(v, body):
                name = fresh_name(v, taken)
                taken.add(name)
                env2 = {u: t for u, t in env.items() if u != v}
                if name != v:
                    env2[v] = Term.var(name)
                return type(g)(name, walk(body, env2))
        return rebuild(g, lambda h: walk(h, env))

    return walk(f, {})


def _map_atom_terms(a: Atom, fn) -> Atom:
    match a:
        case Lt(l, r):
            return Lt(fn(l), fn(r))
        case Eq(l, r):
            return Eq(fn(l), fn(r))
        case Div(m, t):
            return Div(m, fn(t))
        case Pred(name, idx, args):
            return Pred(name, idx, tuple(fn(t) for t in args))


def map_atoms(f: Formula, fn) -> Formula:
    """Rebuild f with fn applied to every atom (fn returns a Formula)."""
    match f:
        case Lt() | Eq() | Div() | Pred():
            return fn(f)
    return rebuild(f, lambda g: map_atoms(g, fn))


def substitute(f: Formula, bindings: Mapping[str, Term]) -> Formula:
    """Capture-avoiding simultaneous substitution of terms for free variables."""
    bindings = {v: t for v, t in bindings.items()}
    if not bindings:
        return f
    clash = set()
    for t in bindings.values():
        clash |= t.variables()

    def walk(g: Formula, env: dict[str, Term]) -> Formula:
        match g:
            case Lt() | Eq() | Div() | Pred():
                return _map_atom_terms(g, lambda t: t.subst(env))
            case Exists(v, body) | Forall(v, body):
                env2 = {u: t for u, t in env.items() if u != v}
                name = v
                if env2 and v in clash:
                    taken = set(free_vars(body)) | clash | set(env2)
                    name = fresh_name(v, taken)
                    body = walk(body, {v: Term.var(name)})
                return type(g)(name, walk(body, env2) if env2 else body)
        return rebuild(g, lambda h: walk(h, env))

    return walk(f, bindings)


def negate_atom(a: Atom, integer: bool = False) -> Formula:
    """Negation-normal rewriting of a negated atom.

    Order and equality use trichotomy of the linear order, except that over
    the integers ~(l < r) is the single atom r < l + 1; divisibility and
    predicate atoms stay as negated literals.
    """
    match a:
        case Lt(l, r) if integer:
            return Lt(r, l + Term.const(1))
        case Lt(l, r):
            return or_(Lt(r, l), Eq(r, l))
        case Eq(l, r):
            return or_(Lt(l, r), Lt(r, l))
        case _:
            return Not(a)


class Solved(NamedTuple):
    """A literal solved for a variable v, with a > 0 and t free of v.

    kind 'upper' is a*v < t, 'lower' is t < a*v, 'eq' is a*v = t, and 'div'
    is D_m(a*v + t), or its negation when positive is False.
    """

    kind: str
    a: int
    t: Term
    m: int = 0
    positive: bool = True


def solve_for(lit: Formula, v: str) -> Solved | Formula:
    """Solve an order, equality or divisibility literal for v.

    A literal that does not mention v, or that has another shape, comes back
    unchanged.  When v's coefficients cancel (u + y < u + z) the v-free
    literal l - r < 0 or l - r = 0 comes back; only Lt and Eq can cancel,
    because Term drops zero coefficients.  Otherwise the solved term is
    built in one pass over the pairs of l - r (or of r - l, when v's
    coefficient in l - r is positive).
    """
    match lit:
        case Lt(l, r) | Eq(l, r):
            lc, rc = l.coeff(v), r.coeff(v)
            if lc == rc:
                return lit if lc == 0 else type(lit)(l - r, Term.zero())
            n = lc - rc
            if n > 0:
                l, r = r, l
            t = Term(tuple([p for p in _combine(l.coeffs, r.coeffs, -1) if p[0] != v]),
                     _combine(l.consts, r.consts, -1))
            if isinstance(lit, Eq):
                return Solved("eq", abs(n), t)
            return Solved("upper", n, t) if n > 0 else Solved("lower", -n, t)
        case Div(m, arg) | Not(Div(m, arg)):
            n = arg.coeff(v)
            if n == 0:
                return lit
            k = 1 if n > 0 else -1
            t = Term(tuple([(x, k * c) for x, c in arg.coeffs if x != v]),
                     arg.consts if k == 1 else tuple([(x, -c) for x, c in arg.consts]))
            return Solved("div", abs(n), t, m, isinstance(lit, Div))
    return lit


def to_nnf(f: Formula, int_var: Callable[[str], bool] = lambda v: False) -> Formula:
    """Negation normal form; ->/<-> expanded, double negations removed.

    int_var tells which variables have integer sort: a negated order atom
    on any of them is negated over the integers (see negate_atom).
    """

    def pos(g: Formula) -> Formula:
        match g:
            case Lt() | Eq() | Div() | Pred() | Bool():
                return g
            case Not(arg):
                return neg(arg)
            case And(args):
                return and_(*(pos(a) for a in args))
            case Or(args):
                return or_(*(pos(a) for a in args))
            case Implies(l, r):
                return or_(neg(l), pos(r))
            case Iff(l, r):
                return or_(and_(pos(l), pos(r)), and_(neg(l), neg(r)))
            case Exists(v, body):
                return Exists(v, pos(body))
            case Forall(v, body):
                return Forall(v, pos(body))

    def neg(g: Formula) -> Formula:
        match g:
            case Bool(b):
                return FALSE if b else TRUE
            case Lt(l, r):
                return negate_atom(g, any(int_var(v) for v, _ in l.coeffs + r.coeffs))
            case Eq() | Div() | Pred():
                return negate_atom(g)
            case Not(arg):
                return pos(arg)
            case And(args):
                return or_(*(neg(a) for a in args))
            case Or(args):
                return and_(*(neg(a) for a in args))
            case Implies(l, r):
                return and_(pos(l), neg(r))
            case Iff(l, r):
                return or_(and_(pos(l), neg(r)), and_(neg(l), pos(r)))
            case Exists(v, body):
                return Forall(v, neg(body))
            case Forall(v, body):
                return Exists(v, neg(body))

    return pos(f)


# ---------------------------------------------------------------------------
# Signature validation


def validate(f: Formula, theory: Theory) -> None:
    """Reject any symbol outside the theory's signature."""
    sig = _SIGNATURE[theory]

    def check_term(t: Term, where: Atom) -> None:
        for s, _ in t.consts:
            if s not in sig["consts"]:
                raise SignatureError(f"constant {s!r} not in the {theory.value} signature ({where})")
        if not sig["group"]:
            # order-only signatures: terms must be bare variables
            if t.consts or len(t.coeffs) != 1 or t.coeffs[0][1] != 1:
                raise SignatureError(
                    f"theory {theory.value} has no group operations; term {t} is not a variable ({where})"
                )

    def check_atom(a: Atom) -> None:
        match a:
            case Lt(l, r) | Eq(l, r):
                check_term(l, a)
                check_term(r, a)
            case Div(m, t):
                if not sig["div"]:
                    raise SignatureError(f"divisibility D{m} not in the {theory.value} signature")
                check_term(t, a)
            case Pred(name, idx, args):
                if name not in sig["preds"]:
                    raise SignatureError(f"predicate {name!r} not in the {theory.value} signature")
                arity = 2 if name == "S" else 1
                if len(args) != arity:
                    raise SignatureError(f"predicate {name!r} expects {arity} argument(s)")
                if name in ("S", "del") and (idx is None or idx < 0):
                    raise SignatureError(f"predicate {name!r} requires a non-negative index")
                if name in ("Qp", "P") and idx is not None:
                    raise SignatureError(f"predicate {name!r} takes no index")
                for t in args:
                    check_term(t, a)

    for a in atoms(f):
        check_atom(a)


# ---------------------------------------------------------------------------
# Printer

# precedence: quantifier 0 < iff 1 < implies 2 < or 3 < and 4 < not 5 < atom 6
def _prec(f: Formula) -> int:
    match f:
        case Exists() | Forall():
            return 0
        case Iff():
            return 1
        case Implies():
            return 2
        case Or():
            return 3
        case And():
            return 4
        case Not():
            return 5
        case _:
            return 6


def print_formula(f: Formula) -> str:
    """Render a formula in the concrete grammar; parse(print(f)) == f."""

    def wrap(g: Formula, parent: int) -> str:
        s = go(g)
        if _prec(g) < parent:
            return f"({s})"
        return s

    def go(g: Formula) -> str:
        match g:
            case Bool():
                return str(g)
            case Lt() | Eq() | Div() | Pred():
                return str(g)
            case Not(arg):
                if _prec(arg) == 6 and not isinstance(arg, (Div, Pred, Bool)):
                    return f"~({go(arg)})"
                return f"~{wrap(arg, 5)}"
            case And(args):
                return " & ".join(wrap(a, 5) for a in args)
            case Or(args):
                return " | ".join(wrap(a, 4) for a in args)
            case Implies(l, r):
                return f"{wrap(l, 3)} -> {wrap(r, 2)}"
            case Iff(l, r):
                return f"{wrap(l, 2)} <-> {wrap(r, 1)}"
            case Exists(v, body):
                return f"E {v}. {go(body)}"
            case Forall(v, body):
                return f"A {v}. {go(body)}"

    return go(f)


# ---------------------------------------------------------------------------
# Lexer / parser

# constant symbols, integers, names and operators, in the order of priority;
# whitespace matches nothing, so `findall` drops it
_TOKEN_RE = re.compile(
    r"1Z|1pp|1p(?![a-z0-9_])|\d+|[a-zA-Z][a-zA-Z0-9_]*|<->|->|<=|>=|[~&|()<>=+\-*,.]"
)
_CONST_TOKENS = frozenset({"1Z", "1p", "1pp"})
_INDEXED_PRED_RE = re.compile(r"(D|S|del)(\d+)")
_RELATIONS = frozenset({"=", "<", ">", "<=", ">="})


def _tokenize(text: str) -> list[str]:
    """The tokens of text, then "" for the end of the input."""
    toks = _TOKEN_RE.findall(text)
    if "".join(toks) != "".join(text.split()):
        # findall skipped a character that starts no token: find the first
        pos = 0
        for m in _TOKEN_RE.finditer(text):
            if text[pos:m.start()].strip():
                break
            pos = m.end()
        while text[pos].isspace():
            pos += 1
        raise ParseError(f"unexpected character {text[pos]!r}", pos)
    toks.append("")
    return toks


def _position(text: str, i: int) -> int:
    """Where the i-th token of text starts; the end of text for the end of
    the input, the token after the last."""
    for n, m in enumerate(_TOKEN_RE.finditer(text)):
        if n == i:
            return m.start()
    return len(text)


class _Parser:
    """Recursive descent over the tokens in one pass.  Each term is summed
    into one coefficient map.  The parser makes the signature checks of
    `validate` as it builds each atom; the bare-variable check of the
    order-only theories is raised only once the whole text has parsed, as
    `validate` after the parse would raise it.  It also records the binder
    names and the names that occur free, for `parse` to decide whether
    binders need renaming apart."""

    def __init__(self, text: str, theory: Theory):
        self.text = text
        self.toks = _tokenize(text)
        self.i = 0
        self.theory = theory
        sig = _SIGNATURE[theory]
        self.consts, self.preds = sig["consts"], sig["preds"]
        self.group, self.div = sig["group"], sig["div"]
        self.scope: list[str] = []   # the binders around the current token
        self.binders: set[str] = set()
        self.free: set[str] = set()
        self.repeated = False        # some binder name is bound twice
        self.not_a_variable: SignatureError | None = None

    def fail(self, message: str, i: int):
        raise ParseError(message, _position(self.text, i))

    def expect(self, value: str) -> None:
        tok = self.toks[self.i]
        if tok != value:
            self.fail(f"expected {value!r}, found {tok!r}", self.i)
        self.i += 1

    def parse(self) -> Formula:
        f = self.iff()
        tok = self.toks[self.i]
        if tok:
            self.fail(f"trailing input {tok!r}", self.i)
        if self.not_a_variable is not None:
            raise self.not_a_variable
        return f

    # formula := iff
    def iff(self) -> Formula:
        left = self.implies()
        if self.toks[self.i] == "<->":
            self.i += 1
            return Iff(left, self.iff())
        return left

    def implies(self) -> Formula:
        left = self.disj()
        if self.toks[self.i] == "->":
            self.i += 1
            return Implies(left, self.implies())
        return left

    def disj(self) -> Formula:
        f = self.conj()
        if self.toks[self.i] != "|":
            return f
        parts = [f]
        while self.toks[self.i] == "|":
            self.i += 1
            parts.append(self.conj())
        return Or(tuple(parts))

    def conj(self) -> Formula:
        f = self.unary()
        if self.toks[self.i] != "&":
            return f
        parts = [f]
        while self.toks[self.i] == "&":
            self.i += 1
            parts.append(self.unary())
        return And(tuple(parts))

    def unary(self) -> Formula:
        tok = self.toks[self.i]
        if tok == "~":
            self.i += 1
            return Not(self.unary())
        if tok == "E" or tok == "A":
            self.i += 1
            v = self.toks[self.i]
            if not _VAR_RE.fullmatch(v) or v in _RESERVED:
                self.fail(f"bad quantified variable {v!r}", self.i)
            self.i += 1
            self.expect(".")
            if v in self.binders:
                self.repeated = True
            self.binders.add(v)
            self.scope.append(v)
            body = self.iff()
            self.scope.pop()
            return Exists(v, body) if tok == "E" else Forall(v, body)
        return self.primary()

    def primary(self) -> Formula:
        tok = self.toks[self.i]
        if tok == "(":
            self.i += 1
            f = self.iff()
            self.expect(")")
            return f
        if tok == "true" or tok == "false":
            self.i += 1
            return TRUE if tok == "true" else FALSE
        if tok[:1].isalpha() and self.toks[self.i + 1] == "(":
            pf = self.pred_atom(tok)
            if pf is not None:
                return pf
        return self.relation()

    def pred_atom(self, tok: str) -> Formula | None:
        if tok == "Qp" or tok == "P":
            name, idx = tok, None
        else:
            m = _INDEXED_PRED_RE.fullmatch(tok)
            if m is None:
                return None
            name, idx = m.group(1), int(m.group(2))
            if name == "D" and idx < 2:
                self.fail(f"divisibility modulus must be >= 2, got {idx}", self.i)
        self.i += 2  # the name and "("
        args = [self.term()]
        if name == "S":
            self.expect(",")
            args.append(self.term())
        self.expect(")")
        if name == "D":
            if not self.div:
                raise SignatureError(f"divisibility D{idx} not in the {self.theory.value} signature")
            return Div(idx, args[0])
        if name not in self.preds:
            raise SignatureError(f"predicate {name!r} not in the {self.theory.value} signature")
        atom = Pred(name, idx, tuple(args))
        if not self.group:
            self.bare_variables(atom, args)
        return atom

    def relation(self) -> Formula:
        left = self.term()
        op = self.toks[self.i]
        if op not in _RELATIONS:
            self.fail(f"expected a relation symbol, found {op!r}", self.i)
        self.i += 1
        right = self.term()
        if op == "=":
            atom = Eq(left, right)
        elif op == "<" or op == "<=":
            atom = Lt(left, right)
        else:
            left, right = right, left
            atom = Lt(left, right)
        if not self.group:
            self.bare_variables(atom, (left, right))
        return atom if len(op) == 1 else Or((atom, Eq(left, right)))

    def bare_variables(self, atom: Atom, terms) -> None:
        """Note the first term, in the order `validate` checks them, that is
        not a bare variable in an order-only theory."""
        if self.not_a_variable is None:
            for t in terms:
                if t.consts or len(t.coeffs) != 1 or t.coeffs[0][1] != 1:
                    self.not_a_variable = SignatureError(
                        f"theory {self.theory.value} has no group operations; "
                        f"term {t} is not a variable ({atom})")
                    return

    # term := summand (('+'|'-') summand)*
    def term(self) -> Term:
        coeffs: dict[str, int] = {}
        consts: dict[str, int] = {}
        self.summand(1, coeffs, consts)
        toks = self.toks
        while (op := toks[self.i]) == "+" or op == "-":
            self.i += 1
            self.summand(1 if op == "+" else -1, coeffs, consts)
        return Term(tuple(sorted([p for p in coeffs.items() if p[1]])),
                    tuple(sorted([p for p in consts.items() if p[1]])))

    # summand := '-' summand | int '*' summand | int | constant | variable;
    # adds k times its value into coeffs and consts
    def summand(self, k: int, coeffs: dict[str, int], consts: dict[str, int]) -> None:
        toks = self.toks
        while True:
            tok = toks[self.i]
            if tok == "-":
                self.i += 1
                k = -k
                continue
            first = tok[:1]
            if first.isdigit():
                self.i += 1
                if tok in _CONST_TOKENS:
                    if tok not in self.consts:
                        raise SignatureError(
                            f"constant {tok!r} not in the {self.theory.value} signature")
                    consts[tok] = consts.get(tok, 0) + k
                    return
                n = int(tok)
                if toks[self.i] == "*":
                    self.i += 1
                    k *= n
                    continue
                if n:
                    if "1" not in self.consts:
                        raise SignatureError(f"numeral {n} not expressible: theory "
                                             f"{self.theory.value} has no unit constant")
                    consts["1"] = consts.get("1", 0) + k * n
                return
            if first.isalpha():
                if not _VAR_RE.fullmatch(tok) or tok in _RESERVED:
                    self.fail(f"bad variable name {tok!r}", self.i)
                self.i += 1
                coeffs[tok] = coeffs.get(tok, 0) + k
                if tok not in self.scope:
                    self.free.add(tok)
                return
            self.fail(f"expected a term, found {tok!r}", self.i)


def parse(text: str, theory: Theory) -> Formula:
    """Parse a formula over the theory's signature, with binders renamed apart.

    The parser makes every check of `validate` itself: constant symbols,
    nonzero numerals and D_m against the signature, predicate names (their
    arity and index come from the grammar), and, in the order-only theories
    dlo_pred and tchain, that every term is a bare variable.  The result
    equals `standardize` of the formula read; `standardize` runs only when
    a binder name repeats or also occurs free, since otherwise it changes
    nothing.
    """
    p = _Parser(text, theory)
    f = p.parse()
    if p.repeated or not p.binders.isdisjoint(p.free):
        f = standardize(f)
    return f
