"""Structural analyses built on the decomposition machinery: eventual-
equality classification of definable families, cut mechanics over the
lexicographic group, density/codensity scans over the dyadic rationals, and
the one-variable interval decomposition over the divisible rational group."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import EvalError, QominError, UnsupportedTheoryError, WindowCapError
from . import models
from .models import Element, Window
from .normal_form import decompose
from .qe import ComponentFormula, qe, simplify
from .syntax import (
    Div, Eq, Formula, Solved, Term, Theory, atoms, free_vars, or_, print_formula,
    solve_for,
)

POS = "+inf"
NEG = "-inf"


# ---------------------------------------------------------------------------
# Eventual equality and eventual finiteness


def _tail_comparison(xs, va, vb, direction):
    """Compare membership vectors along the window.

    Returns (equal, threshold_or_counterexample).  The verdict is positive
    when the vectors agree on a tail holding at least a quarter of the
    window's points (at least one); agreement holds strictly beyond the
    returned threshold c.  A finite window cannot certify tail behavior, so
    a too-short agreeing tail counts as a negative verdict with the last
    disagreement as counterexample.
    """
    disagree = [i for i, (a, b) in enumerate(zip(va, vb)) if a != b]
    if not disagree:
        edge = xs[0] if direction == POS else xs[-1]
        return True, edge
    if direction == POS:
        worst = disagree[-1]
        tail = len(xs) - 1 - worst
    else:
        worst = disagree[0]
        tail = worst
    if tail >= max(1, len(xs) // 4):
        return True, xs[worst]
    return False, xs[worst]


def eventually_equal(theory: Theory, xdef, ydef, adef, direction: str, w: Window):
    """Empirical eventual-equality verdict for two parameterized set
    definitions, relative to an optional definable filter.

    xdef/ydef: (formula, parameter assignment dict); the remaining free
    variable scans the window.  Returns (verdict, threshold or
    counterexample)."""
    if direction not in (POS, NEG):
        raise ValueError(f"direction must be {POS!r} or {NEG!r}")
    fx, px = xdef
    fy, py = ydef
    vx = _scan_var(fx, px)
    vy = _scan_var(fy, py)
    xs = list(models.enumerate_window(theory, w))
    if adef is not None:
        va = _scan_var(adef, {})
        a_fn = models.compile_eval(theory, adef, w)
        xs = [x for x in xs if a_fn({va: x})]
    if not xs:
        return True, None
    fx_fn = models.compile_eval(theory, fx, w)
    fy_fn = models.compile_eval(theory, fy, w)
    mx = [fx_fn({**px, vx: x}) for x in xs]
    my = [fy_fn({**py, vy: x}) for x in xs]
    return _tail_comparison(xs, mx, my, direction)


def _scan_var(f: Formula, params: dict) -> str:
    rest = free_vars(f) - set(params)
    if len(rest) != 1:
        raise EvalError(
            f"expected exactly one scan variable, found {sorted(rest)} in {print_formula(f)}"
        )
    return next(iter(rest))


def lemma3_check(m: int, k: int, w: Window) -> bool:
    """For the subgroups mZ and kZ of the integers: eventual equality in both
    directions holds exactly when the subgroups are equal (m = k)."""
    if m < 1 or k < 1:
        raise ValueError("subgroup indices must be positive")

    def subgroup(j: int) -> Formula:
        # the whole group for j = 1, written with the scan variable visible
        return Eq(Term.var("x"), Term.var("x")) if j == 1 else Div(j, Term.var("x"))

    xdef = (subgroup(m), {})
    ydef = (subgroup(k), {})
    both = all(
        eventually_equal(Theory.PRES_Z, xdef, ydef, None, d, w)[0]
        for d in (POS, NEG)
    )
    return both == (m == k)


@dataclass
class EventualClass:
    members: list            # parameter tuples
    active: frozenset        # active disjunct indices
    description: Formula     # union of the phi parts of the active set


@dataclass
class EventualClassReport:
    direction: str
    var: str
    classes: list
    disjunct_count: int
    empirical_same_class_ok: bool
    cross_class_tail_collisions: list

    @property
    def class_count(self) -> int:
        return len(self.classes)

    @property
    def bound(self) -> int:
        return 2 ** self.disjunct_count

    def to_json(self) -> dict:
        return {
            "direction": self.direction,
            "class_count": self.class_count,
            "bound": self.bound,
            "classes": [
                {
                    "members": [[models.format_element(v) for v in t] for t in c.members],
                    "active": sorted(c.active),
                    "description": print_formula(c.description),
                }
                for c in self.classes
            ],
            "empirical_same_class_ok": self.empirical_same_class_ok,
            "cross_class_tail_collisions": self.cross_class_tail_collisions,
        }


def eventual_classes(theory: Theory, theta: Formula, params: list, direction: str,
                     w: Window, var: str = "x") -> EventualClassReport:
    """Partition a definable family by eventual equality.

    Symbolic route: two parameter tuples land in the same class when the
    same decomposition disjuncts stay active on the tail (psi true and every
    rho constraint eventually true).  Cross-checked empirically by tail
    comparison of the defined sets within the window."""
    if not params:
        raise ValueError("params must be nonempty")
    if direction not in (POS, NEG):
        raise ValueError(f"direction must be {POS!r} or {NEG!r}")
    dec = decompose(theory, theta, var)
    eventual_op = "above" if direction == POS else "below"

    # every tuple's elements are checked before anything is compiled, and
    # each eligible disjunct's psi is compiled once for all tuples
    asgs = [dec.assignment(abar) for abar in params]
    psis = {i: models.compile_eval(theory, d.psi, w) for i, d in enumerate(dec.disjuncts)
            if all(op == eventual_op for op, _ in d.rho)}
    groups: dict[frozenset, list] = {}
    for abar, asg in zip(params, asgs):
        active = frozenset(i for i, fn in psis.items() if fn(asg))
        groups.setdefault(active, []).append(abar)

    classes = [
        EventualClass(members, active, simplify(or_(*(dec.disjuncts[i].phi for i in sorted(active)))))
        for active, members in groups.items()
    ]

    # empirical cross-check: membership tails within the window
    xs = list(models.enumerate_window(theory, w))
    theta_fn = models.compile_eval(theory, theta, w)
    vectors = {}
    for abar, point in zip(params, asgs):
        vector = vectors[abar] = []
        for x in xs:
            point[var] = x
            vector.append(theta_fn(point))
    same_ok = True
    collisions = []
    reps = [(c.active, c.members[0]) for c in classes]
    for c in classes:
        base = c.members[0]
        for other in c.members[1:]:
            eq, _ = _tail_comparison(xs, vectors[base], vectors[other], direction)
            if not eq:
                same_ok = False
    for i in range(len(reps)):
        for j in range(i + 1, len(reps)):
            eq, _ = _tail_comparison(xs, vectors[reps[i][1]], vectors[reps[j][1]], direction)
            if eq:
                collisions.append((sorted(reps[i][0]), sorted(reps[j][0])))
    return EventualClassReport(
        direction=direction,
        var=var,
        classes=classes,
        disjunct_count=len(dec.disjuncts),
        empirical_same_class_ok=same_ok,
        cross_class_tail_collisions=collisions,
    )


# ---------------------------------------------------------------------------
# Cuts {x : n*x < a} over the lexicographic group


@dataclass(frozen=True)
class Cut:
    """The downward-closed set {x : n*x < a} over the Z x Q product."""

    theory: Theory
    n: int
    a: Element

    def __post_init__(self):
        if self.theory != Theory.LEX_ZQ:
            raise UnsupportedTheoryError("cuts are modeled over the Z x Q product only")
        if self.n < 1:
            raise ValueError("cut coefficient must be positive")
        models.check_element(self.theory, self.a)

    @property
    def irrational(self) -> bool:
        # no maximum in the cut and no minimum in the complement: holds
        # exactly when a is not n-divisible in the group
        return self.a[0] % self.n != 0

    def describe(self) -> str:
        return f"{{x : {self.n}*x < {models.format_element(self.a)}}}"


def cut_contains(c: Cut, x: Element) -> bool:
    models.check_element(c.theory, x)
    nx = (c.n * x[0], c.n * x[1])
    return nx < c.a


def cut_subset(c1: Cut, c2: Cut) -> bool:
    """Inclusion, decided in the divisible hull: {n1 x < a1} is included in
    {n2 x < a2} iff n2*a1 <= n1*a2 lexicographically."""
    if c1.theory != c2.theory:
        raise EvalError("cuts over different models")
    left = (c2.n * c1.a[0], c2.n * c1.a[1])
    right = (c1.n * c2.a[0], c1.n * c2.a[1])
    return left <= right


def maximal_cut_excluding(cuts: list[Cut], e: Element) -> Cut:
    """The inclusion-maximal cut among those not containing e."""
    if not cuts:
        raise ValueError("empty cut family")
    excluding = [c for c in cuts if not cut_contains(c, e)]
    if not excluding:
        raise QominError("every cut in the family contains the point")
    best = excluding[0]
    for c in excluding[1:]:
        if cut_subset(best, c):
            best = c
    return best


# ---------------------------------------------------------------------------
# Density of n*G in the dyadic rationals


@dataclass
class DensityReport:
    n: int
    odd_part: int
    whole_group: bool
    intervals_checked: int = 0
    dense: bool | None = None
    codense: bool | None = None
    first_density_gap: tuple | None = None
    first_codensity_gap: tuple | None = None

    def to_json(self) -> dict:
        out = {
            "n": self.n,
            "case": "nG = G" if self.whole_group else "proper subgroup",
            "intervals_checked": self.intervals_checked,
        }
        if not self.whole_group:
            out["dense"] = self.dense
            out["codense"] = self.codense
            if self.first_density_gap:
                out["first_density_gap"] = [str(v) for v in self.first_density_gap]
            if self.first_codensity_gap:
                out["first_codensity_gap"] = [str(v) for v in self.first_codensity_gap]
        return out


def density_check(n: int, w: Window, resolution: Fraction) -> DensityReport:
    """Check that every subinterval of the window of the given length meets
    both n*G and its complement, over the group of dyadic rationals.

    When n is a power of two the subgroup is the whole group (the dyadics
    are 2-divisible) and the scan is skipped.  A scan of more intervals than
    the window cap, read first whatever n is, raises WindowCapError up front."""
    if n < 2:
        raise ValueError("n must be >= 2")
    cap = models.window_cap()
    odd = n
    while odd % 2 == 0:
        odd //= 2
    report = DensityReport(n=n, odd_part=odd, whole_group=(odd == 1))
    if report.whole_group:
        return report
    denom = w.denom
    if denom & (denom - 1):
        raise ValueError("dyadic scan needs a power-of-two denominator bound")
    lo, hi = Fraction(w.lo), Fraction(w.hi)
    resolution = Fraction(resolution)
    if resolution <= 0:
        raise ValueError("resolution must be positive")
    if (count := -((lo - hi) // resolution)) > cap:  # ceil((hi - lo) / resolution)
        raise WindowCapError(f"density scan would check {count} intervals, cap is {cap}")
    report.dense = report.codense = True
    # the interval ends in integers: A/S, with S the lcm of the denominators
    S = math.lcm(lo.denominator, hi.denominator, resolution.denominator)
    A, H, R = (x.numerator * (S // x.denominator) for x in (lo, hi, resolution))
    while A < H:
        B = min(A + R, H)
        # numerators p with p/denom in [A/S, B/S): membership in nG means
        # the odd part of n divides p
        p_lo = -((-A * denom) // S)
        p_hi = (B * denom - 1) // S
        report.intervals_checked += 1
        # the least multiple of odd at or above p_lo; odd >= 3, so any two
        # numerators include a non-multiple
        if p_lo + (-p_lo) % odd > p_hi:
            if report.dense:
                report.first_density_gap = (Fraction(A, S), Fraction(B, S))
            report.dense = False
        if not (p_lo < p_hi or (p_lo == p_hi and p_lo % odd)):
            if report.codense:
                report.first_codensity_gap = (Fraction(A, S), Fraction(B, S))
            report.codense = False
        A = B
    return report


# ---------------------------------------------------------------------------
# One-variable interval decomposition over the divisible rational group


@dataclass(frozen=True)
class Piece:
    """A maximal interval or point of the defined set; None bounds are
    unbounded ends."""

    lo: Fraction | None
    hi: Fraction | None
    lo_closed: bool
    hi_closed: bool

    def contains(self, v: Fraction) -> bool:
        if self.lo is not None:
            if v < self.lo or (v == self.lo and not self.lo_closed):
                return False
        if self.hi is not None:
            if v > self.hi or (v == self.hi and not self.hi_closed):
                return False
        return True

    def __str__(self) -> str:
        if self.lo is not None and self.lo == self.hi:
            return f"{{{self.lo}}}"
        l = "[" if self.lo_closed else "("
        r = "]" if self.hi_closed else ")"
        ls = str(self.lo) if self.lo is not None else "-inf"
        rs = str(self.hi) if self.hi is not None else "+inf"
        return f"{l}{ls}, {rs}{r}"


def one_var_intervals(f: Formula, var: str | None = None) -> list[Piece]:
    """QE over the divisible rational group, then solve every atom for the
    variable and read the defined set off a sign scan of the arrangement."""
    out = qe(Theory.DOAG_Q, f)
    assert not isinstance(out, ComponentFormula)
    fv = free_vars(out) | free_vars(f)
    if var is None:
        if len(fv) > 1:
            raise EvalError(f"expected one free variable, found {sorted(fv)}")
        var = next(iter(fv)) if fv else "x"
    elif not fv <= {var}:
        raise EvalError(f"unexpected free variables {sorted(fv - {var})}")

    bounds: set[Fraction] = set()
    for atom in atoms(out):
        s = solve_for(atom, var)
        if isinstance(s, Solved):
            bounds.add(Fraction(dict(s.t.consts).get("1", 0), s.a))
    cuts = sorted(bounds)
    fn = models.compile_eval(Theory.DOAG_Q, out)

    def truth(v: Fraction) -> bool:
        return fn({var: v})

    # segment sequence: region below, then alternating boundary point / region
    segments: list[tuple[Fraction | None, Fraction | None, bool]] = []
    if not cuts:
        everywhere = truth(Fraction(0))
        return [Piece(None, None, False, False)] if everywhere else []
    probe = cuts[0] - 1
    segments.append((None, cuts[0], truth(probe)))
    for i, b in enumerate(cuts):
        segments.append((b, b, truth(b)))
        hi = cuts[i + 1] if i + 1 < len(cuts) else None
        probe = (b + hi) / 2 if hi is not None else b + 1
        segments.append((b, hi, truth(probe)))

    pieces: list[Piece] = []
    current: Piece | None = None
    for lo, hi, val in segments:
        if not val:
            if current is not None:
                pieces.append(current)
                current = None
            continue
        is_point = lo is not None and lo == hi
        if current is None:
            if is_point:
                current = Piece(lo, hi, True, True)
            else:
                current = Piece(lo, hi, False, False)
        else:
            if is_point:
                current = Piece(current.lo, hi, current.lo_closed, True)
            else:
                current = Piece(current.lo, hi, current.lo_closed, False)
    if current is not None:
        pieces.append(current)
    return pieces

