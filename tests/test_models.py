"""Model interpretation, window enumeration, and the finite-search oracle."""

import itertools
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qomin import corpus, models, qe
from qomin.cli import run
from qomin.errors import EvalError, WindowCapError
from qomin.models import (
    Window, enumerate_window, eval_qf, eval_windowed, parse_element,
    format_element,
)
from qomin.syntax import (
    And, Bool, Div, Eq, Exists, Forall, Iff, Implies, Lt, Not, Or, Pred, Term,
    Theory, atoms, free_vars, map_atoms, parse,
)

ZQ = Theory.LEX_ZQ


def del_atom(k, var="x"):
    return Pred("del", k, (Term.var(var),))


def test_delta_zero_membership():
    assert eval_qf(ZQ, del_atom(0), {"x": (0, Fraction(7, 2))})
    assert not eval_qf(ZQ, del_atom(0), {"x": (1, Fraction(0))})


def test_chain_distance():
    atom = Pred("S", 1, (Term.var("x"), Term.var("y")))
    assert eval_qf(Theory.TCHAIN, atom, {"x": (0, Fraction(0)), "y": (1, Fraction(5))})


def test_eval_qf_examples():
    assert eval_qf(Theory.PRES_Z, parse("D2(y) & y < 4", Theory.PRES_Z), {"y": 2})
    assert not eval_qf(Theory.PRES_Z, parse("D2(y)", Theory.PRES_Z), {"y": 3})
    assert eval_qf(ZQ, parse("x < y", ZQ), {"x": (0, Fraction(9)), "y": (1, Fraction(-9))})


def test_eval_qf_rejects_quantifiers():
    with pytest.raises(EvalError):
        eval_qf(Theory.PRES_Z, parse("E x. x = y", Theory.PRES_Z), {"y": 1})


def test_eval_qf_rejects_unbound():
    with pytest.raises(EvalError):
        eval_qf(Theory.PRES_Z, parse("x < y", Theory.PRES_Z), {"x": 0})


def test_eval_windowed_examples():
    w = Window(-10, 10)
    f = parse("E x. 2*x = y", Theory.PRES_Z)
    assert eval_windowed(Theory.PRES_Z, f, {"y": 6}, w)
    assert not eval_windowed(Theory.PRES_Z, f, {"y": 7}, w)
    g = parse("E x. y < x & x < z", Theory.DOAG_Q)
    assert eval_windowed(
        Theory.DOAG_Q, g, {"y": Fraction(0), "z": Fraction(1)},
        Window(Fraction(-2), Fraction(2), 8),
    )


def test_enumerate_examples():
    assert enumerate_window(Theory.PRES_Z, Window(-2, 2)) == (-2, -1, 0, 1, 2)
    assert enumerate_window(Theory.DOAG_Q, Window(Fraction(0), Fraction(1), 2)) == (
        Fraction(0), Fraction(1, 2), Fraction(1),
    )
    assert enumerate_window(Theory.LEX_ZZ, Window((0, 0), (1, 1))) == (
        (0, 0), (0, 1), (1, 0), (1, 1),
    )


def test_enumeration_sorted_and_unique():
    for theory, w in [
        (Theory.DLO_PRED, Window(Fraction(-1), Fraction(1), 4)),
        (Theory.DYADIC, Window(Fraction(-1), Fraction(1), 8)),
        (ZQ, Window((-1, Fraction(-1)), (1, Fraction(1)), 2)),
    ]:
        vals = enumerate_window(theory, w)
        assert list(vals) == sorted(set(vals))


def test_dyadic_enumeration_denominators_are_powers_of_two():
    vals = enumerate_window(Theory.DYADIC, Window(Fraction(0), Fraction(1), 8))
    assert all(v.denominator & (v.denominator - 1) == 0 for v in vals)
    assert Fraction(1, 3) not in vals


def test_naturals_window_clamps_at_zero():
    assert enumerate_window(Theory.PRES_N, Window(-3, 3)) == (0, 1, 2, 3)


def test_window_cap(monkeypatch):
    with pytest.raises(WindowCapError):
        enumerate_window(Theory.PRES_Z, Window(-10**7, 10**7))
    monkeypatch.setenv("QOMIN_WINDOW_CAP", "10")
    with pytest.raises(WindowCapError):
        enumerate_window(Theory.PRES_Z, Window(-100, 100))


def test_tag_mismatch_rejected():
    with pytest.raises(EvalError):
        eval_qf(Theory.PRES_Z, parse("x < y", Theory.PRES_Z),
                {"x": Fraction(1, 2), "y": 1})
    with pytest.raises(EvalError):
        models.check_element(Theory.PRES_N, -1)
    with pytest.raises(EvalError):
        models.check_element(Theory.DYADIC, Fraction(1, 3))


_H = Fraction(1, 2)
_Q0, _Q1 = Fraction(0), Fraction(1)
_RW = Window(_Q0, _Q1, 2)
_PW = Window((0, _Q0), (1, _Q1), 2)
_PAIRS_ZQ = ((0, _Q0), (0, _H), (0, _Q1), (1, _Q0), (1, _H), (1, _Q1))


@pytest.mark.parametrize("theory,zero,w,elems,count,foreign", [
    (Theory.PRES_Z, 0, Window(-1, 1), (-1, 0, 1), 3, _H),
    (Theory.PRES_N, 0, Window(-1, 1), (0, 1), 3, -1),
    (Theory.DLO_PRED, _Q0, _RW, (_Q0, _H, _Q1), 7, (0, _Q0)),
    (Theory.DOAG_Q, _Q0, _RW, (_Q0, _H, _Q1), 7, 1),
    (Theory.DYADIC, _Q0, Window(_Q0, _Q1, 3), (_Q0, _H, _Q1), 13, Fraction(1, 3)),
    (ZQ, (0, _Q0), _PW, _PAIRS_ZQ, 14, (0, 0)),
    (Theory.TCHAIN, (0, _Q0), _PW, _PAIRS_ZQ, 14, _Q0),
    (Theory.LEX_ZZ, (0, 0), Window((0, 0), (1, 1)), ((0, 0), (0, 1), (1, 0), (1, 1)), 4,
     (0, _H)),
], ids=lambda v: v.value if isinstance(v, Theory) else None)
def test_each_theory_model(monkeypatch, theory, zero, w, elems, count, foreign):
    """Each theory's model: its zero with the coordinate types, the
    enumeration of a tiny window, the count the cap message gives for it,
    and check_element accepting the window's elements and rejecting a value
    of another coordinate sort."""
    def sorts(vals):
        return [type(c) for v in vals for c in (v if isinstance(v, tuple) else (v,))]

    z = models.zero_element(theory)
    assert z == zero and sorts([z]) == sorts([zero])
    monkeypatch.setattr(models, "_WINDOWS", {})
    monkeypatch.setenv("QOMIN_WINDOW_CAP", "1")
    with pytest.raises(WindowCapError,
                       match=rf"^window would enumerate about {count} elements, cap is 1$"):
        enumerate_window(theory, w)
    monkeypatch.delenv("QOMIN_WINDOW_CAP")
    got = enumerate_window(theory, w)
    assert got == elems and sorts(got) == sorts(elems)
    for e in got:
        models.check_element(theory, e)
    with pytest.raises(EvalError, match="does not belong"):
        models.check_element(theory, foreign)


@pytest.mark.parametrize("theory,v,shown", [
    (Theory.DYADIC, Fraction(1, 3), "1/3"),
    (Theory.PRES_Z, (1, Fraction(2)), "(1, 2)"),
    (Theory.LEX_ZZ, 1, "1"),
    (Theory.PRES_Z, "1", "'1'"),
    (Theory.PRES_Z, 1.5, "1.5"),
    (ZQ, (1, "a"), "(1, 'a')"),
    (ZQ, (1, 2, 3), "(1, 2, 3)"),
], ids=["fraction", "pair", "scalar-for-pair", "str", "float", "pair-of-str", "triple"])
def test_rejected_element_named_as_written(theory, v, shown):
    """format_element's text for a number or a pair of numbers, and the
    repr of any other value."""
    with pytest.raises(EvalError) as err:
        models.check_element(theory, v)
    assert str(err.value) == f"element {shown} does not belong to the {theory.value} model"


@pytest.mark.parametrize("theory,text,w,asg,want", [
    (Theory.PRES_Z, "E u. x < u & D3(u + y)", Window(-6, 6), {"x": 1, "y": 2}, True),
    (Theory.PRES_N, "E u. u < x & D2(u + y)", Window(0, 6), {"x": 1, "y": 1}, False),
    (Theory.LEX_ZZ, "E u. x < u & u < y", Window((-2, -2), (2, 2)),
     {"x": (0, 0), "y": (0, 2)}, True),
    (Theory.DOAG_Q, "E u. x < u & u < y", Window(Fraction(-1), Fraction(1), 4),
     {"x": Fraction(0), "y": Fraction(1, 2)}, None),
    (ZQ, "E u. x < u & u < y", Window((-1, Fraction(-1)), (1, Fraction(1)), 4),
     {"x": (0, Fraction(0)), "y": (0, Fraction(1, 2))}, None),
], ids=["pres_z", "pres_n", "lex_zz", "doag_q", "lex_zq"])
def test_integer_models_evaluate_without_scaling(monkeypatch, theory, text, w, asg, want):
    """The compiled closure of a model with integer coordinates only reads
    the assignment as it is; a rational model (want None) scales it."""
    fn = models.compile_eval(theory, parse(text, theory), w)

    def scaled(*args):
        raise AssertionError("scaled")
    monkeypatch.setattr(models, "_lift", scaled)
    if want is None:
        with pytest.raises(AssertionError, match="scaled"):
            fn(asg)
    else:
        assert fn(asg) is want
    with pytest.raises(EvalError, match=r"^unbound variable 'x'$"):
        fn({"y": asg["y"]})


@pytest.mark.parametrize("theory,w", [
    (Theory.PRES_Z, Window(-4, 4)),
    (Theory.DOAG_Q, Window(Fraction(-2), Fraction(2), 3)),
    (Theory.DYADIC, Window(Fraction(-2), Fraction(2), 4)),
    (Theory.LEX_ZZ, Window((-2, -2), (2, 2))),
    (ZQ, Window((-1, Fraction(-1)), (1, Fraction(1)), 2)),
])
def test_order_trichotomy_and_monotonicity(theory, w):
    vals = enumerate_window(theory, w)
    sample = vals[:: max(1, len(vals) // 12)]
    for a in sample:
        for b in sample:
            assert (a < b) + (a == b) + (b < a) == 1
            for c in sample:
                if a < b:
                    assert models._add(a, c) < models._add(b, c)


@pytest.mark.parametrize("theory,w", [
    (Theory.PRES_Z, Window(-4, 4)),
    (Theory.DOAG_Q, Window(Fraction(-2), Fraction(2), 2)),
    (Theory.LEX_ZZ, Window((-2, -2), (2, 2))),
    (ZQ, Window((-1, Fraction(-1)), (1, Fraction(1)), 2)),
])
def test_group_axioms_pointwise(theory, w):
    vals = enumerate_window(theory, w)
    zero = models.zero_element(theory)
    sample = vals[:: max(1, len(vals) // 10)]
    for a in sample:
        assert models._add(a, zero) == a
        assert models._add(a, models._scale(-1, a)) == zero
        for b in sample:
            assert models._add(a, b) == models._add(b, a)
            for c in sample[:5]:
                assert models._add(models._add(a, b), c) == models._add(a, models._add(b, c))


@pytest.mark.parametrize("theory", [ZQ, Theory.LEX_ZZ])
def test_lexicographic_order_consistency(theory):
    if theory == ZQ:
        w = Window((-1, Fraction(-1)), (1, Fraction(1)), 2)
    else:
        w = Window((-2, -2), (2, 2))
    lt = parse("x < y", theory)
    for a in enumerate_window(theory, w):
        for b in enumerate_window(theory, w):
            expected = a[0] < b[0] or (a[0] == b[0] and a[1] < b[1])
            assert eval_qf(theory, lt, {"x": a, "y": b}) == expected


@pytest.mark.parametrize("theory", [ZQ, Theory.LEX_ZZ])
@pytest.mark.parametrize("k", [0, 1, 2])
def test_coset_predicate_law(theory, k):
    """del_k(x) holds exactly when x - k*g0 lands in the convex subgroup,
    where g0 is the canonical element with first coordinate one."""
    if theory == ZQ:
        w = Window((-2, Fraction(-1)), (3, Fraction(1)), 2)
        g0 = (1, Fraction(0))
    else:
        w = Window((-2, -2), (3, 2))
        g0 = (1, 0)
    atom = Pred("del", k, (Term.var("x"),))
    for x in enumerate_window(theory, w):
        shifted = models._add(x, models._scale(-k, g0))
        assert eval_qf(theory, atom, {"x": x}) == (shifted[0] == 0)


def test_element_round_trip():
    for text, theory in [("5", Theory.PRES_Z), ("-3/4", Theory.DOAG_Q),
                         ("(1, 1/2)", ZQ), ("(-2, 3)", Theory.LEX_ZZ)]:
        v = parse_element(text, theory)
        assert parse_element(format_element(v), theory) == v


@given(st.integers(-50, 50), st.integers(-50, 50))
@settings(max_examples=40, deadline=None)
def test_integer_window_enumeration_complete(a, b):
    lo, hi = min(a, b), max(a, b)
    vals = enumerate_window(Theory.PRES_Z, Window(lo, hi))
    assert vals == tuple(range(lo, hi + 1))


# ---------------------------------------------------------------------------
# The compiled evaluator (integer-scaled, miniscoped) against a plain reading
# over Fraction-valued elements


def _plain_atom(theory, atom, asg):
    def val(t):
        return models.eval_term(theory, t, asg)
    match atom:
        case Lt(l, r):
            return val(l) < val(r)
        case Eq(l, r):
            return val(l) == val(r)
        case Div(m, t) if theory in (Theory.PRES_Z, Theory.PRES_N):
            return val(t) % m == 0
        case Div(m, t) if theory in (Theory.DLO_PRED, Theory.DOAG_Q, Theory.DYADIC):
            return (val(t) / m).denominator == 1
        case Div(m, t) if theory == ZQ:
            return val(t)[0] % m == 0
        case Div(m, t) if theory == Theory.LEX_ZZ:
            return val(t)[0] % m == 0 and val(t)[1] % m == 0
        case Pred("Qp", _, (t,)):
            d = val(t).denominator
            return d & (d - 1) == 0
        case Pred("P", _, (t,)):
            return val(t)[0] % 2 == 0
        case Pred("S", n, (t, u)):
            return abs(val(t)[0] - val(u)[0]) == n
        case Pred("del", k, (t,)):
            return val(t)[0] == k
    raise AssertionError(f"no plain reading of {atom!r}")


def _plain_eval(theory, f, asg, elems):
    """Windowed truth read off the formula as written: no miniscoping, no
    scaling."""
    def ev(g):
        match g:
            case Bool(b):
                return b
            case Not(x):
                return not ev(x)
            case And(args):
                return all(ev(x) for x in args)
            case Or(args):
                return any(ev(x) for x in args)
            case Implies(l, r):
                return not ev(l) or ev(r)
            case Iff(l, r):
                return ev(l) == ev(r)
            case Exists(v, body) | Forall(v, body):
                old = asg.get(v)
                results = []
                for e in elems:
                    asg[v] = e
                    results.append(ev(body))
                if old is not None:
                    asg[v] = old
                return any(results) if isinstance(g, Exists) else all(results)
        return _plain_atom(theory, g, asg)
    return ev(f)


# the theory each QE output's atoms are read in: a lexicographic output is
# a component formula, evaluated as a doag_q (lex_zq) or pres_z (lex_zz) one
_OUTPUT_THEORY = {Theory.PRES_N: Theory.PRES_Z, ZQ: Theory.DOAG_Q,
                  Theory.LEX_ZZ: Theory.PRES_Z}


def _corpus_atoms():
    """(theory, atom) for every atom of the corpus formulas and of their
    quantifier-free QE outputs."""
    seen = set()
    for theory in corpus.CORPUS:
        base = _OUTPUT_THEORY.get(theory, theory)
        for entry in corpus.entries(theory):
            f = parse(entry.text, theory)
            seen.update((theory, a) for a in atoms(f))
            out = qe.qe(theory, f)
            if isinstance(out, qe.ComponentFormula):
                out = out.formula
            seen.update((base, a) for a in atoms(out))
    return sorted(seen, key=repr)


def test_compiled_atoms_agree_with_fraction_reading():
    checked = 0
    for theory, atom in _corpus_atoms():
        asg_w, search_w = corpus.windows(theory)
        fvs = sorted(free_vars(atom))
        unscaled = models.compile_eval(theory, atom)
        scaled = models.compile_eval(theory, atom, search_w)
        for combo in itertools.product(enumerate_window(theory, asg_w), repeat=len(fvs)):
            asg = dict(zip(fvs, combo))
            want = _plain_atom(theory, atom, asg)
            assert unscaled(asg) == want, (theory.value, str(atom), asg)
            assert scaled(asg) == want, (theory.value, str(atom), asg)
            checked += 1
    assert checked > 50_000


def _depth(f):
    match f:
        case Exists(_, body) | Forall(_, body):
            return 1 + _depth(body)
        case Not(x):
            return _depth(x)
        case And(args) | Or(args):
            return max(map(_depth, args))
        case Implies(l, r) | Iff(l, r):
            return max(_depth(l), _depth(r))
    return 0


def test_miniscoped_evaluation_agrees_with_unscoped_on_depth_two_rows():
    rows = [(theory, parse(e.text, theory)) for theory in corpus.CORPUS
            for e in corpus.entries(theory) if _depth(parse(e.text, theory)) >= 2]
    assert len(rows) >= 10
    moved = 0
    for theory, f in rows:
        w, _ = corpus.windows(theory)
        elems = enumerate_window(theory, w)
        moved += models.miniscope(f) != f
        fn = models.compile_eval(theory, f, w)
        fvs = sorted(free_vars(f))
        for combo in itertools.product(elems, repeat=len(fvs)):
            asg = dict(zip(fvs, combo))
            assert fn(asg) == _plain_eval(theory, f, dict(asg), elems), (
                theory.value, f, asg)
    assert moved >= 4  # the dlo, doag and tchain rows whose inner body has a u-only conjunct


def test_miniscope_moves_only_what_the_variable_does_not_reach():
    dlo = Theory.DLO_PRED
    assert models.miniscope(parse("E u. E v. y < u & u < v & v < z", dlo)) == parse(
        "E u. y < u & (E v. u < v & v < z)", dlo)
    assert models.miniscope(parse("A u. u < x -> u < y", dlo)) == parse(
        "A u. u < x -> u < y", dlo)
    assert models.miniscope(parse("A u. y < z -> u < y", dlo)) == parse(
        "~(y < z) | (A u. u < y)", dlo)


def test_miniscope_keeps_the_empty_window_reading():
    empty = Window(1, 0)
    assert enumerate_window(Theory.PRES_Z, empty) == ()
    f = parse("E u. y < 1 & y < u", Theory.PRES_Z)
    g = parse("E u. y < 1", Theory.PRES_Z)
    h = parse("A u. 1 < y", Theory.PRES_Z)
    assert not eval_windowed(Theory.PRES_Z, f, {"y": 0}, empty)
    assert not eval_windowed(Theory.PRES_Z, g, {"y": 0}, empty)
    assert eval_windowed(Theory.PRES_Z, h, {"y": 0}, empty)
    assert eval_windowed(Theory.PRES_Z, g, {"y": 0}, Window(0, 0))
    assert not eval_windowed(Theory.PRES_Z, h, {"y": 0}, Window(0, 0))


def test_off_grid_assignment_stays_exact():
    """y = 1/3 is off the grid of a window with denominators up to 2, so the
    scale must come from the assignment as well as the window."""
    dlo = Theory.DLO_PRED
    w = Window(Fraction(-2), Fraction(2), 2)
    elems = enumerate_window(dlo, w)
    third = Fraction(1, 3)
    for text in ["Qp(y)", "E u. u = y", "E u. y < u & u < z",
                 "E u. u < y & ~(u < z) & Qp(u)", "A u. u < y -> u < z",
                 "E u. E v. y < u & u < v & v < z"]:
        f = parse(text, dlo)
        for z in [Fraction(1, 2), Fraction(2, 3), Fraction(1, 4), third]:
            asg = {"y": third, "z": z}
            got = eval_windowed(dlo, f, asg, w)
            assert got == _plain_eval(dlo, f, dict(asg), elems), (text, z)
    assert not eval_windowed(dlo, parse("E u. u = y", dlo), {"y": third}, w)
    assert eval_windowed(dlo, parse("E u. u = y", dlo), {"y": Fraction(1, 2)}, w)
    assert not eval_qf(dlo, parse("Qp(y)", dlo), {"y": third})
    assert eval_qf(dlo, parse("Qp(y)", dlo), {"y": Fraction(3, 8)})


@pytest.mark.parametrize("at,value", [("y=1/3,z=1/2", False), ("y=1/3,z=2/3", True)])
def test_cli_eval_off_grid_assignment(capsys, at, value):
    code = run(["eval", "--theory", "dlo_pred", "E u. y < u & u < z",
                "--at", at, "--window", "-2,2,2"])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["value"] is value


def test_scaled_window_is_cached_under_the_enumeration_key():
    w = Window(Fraction(-3), Fraction(3), 8)
    L, elems = models._scaled_window(Theory.DLO_PRED, w)
    assert L == 840
    assert elems == tuple(int(q * L) for q in enumerate_window(Theory.DLO_PRED, w))
    assert models._scaled_window(Theory.DLO_PRED, w)[1] is elems
    assert models._WINDOWS[(Theory.DLO_PRED, w.lo, w.hi, w.denom)][1] == (L, elems)


# ---------------------------------------------------------------------------
# The search bisects the sorted window to the slice that a bound variable's
# order and equality literals allow; it must give the full scan's verdict


def _hidden(f):
    """f with every order and equality atom written as ~~atom: the evaluator
    reads it identically, but no conjunct or disjunct of a quantifier body is
    an order or equality literal, so every search scans the whole window."""
    return map_atoms(f, lambda a: Not(Not(a)) if isinstance(a, (Lt, Eq)) else a)


def _cut_searches(f):
    """How many quantifiers of f have a literal to cut on."""
    match f:
        case Exists(v, body) | Forall(v, body):
            return bool(models._cuts(v, body, isinstance(f, Exists))) + _cut_searches(body)
        case Not(x):
            return _cut_searches(x)
        case And(args) | Or(args):
            return sum(map(_cut_searches, args))
        case Implies(l, r) | Iff(l, r):
            return _cut_searches(l) + _cut_searches(r)
    return 0


def test_cut_search_agrees_with_full_scan_on_every_corpus_point():
    searches = points = 0
    for theory in corpus.CORPUS:
        asg_w, search_w = corpus.windows(theory)
        elems = enumerate_window(theory, asg_w)
        for entry in corpus.entries(theory):
            f = parse(entry.text, theory)
            searches += _cut_searches(models.miniscope(f))
            assert _cut_searches(models.miniscope(_hidden(f))) == 0
            fast = models.compile_eval(theory, f, search_w)
            full = models.compile_eval(theory, _hidden(f), search_w)
            fvs = sorted(free_vars(f))
            for combo in itertools.product(elems, repeat=len(fvs)):
                asg = dict(zip(fvs, combo))
                assert fast(asg) == full(asg), (theory.value, entry.text, asg)
                points += 1
    assert searches >= 100 and points > 10_000


def test_corpus_windows_increase_under_the_compiled_order():
    """The precondition of the bisection: the scaled window is sorted by the
    compiled `<`, also when an off-grid assignment relifts it to a larger L."""
    x_lt_y = Lt(Term.var("x"), Term.var("y"))
    for theory, pair in corpus.WINDOWS.items():
        for w in pair:
            L, elems = models._scaled_window(theory, w)
            for k in (1, 3):
                lt = models._compile_atom(theory, x_lt_y, L * k)
                lifted = [models._lift(theory, e, k) for e in elems] if k > 1 else elems
                assert len(lifted) > 1
                for a, b in zip(lifted, lifted[1:]):
                    assert lt({"x": a, "y": b}) and not lt({"x": b, "y": a}), (
                        theory.value, w, k, a, b)


# per theory: group signature, constant symbols, the literals that give no
# cut, a small search window, an empty one (lo > hi), and assignment points,
# one of them off the window's grid where the model is dense
_GEN = {
    Theory.PRES_Z: (True, ("1",), ("D2({x} + {w})", "D3({x})"),
                    Window(-6, 6), Window(1, 0), (-4, -1, 0, 2, 5)),
    Theory.PRES_N: (True, ("1",), ("D2({x} + {w})", "D3({x})"),
                    Window(0, 8), Window(3, 2), (0, 1, 3, 6)),
    Theory.DLO_PRED: (False, (), ("Qp({x})",),
                      Window(Fraction(-2), Fraction(2), 2), Window(Fraction(1), Fraction(0)),
                      (Fraction(-1), Fraction(-1, 2), Fraction(1, 3), Fraction(1))),
    Theory.DOAG_Q: (True, ("1",), ("{x} + {w} < {x} + z",),
                    Window(Fraction(-2), Fraction(2), 2), Window(Fraction(1), Fraction(0)),
                    (Fraction(-1), Fraction(-1, 2), Fraction(1, 3), Fraction(1))),
    Theory.LEX_ZQ: (True, ("1Z",), ("del0({x} - {w})", "D2({x})"),
                    Window((-1, Fraction(-1)), (1, Fraction(1)), 2),
                    Window((1, Fraction(0)), (0, Fraction(0))),
                    ((-1, Fraction(0)), (0, Fraction(-1, 2)), (0, Fraction(1, 3)), (1, Fraction(1)))),
    Theory.LEX_ZZ: (True, ("1p", "1pp"), ("D2({x} + {w})", "del0({x} - {w})"),
                    Window((-1, -2), (1, 2)), Window((0, 1), (0, 0)),
                    ((-1, 1), (0, -1), (0, 0), (0, 2), (1, -2))),
    Theory.TCHAIN: (False, (), ("P({x})", "S1({x}, {w})"),
                    Window((-1, Fraction(-1)), (1, Fraction(1)), 2),
                    Window((1, Fraction(0)), (0, Fraction(0))),
                    ((-1, Fraction(0)), (0, Fraction(-1, 2)), (0, Fraction(1, 3)), (1, Fraction(1)))),
}


@st.composite
def _literal(draw, theory, x, others):
    group, consts, extras, *_ = _GEN[theory]
    w = draw(st.sampled_from(others))
    if draw(st.integers(0, 3)) == 0:
        text = draw(st.sampled_from(extras)).format(x=x, w=w)
    else:
        coeff = st.integers(1, 3) if group else st.just(1)
        lhs, rhs = f"{draw(coeff)}*{x}", f"{draw(coeff)}*{w}"
        if consts and draw(st.booleans()):
            rhs += f" + {draw(st.integers(-2, 2))}*{draw(st.sampled_from(consts))}"
        op = draw(st.sampled_from(("<", "=")))
        text = f"{lhs} {op} {rhs}" if draw(st.booleans()) else f"{rhs} {op} {lhs}"
    return f"~({text})" if draw(st.booleans()) else f"({text})"


@st.composite
def _block(draw, theory, depth, bound=()):
    """`Q x. body` with up to `depth` nested quantifiers; body joins literals on
    x (and, at depth 2, the inner block) by &, | or as `(L & ..) -> (L | ..)`."""
    x = "uv"[len(bound)]
    others = ("y", "z", *bound)
    parts = draw(st.lists(_literal(theory, x, others), min_size=1, max_size=3))
    if depth > 1:
        parts.insert(draw(st.integers(0, len(parts))),
                     f"({draw(_block(theory, depth - 1, (*bound, x)))})")
    q = draw(st.sampled_from("EA"))
    # mostly the shape whose parts the search can cut on
    shape = draw(st.sampled_from(("&", "&", "|", "->") if q == "E" else ("|", "->", "&")))
    if shape == "->" and len(parts) > 1:
        cut = draw(st.integers(1, len(parts) - 1))
        body = f"({' & '.join(parts[:cut])}) -> ({' | '.join(parts[cut:])})"
    else:
        body = f" {'|' if shape == '|' else '&'} ".join(parts)
    return f"{q} {x}. {body}"


@pytest.mark.parametrize("theory", list(_GEN), ids=lambda t: t.value)
@settings(max_examples=100, deadline=None, derandomize=True)
@given(data=st.data())
def test_cut_search_agrees_with_full_scan_on_generated_blocks(theory, data):
    text = data.draw(_block(theory, data.draw(st.integers(1, 2))), label="formula")
    f = parse(text, theory)
    *_, window, empty, elems = _GEN[theory]
    for w in (window, empty):
        fast = models.compile_eval(theory, f, w)
        full = models.compile_eval(theory, _hidden(f), w)
        for y, z in itertools.product(elems, repeat=2):
            asg = {"y": y, "z": z}
            assert fast(asg) == full(asg), (text, w, asg)
