"""Quantifier elimination engines, the divisibility/floor identities, and
sentence decision."""

import time
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from qomin import corpus, models
from qomin import qe as qe_module
from qomin.errors import (
    EvalError, NonSentenceError, ResourceCapError, UnsupportedTheoryError,
)
from qomin.models import Window
from qomin.qe import (
    ComponentFormula, decide, eval_component, isolate_x_equality,
    isolate_x_inequality, lex_split, oracle_agreement, qe,
    rewrite_divisibility, simplify, translate_nat,
)
from qomin.syntax import (
    And, Div, Eq, Exists, FALSE, Lt, Or, Pred, TRUE, Term, Theory, and_, atoms,
    free_vars, is_quantifier_free, map_atoms, or_, parse, print_formula, to_nnf, Not,
)

Z = Theory.PRES_Z


def out_formula(result):
    return result.formula if isinstance(result, ComponentFormula) else result


# ---------------------------------------------------------------------------
# Boolean simplification

_x, _y = Term.var("x"), Term.var("y")
_a, _b, _c = Lt(_x, _y), Div(2, _x), Pred("P", None, (_x,))
_one, _two = Term.const(1), Term.const(2)
_z1, _p1, _pp1 = Term.const(1, "1Z"), Term.const(1, "1p"), Term.const(1, "1pp")


@pytest.mark.parametrize("f, expected", [
    # units and zeros
    (And((TRUE, _a)), _a),
    (Or((FALSE, _a)), _a),
    (And((_a, FALSE, _b)), FALSE),
    (Or((_a, TRUE)), TRUE),
    (And((TRUE, TRUE)), TRUE),
    # duplicates
    (And((_a, _b, _a)), And((_a, _b))),
    (Or((_b, _b)), _b),
    # a literal next to its complement
    (And((_a, _b, Not(_a))), FALSE),
    (Or((Not(_b), _a, _b)), TRUE),
    (Or((And((_a, Not(_a))), _b)), _b),
    # nested nodes of the same connective are flattened
    (And((_a, And((_b, _c)))), And((_a, _b, _c))),
    (Or((Or((_a, _b)), Or((_b, _c)))), Or((_a, _b, _c))),
    (And((_a, Or((_b, _c)))), And((_a, Or((_b, _c))))),
    # argument order is kept
    (And((_c, _b, _a)), And((_c, _b, _a))),
    # closed order and equality atoms over 1, 1Z and 1p/1pp
    (Lt(_one, _two), TRUE),
    (Lt(_two, _one), FALSE),
    (Eq(_one + _one, _two), TRUE),
    (Lt(_z1, _z1 + _z1), TRUE),
    (Eq(_z1, _z1.scale(2)), FALSE),
    (Lt(_p1.scale(5), _pp1), TRUE),
    (Lt(_pp1, _p1 + _pp1), TRUE),
    (Eq(_p1 + _pp1, _pp1 + _p1), TRUE),
    (Eq(_p1, _pp1), FALSE),
    # closed divisibility over the same constants
    (Div(2, Term.const(4)), TRUE),
    (Div(3, Term.const(4)), FALSE),
    (Div(2, _z1.scale(6)), TRUE),
    (Div(2, _z1.scale(3)), FALSE),
    (Div(2, _pp1.scale(2) + _p1.scale(4)), TRUE),
    (Div(2, _pp1.scale(2) + _p1), FALSE),
    # S_n(t, t) and del_k of a constant
    (Pred("S", 0, (_x, _x)), TRUE),
    (Pred("S", 2, (_x, _x)), FALSE),
    (Pred("del", 1, (_pp1 + _p1.scale(3),)), TRUE),
    (Pred("del", 0, (_pp1,)), FALSE),
    # the negation of a foldable atom
    (Not(Lt(_one, _two)), FALSE),
    (Not(Div(2, Term.const(3))), TRUE),
    (And((Not(Eq(_one, _two)), _a)), _a),
    # atoms with variables stay
    (_b, _b),
    (Not(_b), Not(_b)),
    (Pred("S", 1, (_x, _y)), Pred("S", 1, (_x, _y))),
])
def test_simplify_table(f, expected):
    assert simplify(f) == expected


def test_qe_outputs_are_simplify_fixpoints_on_corpus():
    """Every qe output is a fixpoint of simplify, and simplify is idempotent
    on the NNF of every quantifier-free corpus row."""
    for theory in corpus.CORPUS:
        for entry in corpus.entries(theory):
            f = parse(entry.text, theory)
            out = out_formula(qe(theory, f))
            assert simplify(out) == out, entry.text
            if is_quantifier_free(f):
                once = simplify(to_nnf(f))
                assert simplify(once) == once, entry.text


def test_simplify_stops_at_the_first_zero(monkeypatch):
    """Once a part of an And/Or folds to the zero, no later sibling is
    simplified."""
    seen = []
    inner = qe_module.simplify

    def counted(f):
        seen.append(f)
        return inner(f)

    monkeypatch.setattr(qe_module, "simplify", counted)
    later = And((_a, Lt(_y, _x)))
    assert counted(Or((_b, Lt(_one, _two), later))) == TRUE
    assert counted(And((_b, Eq(_one, _two), later))) == FALSE
    assert _b in seen and later not in seen


_FOLD_UNITS = ["1", "1Z", "1p", "1pp"]
_FOLD_TERMS = st.builds(
    Term.make, st.dictionaries(st.sampled_from("xy"), st.integers(-2, 2), max_size=2),
    st.dictionaries(st.sampled_from(_FOLD_UNITS), st.integers(-2, 2), max_size=2))


@given(_FOLD_TERMS, _FOLD_TERMS, st.booleans(), st.booleans())
@settings(max_examples=300, deadline=None, derandomize=True)
def test_fold_atom_coefficient_shortcut(l, c, shift, strict):
    """_fold_atom, which returns None on unequal variable parts before it
    subtracts, equals the fold of the difference l - r on every atom."""
    r = l + c if shift else c
    atom = Lt(l, r) if strict else Eq(l, r)
    v = qe_module._const_value(l - r)
    if v is None:
        expected = None
    else:
        zero = (0, 0) if isinstance(v, tuple) else 0
        expected = v < zero if strict else v == zero
    assert qe_module._fold_atom(atom) == expected


def _connect_one_set(cls, parts):
    """The reference for _connect: one set of leaves, in which each leaf's
    complement is built as a node and looked up."""
    unit, zero = (TRUE, FALSE) if cls is And else (FALSE, TRUE)
    out, seen = [], set()
    for p in parts:
        if p == zero:
            return zero
        if p == unit:
            continue
        for leaf in p.args if isinstance(p, cls) else (p,):
            if leaf in seen:
                continue
            if (leaf.arg if isinstance(leaf, Not) else Not(leaf)) in seen:
                return zero
            seen.add(leaf)
            out.append(leaf)
    return and_(*out) if cls is And else or_(*out)


_LITERALS = st.sampled_from([_a, _b, _c, Eq(_x, _y)]).flatmap(
    lambda atom: st.sampled_from([atom, Not(atom)]))


@st.composite
def _connect_parts(draw):
    cls = draw(st.sampled_from([And, Or]))
    other = Or if cls is And else And
    part = st.one_of(
        _LITERALS, st.sampled_from([TRUE, FALSE]),
        st.lists(_LITERALS, min_size=2, max_size=3).map(lambda ls: cls(tuple(ls))),
        st.lists(_LITERALS, min_size=2, max_size=2).map(lambda ls: other(tuple(ls))))
    return cls, draw(st.lists(part, max_size=6))


@given(_connect_parts())
@settings(max_examples=300, deadline=None, derandomize=True)
def test_connect_matches_one_set_reference(case):
    cls, parts = case
    assert qe_module._connect(cls, iter(parts)) == _connect_one_set(cls, parts)


# ---------------------------------------------------------------------------
# Presburger


def test_qe_collapses_doubling():
    assert print_formula(qe(Z, parse("E x. 2*x = y", Z))) == "D2(y)"


def test_qe_collapses_tripling():
    assert print_formula(qe(Z, parse("E x. 3*x = y", Z))) == "D3(y)"


def test_qe_unbounded_above():
    assert print_formula(qe(Z, parse("E x. x > y", Z))) == "true"


def test_qe_empty_integer_gap():
    assert print_formula(qe(Z, parse("E x. y < x & x < y + 1", Z))) == "false"


def test_qe_even_shifted_gap():
    out = qe(Z, parse("E x. y < 2*x & 2*x < y + 2", Z))
    assert out == Div(2, Term.var("y") + Term.const(1))


def test_qe_output_is_quantifier_free_on_corpus():
    for theory in corpus.CORPUS:
        for entry in corpus.entries(theory)[:12]:
            out = out_formula(qe(theory, parse(entry.text, theory)))
            assert is_quantifier_free(out), entry.text


@pytest.mark.parametrize("theory", [Z, Theory.PRES_N, Theory.DLO_PRED,
                                    Theory.DOAG_Q, Theory.TCHAIN])
def test_qe_idempotent(theory):
    for entry in corpus.entries(theory)[:12]:
        f = parse(entry.text, theory)
        once = qe(theory, f)
        assert qe(theory, once) == once, entry.text


@pytest.mark.parametrize("theory", [Theory.LEX_ZQ, Theory.LEX_ZZ])
def test_qe_lex_idempotent_on_components(theory):
    """Re-splitting a quantifier-free component output leaves it unchanged
    up to Boolean normalization (already one-sorted component formulas are
    fixed points of the eliminator)."""
    from qomin.qe import _eliminate, _cooper_exists
    for entry in corpus.entries(theory)[:8]:
        cf = qe(theory, parse(entry.text, theory))
        again = simplify(_eliminate(to_nnf(cf.formula), _cooper_exists))
        assert again == cf.formula, entry.text


def test_qe_metamorphic_negation():
    asg_w, search_w = corpus.windows(Z)
    for text in ["E x. 2*x = y", "E x. y < x & x < z", "E x. D2(x) & y < x & x < y + 3"]:
        f = parse(text, Z)
        a = qe(Z, Not(f))
        b = simplify(to_nnf(Not(qe(Z, f))))
        fvs = sorted(free_vars(f))
        for asg in _assignments(Z, fvs, asg_w):
            assert models.eval_qf(Z, a, asg) == models.eval_qf(Z, b, asg), text


def test_qe_metamorphic_conjunction():
    asg_w, _ = corpus.windows(Z)
    f = parse("E u. 2*u = y", Z)
    g = parse("E v. y < 3*v", Z)
    both = qe(Z, And((f, g)))
    split = And((qe(Z, f), qe(Z, g)))
    for asg in _assignments(Z, ["y"], asg_w):
        assert models.eval_qf(Z, both, asg) == models.eval_qf(Z, split, asg)


def _assignments(theory, fvs, window):
    import itertools
    elems = models.enumerate_window(theory, window)
    for combo in itertools.product(elems, repeat=len(fvs)):
        yield dict(zip(fvs, combo))


# ---------------------------------------------------------------------------
# The divisibility and floor identities


def expected_div_split(m, n):
    x, y = Term.var("x", n), Term.var("y")
    return Or(tuple(
        And((Div(m, x - Term.const(i)), Div(m, y + Term.const(i))))
        for i in range(m)
    ))


@pytest.mark.parametrize("m", [2, 3])
@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_rewrite_divisibility_matches_identity(m, n):
    assert rewrite_divisibility(m, n, Term.var("y")) == expected_div_split(m, n)


def test_rewrite_divisibility_two_one():
    out = rewrite_divisibility(2, 1, Term.var("y"))
    want = Or((
        And((Div(2, Term.var("x")), Div(2, Term.var("y")))),
        And((Div(2, Term.var("x") - Term.const(1)), Div(2, Term.var("y") + Term.const(1)))),
    ))
    assert out == want


def test_rewrite_divisibility_separates_variables():
    """No atom of the split mentions both x and a parameter."""
    out = rewrite_divisibility(3, 2, Term.var("y") + Term.const(1))
    from qomin.syntax import atoms, free_vars
    for atom in atoms(out):
        assert free_vars(atom) != {"x", "y"}


@pytest.mark.parametrize("m,n", [(2, 1), (2, 3), (3, 2)])
def test_rewrite_divisibility_oracle(m, n):
    lhs = Div(m, Term.var("x", n) + Term.var("y"))
    rhs = rewrite_divisibility(m, n, Term.var("y"))
    for x in range(-50, 51, 7):
        for y in range(-50, 51, 7):
            asg = {"x": x, "y": y}
            assert models.eval_qf(Z, lhs, asg) == models.eval_qf(Z, rhs, asg)


def test_isolate_equality_unit():
    assert isolate_x_equality(1, Term.var("y")) == Eq(Term.var("x"), Term.var("y"))


def test_isolate_equality_oracle():
    for n in (2, 3):
        t = Term.var("y") + Term.const(n - 1)
        out = isolate_x_equality(n, t)
        lhs = Eq(Term.var("x", n), t)
        for x in range(-60, 61, 9):
            for y in range(-60, 61, 9):
                asg = {"x": x, "y": y}
                assert models.eval_qf(Z, out, asg) == models.eval_qf(Z, lhs, asg)


def test_isolate_inequality_forms():
    assert isolate_x_inequality(1, Term.zero()) == Lt(Term.zero(), Term.var("x"))
    assert isolate_x_inequality(2, Term.var("y")) == Lt(Term.var("y"), Term.var("x", 2))


# ---------------------------------------------------------------------------
# Dense order with predicate


def test_dlo_between_with_predicate():
    D = Theory.DLO_PRED
    assert print_formula(qe(D, parse("E x. y < x & x < z & Qp(x)", D))) == "y < z"
    assert print_formula(qe(D, parse("E x. Qp(x)", D))) == "true"
    assert print_formula(qe(D, parse("E x. x = y & Qp(x)", D))) == "Qp(y)"
    assert print_formula(qe(D, parse("E x. y < x & x < z", D))) == "y < z"


# Generated dlo_pred blocks.  The corpus assignment window holds only dyadic
# points, where Qp(y) reads as true; this one holds thirds as well.  The
# search window puts a dyadic and a non-dyadic point in every gap between
# assignment points and past both ends, so one quantifier block is decided
# exactly by the oracle.
DLO_WINDOWS = (Window(Fraction(-2), Fraction(2), 3), Window(Fraction(-3), Fraction(3), 12))


def _is_dyadic(q):
    return q.denominator & (q.denominator - 1) == 0


def test_dlo_windows_separate_qp():
    asg, search = (models.enumerate_window(Theory.DLO_PRED, w) for w in DLO_WINDOWS)
    assert not all(map(_is_dyadic, asg)) and set(asg) <= set(search)
    points = sorted(asg)
    for lo, hi in zip([None, *points], [*points, None]):
        gap = [q for q in search if (lo is None or lo < q) and (hi is None or q < hi)]
        assert {_is_dyadic(q) for q in gap} == {True, False}, (lo, hi)


@st.composite
def _dlo_literal(draw):
    kind = draw(st.sampled_from(("<", "=", "Qp")))
    terms = st.sampled_from(("u", "y", "z"))
    text = f"Qp({draw(terms)})" if kind == "Qp" else f"{draw(terms)} {kind} {draw(terms)}"
    return f"~({text})" if draw(st.booleans()) else text


@st.composite
def _dlo_block(draw):
    # in a third of the draws an equality on u carries a Qp literal: a guard
    # of the E block, the antecedent of the A block
    lits = draw(st.lists(_dlo_literal(), min_size=1, max_size=3))
    body = f"({lits[0]})"
    for lit in lits[1:]:
        body = f"({body} {draw(st.sampled_from(('&', '|', '->', '<->')))} ({lit}))"
    quant = draw(st.sampled_from("EA"))
    if draw(st.integers(0, 2)) == 0:
        guard = f"u = {draw(st.sampled_from('yz'))} & {draw(st.sampled_from(('Qp(u)', '~Qp(u)')))}"
        body = f"{guard} {'&' if quant == 'E' else '->'} {body}"
    return f"{quant} u. {body}"


@settings(max_examples=40, deadline=None, derandomize=True)
@given(_dlo_block())
@example("E u. u = y & u = z & Qp(u)")
def test_dlo_pred_blocks_agree_with_oracle(text):
    D = Theory.DLO_PRED
    total, mismatches = oracle_agreement(D, parse(text, D), *DLO_WINDOWS)
    assert total > 0 and not mismatches, text


@pytest.mark.parametrize("text,expected", [
    ("E u. u = y & ~Qp(u)", "~Qp(y)"),
    ("E u. u < x & u = y & z < u & Qp(u)", "z < y & y < x & Qp(y)"),
])
def test_dlo_pred_qp_across_equality(text, expected):
    D = Theory.DLO_PRED
    assert print_formula(qe(D, parse(text, D))) == expected


# ---------------------------------------------------------------------------
# Naturals via relativization


def test_translate_nat_relativizes_exists():
    f = parse("E x. x + y = 1", Theory.PRES_N)
    out = translate_nat(f)
    assert print_formula(out) == "E x. (0 < x | 0 = x) & x + y = 1"


def test_translate_nat_keeps_tautologies():
    f = parse("A u. u + y = y + u", Theory.PRES_N)
    assert decide(Theory.PRES_N, parse("A u. A y. u + y = y + u", Theory.PRES_N))


def test_nat_vs_int_solvability():
    s = "E x. x + 1 = 0"
    assert not decide(Theory.PRES_N, parse(s, Theory.PRES_N))
    assert decide(Z, parse(s, Z))


# ---------------------------------------------------------------------------
# Divisible rational group


def test_doag_divisibility_and_density():
    G = Theory.DOAG_Q
    assert print_formula(qe(G, parse("E x. 2*x = y", G))) == "true"
    assert print_formula(qe(G, parse("E x. y < x & x < z", G))) == "y < z"
    assert print_formula(qe(G, parse("E x. y < 3*x & 2*x < z", G))) == "2*y < 3*z"


# ---------------------------------------------------------------------------
# Chain of classes


def test_tchain_class_without_minimum():
    T = Theory.TCHAIN
    assert print_formula(qe(T, parse("E x. S0(x, y) & x < y", T))) == "true"


def test_tchain_dense_between():
    T = Theory.TCHAIN
    out = qe(T, parse("E x. y < x & x < z", T))
    asg_w, search_w = corpus.windows(T)
    for asg in _assignments(T, ["y", "z"], asg_w):
        want = models.eval_windowed(T, parse("E x. y < x & x < z", T), asg, search_w)
        assert models.eval_qf(T, out, asg) == want


def test_tchain_composed_distances():
    """S1-from-y and S1-from-z witnesses exist exactly when the classes of y
    and z are equal or two apart."""
    T = Theory.TCHAIN
    out = qe(T, parse("E x. S1(x, y) & S1(x, z)", T))
    ref = parse("S0(y, z) | S2(y, z)", T)
    asg_w, _ = corpus.windows(T)
    for asg in _assignments(T, ["y", "z"], asg_w):
        assert models.eval_qf(T, out, asg) == models.eval_qf(T, ref, asg)


# Generated tchain blocks.  Literals relate u to y and z by at most one class
# (S_n with n <= 1), so one block needs a witness at most two classes beyond
# the assignment classes, of either parity, or a second coordinate between or
# beyond the assigned ones; the corpus search window holds all of these.
TCHAIN_WINDOWS = (Window((-1, Fraction(-1)), (1, Fraction(1)), 1), corpus.windows(Theory.TCHAIN)[1])


def test_tchain_windows_are_exact():
    asg, search = (models.enumerate_window(Theory.TCHAIN, w) for w in TCHAIN_WINDOWS)
    assert set(asg) <= set(search)
    lo, hi = min(a for a, _ in asg), max(a for a, _ in asg)
    classes = {a for a, _ in search}
    assert {c % 2 for c in classes if c >= hi + 2} == {0, 1}
    assert {c % 2 for c in classes if c <= lo - 2} == {0, 1}
    seconds = sorted({q for _, q in asg})
    for c in classes:
        inside = {q for a, q in search if a == c}
        for below, above in zip([None, *seconds], [*seconds, None]):
            assert any((below is None or below < q) and (above is None or q < above)
                       for q in inside), (c, below, above)


@st.composite
def _tchain_literal(draw):
    w = draw(st.sampled_from("yz"))
    kind = draw(st.sampled_from(("u < w", "w < u", "u = w", "P(u)", "S")))
    if kind == "S":
        args = draw(st.sampled_from((f"u, {w}", f"{w}, u")))
        text = f"S{draw(st.integers(0, 1))}({args})"
    else:
        text = kind.replace("w", w)
    return f"~({text})" if draw(st.booleans()) else text


@st.composite
def _tchain_block(draw):
    # in a third of the draws an equality on u guards the body, so the
    # pivot carries the other literals, predicates included, across it
    lits = draw(st.lists(_tchain_literal(), min_size=1, max_size=3))
    body = f"({lits[0]})"
    for lit in lits[1:]:
        body = f"({body} {draw(st.sampled_from(('&', '|', '->', '<->')))} ({lit}))"
    quant = draw(st.sampled_from("EA"))
    if draw(st.integers(0, 2)) == 0:
        guard = f"u = {draw(st.sampled_from('yz'))} & {draw(_tchain_literal())}"
        body = f"({guard}) {'&' if quant == 'E' else '->'} {body}"
    return f"{quant} u. {body}"


@settings(max_examples=40, deadline=None, derandomize=True)
@given(_tchain_block())
@example("E u. (u = z & S0(y, u)) & u < y")
def test_tchain_blocks_agree_with_oracle(text):
    T = Theory.TCHAIN
    total, mismatches = oracle_agreement(T, parse(text, T), *TCHAIN_WINDOWS)
    assert total > 0 and not mismatches, text


# tchain is the reduct of lex_zq to <, P = D2 and S_n(t, s) = del_n(t - s) |
# del_n(s - t), so qe over tchain and qe over lex_zq of the image must agree
# at every point.  Both outputs are quantifier-free, so the comparison over
# the assignment window is exact.  The image here reads every S_n, S_0
# included, symmetrically, independent of the engine's own translation.
def _lex_image(atom):
    match atom:
        case Pred("P", _, (t,)):
            return Div(2, t)
        case Pred("S", n, (t, s)):
            return Or((Pred("del", n, (t - s,)), Pred("del", n, (s - t,))))
    return atom


@st.composite
def _chain_literal(draw, scope):
    # two distinct variables; the innermost bound one is among them in half
    # the draws
    a = scope[0] if draw(st.booleans()) else draw(st.sampled_from(scope))
    b = draw(st.sampled_from([x for x in scope if x != a]))
    kind = draw(st.sampled_from(("<", "=", "P", "S")))
    if kind == "P":
        text = f"P({a})"
    elif kind == "S":
        args = draw(st.sampled_from(((a, b), (b, a))))
        text = f"S{draw(st.integers(0, 3))}({args[0]}, {args[1]})"
    else:
        text = f"{a} {kind} {b}"
    return f"~({text})" if draw(st.booleans()) else text


@st.composite
def _chain_formula(draw, scope, depth):
    # a block "Q w. body" of nested depth at most `depth`; the body joins up
    # to three parts, each a literal or, while depth allows, an inner block.
    # One <-> per body, joining literals only: <-> copies both sides in both
    # polarities, and draws with two of them, or with an inner block under
    # one, spend seconds in lex_zq or reach the DNF cap
    w = "uvw"[len(scope) - 2]
    inner = [w, *scope]
    body, iff_ok = f"({draw(_chain_literal(inner))})", True
    for _ in range(draw(st.integers(0, 2))):
        if depth > 1 and draw(st.integers(0, 3)) == 0:
            part, iff_ok = draw(_chain_formula(inner, depth - 1)), False
        else:
            part = draw(_chain_literal(inner))
        op = draw(st.sampled_from(("&", "|", "->", "<->") if iff_ok else ("&", "|", "->")))
        iff_ok = iff_ok and op != "<->"
        body = f"({body} {op} ({part}))"
    return f"{draw(st.sampled_from('EA'))} {w}. {body}"


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_chain_formula(["y", "z"], 2))
def test_tchain_qe_agrees_with_lex_zq_of_its_image(text):
    T, ZQ = Theory.TCHAIN, Theory.LEX_ZQ
    f = parse(text, T)
    try:
        out_t = qe(T, f)
        out_l = qe(ZQ, map_atoms(f, _lex_image))
    except ResourceCapError:
        assume(False)
    run_t = qe_module._compile_output(T, out_t)
    run_l = qe_module._compile_output(ZQ, out_l)
    for asg in _assignments(T, sorted(free_vars(f)), TCHAIN_WINDOWS[0]):
        assert run_t(asg) == run_l(asg), (text, asg)


# Each engine classifies literals through one routine, which rejects a
# literal on the variable that the engine has no rule for.
@pytest.mark.parametrize("engine,lit", [
    (qe_module._doag_exists, Div(2, Term.var("u"))),
    (qe_module._cooper_exists, Pred("Qp", None, (Term.var("u"),))),
    (qe_module._tchain_exists, Div(2, Term.var("u"))),
])
def test_engines_reject_foreign_literals(engine, lit):
    with pytest.raises(EvalError):
        engine("u", (lit,))


# The pruning and the read-back of tchain's lex_zq outputs, on component atoms
_xz, _yz, _wz = Term.var("x_z"), Term.var("y_z"), Term.var("w_z")
_x2, _y2 = Term.var("x_2"), Term.var("y_2")
_k = Term.const


@pytest.mark.parametrize("f, expected", [
    # on one linear form an And keeps the least bound, an Or the greatest
    (And((Lt(_xz, _yz + _k(2)), Lt(_xz, _yz))), Lt(_xz, _yz)),
    (Or((Lt(_xz, _yz + _k(2)), Lt(_xz, _yz))), Lt(_xz, _yz + _k(2))),
    (And((Lt(_xz + _k(1), _yz + _k(1)), Lt(_xz, _yz))), Lt(_xz + _k(1), _yz + _k(1))),
    (And((Or((Lt(_xz, _yz), Lt(_xz, _yz + _k(1)))), Lt(_xz, _yz + _k(3)))),
     Lt(_xz, _yz + _k(1))),
    # in an Or, p = c below some p < c' goes, in either orientation
    (Or((Eq(_xz, _yz + _k(1)), Lt(_xz, _yz + _k(2)))), Lt(_xz, _yz + _k(2))),
    (Or((Eq(_yz, _xz - _k(1)), Lt(_xz, _yz + _k(2)))), Lt(_xz, _yz + _k(2))),
    (Or((Eq(_xz, _yz + _k(2)), Lt(_xz, _yz + _k(2)))),
     Or((Eq(_xz, _yz + _k(2)), Lt(_xz, _yz + _k(2))))),
    (And((Eq(_xz, _yz + _k(1)), Lt(_xz, _yz + _k(2)))),
     And((Eq(_xz, _yz + _k(1)), Lt(_xz, _yz + _k(2))))),
    # other forms, and the two orientations of one difference, stay
    (Or((Lt(_xz, _yz), Lt(_xz, _wz + _k(1)))), Or((Lt(_xz, _yz), Lt(_xz, _wz + _k(1))))),
    (Or((Lt(_xz, _yz), Lt(_yz, _xz + _k(1)))), Or((Lt(_xz, _yz), Lt(_yz, _xz + _k(1))))),
    (And((Lt(_xz, _yz + _k(1)), Lt(_yz, _xz))), And((Lt(_xz, _yz + _k(1)), Lt(_yz, _xz)))),
    # second-coordinate atoms
    (Or((Lt(_x2, _y2), Eq(_x2, _y2), Lt(_y2, _x2))), Or((Lt(_x2, _y2), Eq(_x2, _y2), Lt(_y2, _x2)))),
    (And((Lt(_x2, _y2), Lt(_x2 - _y2, Term.zero()))), Lt(_x2, _y2)),
])
def test_prune_table(f, expected):
    assert qe_module._prune(f) == expected


_PAIRS = (("w", "w_z", "w_2"), ("x", "x_z", "x_2"), ("y", "y_z", "y_2"))


@pytest.mark.parametrize("atom, expected", [
    (Div(2, _xz + _k(3)), "~P(x)"),
    (Not(Div(2, _xz - _k(2))), "~P(x)"),
    (Eq(_xz, _yz), "S0(x, y)"),
    (Eq(_xz + _k(2), _yz), "S2(x, y) & x < y"),
    (Eq(_yz, _xz + _k(2)), "S2(y, x) & x < y"),
    (Lt(_xz, _yz), "x < y & ~S0(x, y)"),
    (Lt(_xz + _k(1), _yz), "x < y & ~S0(x, y) & ~S1(x, y)"),
    (Lt(_xz, _yz + _k(2)), "x < y | S0(x, y) | S1(x, y)"),
    (Lt(_x2, _y2), "x < y"),
    (Eq(_y2, _x2), "y = x"),
])
def test_from_lex_reading(atom, expected):
    cf = ComponentFormula(Theory.LEX_ZQ, atom, _PAIRS)
    assert print_formula(qe_module._from_lex(cf)) == expected


@pytest.mark.parametrize("atom", [
    Div(3, _xz),
    Lt(_xz + _yz, Term.zero()),
    Lt(_xz - _yz, _wz),
    Lt(_xz, _y2),
    Lt(_x2, _y2 + _k(1)),
])
def test_from_lex_rejects_other_shapes(atom):
    with pytest.raises(EvalError):
        qe_module._from_lex(ComponentFormula(Theory.LEX_ZQ, atom, _PAIRS))


# ---------------------------------------------------------------------------
# Lexicographic products


def test_lex_split_order_atom():
    cf = lex_split(Theory.LEX_ZQ, parse("x < y", Theory.LEX_ZQ))
    assert print_formula(cf.formula) == "x_z < y_z | x_z = y_z & x_2 < y_2"


def test_lex_split_divisibility():
    zq = lex_split(Theory.LEX_ZQ, parse("D2(x)", Theory.LEX_ZQ))
    assert print_formula(zq.formula) == "D2(x_z)"
    zz = lex_split(Theory.LEX_ZZ, parse("D2(x)", Theory.LEX_ZZ))
    assert print_formula(zz.formula) == "D2(x_z) & D2(x_2)"


def test_lex_split_coset_atom():
    cf = lex_split(Theory.LEX_ZQ, parse("del1(x)", Theory.LEX_ZQ))
    assert print_formula(cf.formula) == "x_z = 1"


def test_qe_lex_doubling():
    zq = qe(Theory.LEX_ZQ, parse("E x. 2*x = y", Theory.LEX_ZQ))
    assert print_formula(zq.formula) == "D2(y_z)"
    zz = qe(Theory.LEX_ZZ, parse("E x. 2*x = y", Theory.LEX_ZZ))
    assert set(print_formula(zz.formula).split(" & ")) == {"D2(y_z)", "D2(y_2)"}


def test_qe_lex_between_is_order():
    """The component output of the between formula agrees with y < z over
    the densely ordered product."""
    ZQ = Theory.LEX_ZQ
    f = parse("E x. y < x & x < z", ZQ)
    cf = qe(ZQ, f)
    asg_w, _ = corpus.windows(ZQ)
    for asg in _assignments(ZQ, ["y", "z"], asg_w):
        assert eval_component(cf, asg) == (asg["y"] < asg["z"])


def test_decide_coset_parity_conflict():
    assert not decide(Theory.LEX_ZQ, parse("E x. del1(x) & D2(x)", Theory.LEX_ZQ))
    assert decide(Theory.LEX_ZQ, parse("E x. del2(x) & D2(x)", Theory.LEX_ZQ))


# ---------------------------------------------------------------------------
# Dispatcher-level behavior


def test_decide_commutativity():
    assert decide(Z, parse("A x. A y. x + y = y + x", Z))


def test_decide_odd_unit():
    assert not decide(Z, parse("E x. x + x = 1", Z))


def test_decide_requires_sentence():
    with pytest.raises(NonSentenceError):
        decide(Z, parse("x < y", Z))


def test_qe_unsupported_theory():
    with pytest.raises(UnsupportedTheoryError):
        qe(Theory.DYADIC, parse("E x. 2*x = y", Theory.DYADIC))


def test_decide_agrees_with_windowed_oracle_on_sentences():
    for theory in corpus.CORPUS:
        _, search_w = corpus.windows(theory)
        for entry in corpus.entries(theory):
            f = parse(entry.text, theory)
            if free_vars(f):
                continue
            assert decide(theory, f) == models.eval_windowed(theory, f, {}, search_w), entry.text


def test_oracle_agreement_smoke():
    total, mismatches = oracle_agreement(Z, parse("E x. 2*x = y", Z), Window(-6, 6), Window(-12, 12))
    assert total == 13 and not mismatches


# ---------------------------------------------------------------------------
# A bound variable whose coefficients cancel does not leak out of QE

CANCELLED = [
    (Theory.PRES_Z, "E u. u + y < u + z"),
    (Theory.PRES_N, "E u. u + y < u + z"),
    (Theory.DOAG_Q, "E u. u + y < u + z"),
    (Theory.LEX_ZQ, "E u. u + y < u + z"),
    (Theory.LEX_ZZ, "E u. u + y = u + z"),
    (Theory.PRES_Z, "A u. u + y < u + z"),
]


@pytest.mark.parametrize("theory,text", CANCELLED)
def test_cancelled_bound_variable_is_eliminated(theory, text):
    f = parse(text, theory)
    out = qe(theory, f)
    if isinstance(out, ComponentFormula):
        allowed = {n for orig, z, s in out.pairs if orig in free_vars(f) for n in (z, s)}
    else:
        allowed = free_vars(f)
    assert free_vars(out_formula(out)) <= allowed
    total, mismatches = oracle_agreement(theory, f, *corpus.windows(theory))
    assert total > 0 and not mismatches


def test_cancelled_bound_variable_output():
    assert print_formula(qe(Z, parse("E u. u + y < u + z", Z))) == "y - z < 0"


# ---------------------------------------------------------------------------
# Cooper's equality pivot: v = s/n is substituted, not bracketed by bounds

PIVOTS = [
    ("E x. 2*x = y & x < z & D3(x + 1)", "D2(y) & y < 2*z & D6(y + 2)"),
    ("E x. x = y & x < z & D3(x + 1)", "y < z & D3(y + 1)"),
    ("E x. x = y & x = y + 1", "false"),
]


@pytest.mark.parametrize("text,expected", PIVOTS)
def test_equality_pivot_output(text, expected):
    assert print_formula(qe(Z, parse(text, Z))) == expected


@given(st.integers(-24, 0), st.integers(0, 24), st.integers(1, 3),
       st.integers(-2, 2), st.integers(-4, 4),
       st.sampled_from([None, "lower", "upper"]),
       st.sampled_from([None, 2, 3, 4]), st.booleans(), st.integers(-2, 2))
@settings(max_examples=60, deadline=None, derandomize=True)
def test_equality_pivot_agrees_with_oracle(lo, hi, a, cy, k, bound, m, positive, cz):
    # the box lo < u < hi inside the search window keeps the oracle exact
    u, z = Term.var("u"), Term.var("z")
    lits = [Lt(Term.const(lo), u), Lt(u, Term.const(hi)),
            Eq(Term.var("u", a), Term.make({"y": cy}, {"1": k}))]
    if bound is not None:
        lits.append(Lt(z, u) if bound == "lower" else Lt(u, z))
    if m is not None:
        div = Div(m, u + Term.make({"z": cz}, {"1": k}))
        lits.append(div if positive else Not(div))
    f = Exists("u", and_(*lits))
    total, mismatches = oracle_agreement(Z, f, *corpus.windows(Z))
    assert total > 0 and not mismatches, print_formula(f)


# ---------------------------------------------------------------------------
# Universals: no elimination of an absent variable, no blowup on del rows


def test_vacuous_universal_is_dropped():
    assert print_formula(qe(Z, parse("A u. y < z", Z))) == "y < z"


def _count_cooper_calls(monkeypatch) -> list[str]:
    """The variables of every later _cooper_exists call, in call order."""
    calls = []
    cooper = qe_module._cooper_exists

    def counted(v, lits):
        calls.append(v)
        return cooper(v, lits)

    monkeypatch.setattr(qe_module, "_cooper_exists", counted)
    return calls


@pytest.mark.parametrize("theory", [Theory.LEX_ZQ, Theory.LEX_ZZ])
def test_del_rows_need_few_cooper_calls(theory, monkeypatch):
    calls = _count_cooper_calls(monkeypatch)
    out = qe(theory, parse("~(E u. del0(u) & del1(u))", theory))
    assert print_formula(out.formula) == "true"
    assert 0 < len(calls) <= 16


def test_e_a_row_needs_few_cooper_calls(monkeypatch):
    # the inner universal leaves clauses whose DNF holds 67,500 conjuncts
    # under the outer E u, most of them empty intervals on one form; with
    # those dropped before the engine runs, 66 Cooper calls remain
    calls = _count_cooper_calls(monkeypatch)
    text = "E u. -7 < u & u < -4 & (A v. 4 < v & v < 8 -> (2*v <= -1 <-> 2*v - u <= 3))"
    assert print_formula(qe(Z, parse(text, Z))) == "true"
    assert len(calls) <= 100


@pytest.mark.parametrize("m,n", [(7, 5), (31, 29), (97, 89)])
def test_one_sided_divisibilities_need_no_branches(m, n, monkeypatch):
    # y has a lower bound only, so Cooper takes the unbounded side; its
    # positive divisibilities are decided by the Chinese remainder theorem,
    # where one branch per residue made 900 Cooper calls for D31/D29
    calls = _count_cooper_calls(monkeypatch)
    text = f"E x. E y. D{m}(x + y) & D{n}(x - y) & z < x & z < y"
    start = time.perf_counter()
    assert print_formula(qe(Z, parse(text, Z))) == "true"
    assert time.perf_counter() - start < 1.0
    assert len(calls) <= 2


@pytest.mark.parametrize("bound", ["", " & y < v", " & v < y", " & ~D2(v + y)"])
@pytest.mark.parametrize("m,n", [(2, 2), (2, 4), (3, 3), (3, 6), (4, 4), (4, 6)])
def test_one_sided_divisibilities_agree_with_oracle(m, n, bound):
    # Cooper's period is at most 24, so the search window holds a witness
    # above (below) every assignment whenever one exists
    for c in range(-1, 3):
        text = f"E v. D{m}(v + y + {c}) & D{n}(2*v - y){bound}"
        total, mismatches = oracle_agreement(Z, parse(text, Z), Window(-4, 4), Window(-40, 40))
        assert total > 0 and not mismatches, text


# ---------------------------------------------------------------------------
# Cooper's literal builders decide a ground literal as they build it, to the
# value that simplify gives the plain atom

_GROUND = [Term.const(k) for k in range(-6, 7)]


def test_lt_builder_agrees_with_simplify():
    for l in _GROUND:
        for r in _GROUND:
            assert qe_module._lt(l, r) == simplify(Lt(l, r)), (l, r)
            # the negation, as the integer-sorted negate_atom builds it
            assert qe_module._lt(r, l + _one) == simplify(Not(Lt(l, r))), (l, r)


@pytest.mark.parametrize("m", [1, 2, 3, 4, 6])
@pytest.mark.parametrize("positive", [True, False])
def test_div_builder_agrees_with_simplify(m, positive):
    for t in _GROUND:
        lit = qe_module._div_lit(m, t, positive)
        if m == 1:  # D_1 holds everywhere
            assert lit == (TRUE if positive else FALSE)
        else:
            assert lit == simplify(Div(m, t) if positive else Not(Div(m, t))), t


@pytest.mark.parametrize("l,r", [(_x, _one), (_one, _x + _one), (_z1, _two), (_one, _pp1)])
def test_builders_keep_literals_that_are_not_integer(l, r):
    # a variable, or a constant other than 1, leaves the literal to simplify
    assert qe_module._lt(l, r) == Lt(l, r)
    assert qe_module._div_lit(3, l + r, True) == Div(3, l + r)
    assert qe_module._div_lit(3, l + r, False) == Not(Div(3, l + r))


# ---------------------------------------------------------------------------
# The interval prune of _eliminate: a DNF conjunct whose Lt/Eq literals bound
# one primitive linear form to an empty interval is dropped before the engine
# runs.  Over the integers strict bounds are tightened and an equality needs
# its gcd to divide its constant; over the rationals neither holds.

PRUNE_INT = models.enumerate_window(Z, Window(-8, 8))
PRUNE_RAT = models.enumerate_window(Theory.DOAG_Q, Window(Fraction(-2), Fraction(2), 6))
# (integer-sort variables, the theory a conjunct is evaluated in): pres_z,
# doag_q, and the lex_zq components with x = x_z an integer and y = y_2 a
# rational coordinate, evaluated in doag_q as qe evaluates component output
PRUNE_SORTS = {"pres_z": ({"x", "y"}, Z), "doag_q": (set(), Theory.DOAG_Q),
               "lex_zq": ({"x"}, Theory.DOAG_Q)}


def _pruned(conj, ints) -> bool:
    return qe_module._empty_interval(conj, qe_module._interval_reader(ints.__contains__))


@pytest.mark.parametrize("text,pres_z,doag_q,lex_zq", [
    # empty over pres_z only: strict bounds tighten, 2 does not divide 1
    ("2*x = 1", True, False, True),
    ("x < y & y < x + 1", True, False, False),
    ("3*x < 3*y + 2 & y < x", True, False, False),
    # empty everywhere: a point meets a strict bound, two orientations meet
    ("x = y + 1 & x < y + 1", True, True, True),
    ("2*x < 2*y & y < x", True, True, True),
    # empty nowhere
    ("2*x < 2*y + 3 & y < x", False, False, False),
])
def test_prune_reads_each_sort(text, pres_z, doag_q, lex_zq):
    # with y a rational coordinate, as in the lex_zq components, a form in
    # x and y is dense
    f = parse(text, Z)
    conj = f.args if isinstance(f, And) else (f,)
    expected = {"pres_z": pres_z, "doag_q": doag_q, "lex_zq": lex_zq}
    assert {name: _pruned(conj, ints) for name, (ints, _) in PRUNE_SORTS.items()} == expected


@st.composite
def _prune_literal(draw):
    # a multiple of one of a few forms in x and y, its sides split at random,
    # so that literals on one form meet often and in both orientations
    a, b = draw(st.sampled_from([(1, 0), (0, 1), (1, -1), (1, 1), (2, -1)]))
    k = draw(st.sampled_from([-3, -2, -1, 1, 2, 3]))
    a, b = a * k, b * k
    c, shift = draw(st.integers(-4, 4)), draw(st.integers(-2, 2))
    left = Term.make({"x": a}, {"1": shift})
    right = Term.make({"y": -b}, {"1": c + shift})
    if draw(st.booleans()):
        left, right = left - right, Term.zero()
    atom = draw(st.sampled_from([Lt(left, right), Lt(right, left), Eq(left, right),
                                 Div(2, left)]))
    return Not(atom) if draw(st.integers(0, 4)) == 0 else atom


# cost: about 1.5 s.  Of the 300 draws, 60 are dropped, and each of those is
# evaluated at every point of its window (2,401 for two rational variables)
@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(_prune_literal(), min_size=1, max_size=4), st.sampled_from(sorted(PRUNE_SORTS)))
def test_pruned_conjuncts_have_no_point(lits, sorts):
    import itertools
    ints, theory = PRUNE_SORTS[sorts]
    conj = tuple(dict.fromkeys(lits))
    if not _pruned(conj, ints):
        return
    holds = models.compile_eval(theory, and_(*conj))
    windows = [PRUNE_INT if v in ints else PRUNE_RAT for v in ("x", "y")]
    for x, y in itertools.product(*windows):
        assert not holds({"x": x, "y": y}), (sorts, [str(lit) for lit in conj], x, y)


# ---------------------------------------------------------------------------
# Sort-aware negation: over the integers ~(a < b) is the one atom b < a + 1,
# while the lex_zq second coordinates keep trichotomy

SORT_TEXTS = ["A u. y < u -> z < u", "E u. ~(u < y) & ~(z < u)", "A u. u < y | z < u"]
LEX_ZZ_UNIVERSAL = "A u. y < u & u < z -> D2(u) | D3(u + 1p)"
SORTED_NEGATION = [
    *((theory, text) for theory in (Theory.LEX_ZQ, Theory.LEX_ZZ, Z, Theory.PRES_N)
      for text in SORT_TEXTS),
    (Theory.LEX_ZZ, LEX_ZZ_UNIVERSAL),
    (Theory.LEX_ZQ, "A u. u < y & y < u -> del1(u)"),
    (Theory.LEX_ZQ, "A u. u < y -> u < y + 1Z"),
]


@pytest.mark.parametrize("theory,text", SORTED_NEGATION)
def test_sorted_negation_agrees_with_oracle(theory, text):
    total, mismatches = oracle_agreement(theory, parse(text, theory), *corpus.windows(theory))
    assert total > 0 and not mismatches


def test_lex_universal_output_stays_small():
    # 2,555 atoms when each negated bound was a disjunction b < a | b = a
    out = qe(Theory.LEX_ZZ, parse(LEX_ZZ_UNIVERSAL, Theory.LEX_ZZ))
    assert len(list(atoms(out.formula))) <= 150


# Boxed universals and E-A alternations, drawn on the integer theories.  Every
# quantifier is relativized to a box with strict bounds inside the corpus
# search window (a lex_zz box fixes the first coordinate), so the window
# oracle is exact.
def _int_const(theory, k):
    return f"{k}*1p" if theory == Theory.LEX_ZZ else str(k)


@st.composite
def _int_box(draw, theory, v):
    # the box holds lo..hi (lex_zz: (first, lo)..(first, hi))
    if theory == Theory.LEX_ZZ:
        first, lo = draw(st.integers(-3, 3)), draw(st.integers(-4, 3))
        hi = draw(st.integers(lo, min(lo + 3, 4)))
        return (f"{first}*1pp + {lo - 1}*1p < {v} & "
                f"{v} < {first}*1pp + {hi + 1}*1p")
    lo = draw(st.integers(0 if theory == Theory.PRES_N else -8, 8))
    hi = lo + draw(st.integers(1, 4))
    return f"{lo - 1} < {v} & {v} < {hi + 1}"


@st.composite
def _int_atom(draw, theory, bound, others):
    text = f"{draw(st.sampled_from((1, 2)))}*{bound}"
    if others and draw(st.booleans()):
        c = draw(st.sampled_from((-1, 1, 2)))
        text += f" {'-' if c < 0 else '+'} {abs(c)}*{draw(st.sampled_from(others))}"
    k = _int_const(theory, draw(st.integers(-4, 4)))
    if draw(st.integers(0, 4)) == 0:
        return f"D{draw(st.sampled_from((2, 3)))}({text} + {k})"
    return f"{text} {draw(st.sampled_from(('<', '>', '<=', '>=', '=')))} {k}"


@st.composite
def _int_body(draw, theory, bound, others, connectives):
    first = draw(_int_atom(theory, bound, others))
    op = draw(st.sampled_from(("", "~", "&", "|", "->", "<->") if connectives else ("", "~")))
    if op in ("", "~"):
        return f"{op}({first})"
    return f"({first}) {op} ({draw(_int_atom(theory, bound, others))})"


@st.composite
def _int_alternation(draw, theory):
    # L is one literal, except under a single pres universal: two-atom bodies
    # under E-A or on lex_zz can cost a minute per draw or reach the DNF cap,
    # as simplify does not yet fold bounds on one linear form
    if draw(st.booleans()):
        others = draw(st.sampled_from((["y"], ["y", "z"])))
        body = draw(_int_body(theory, "u", others, theory != Theory.LEX_ZZ))
        return f"A u. {draw(_int_box(theory, 'u'))} -> ({body})"
    inner = (f"A v. {draw(_int_box(theory, 'v'))} -> "
             f"({draw(_int_body(theory, 'v', ['u', 'y'], False))})")
    return f"E u. {draw(_int_box(theory, 'u'))} & ({inner})"


@pytest.mark.parametrize("theory", [Z, Theory.PRES_N, Theory.LEX_ZZ])
@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data())
def test_boxed_alternations_agree_with_oracle(theory, data):
    text = data.draw(_int_alternation(theory))
    total, mismatches = oracle_agreement(theory, parse(text, theory), *corpus.windows(theory))
    assert total > 0 and not mismatches, text
