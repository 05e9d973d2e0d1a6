"""Parser, printer, term normalization, substitution, NNF, node contract."""

import copy
import dataclasses
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from qomin import corpus, syntax
from qomin.cli import run
from qomin.errors import ParseError, SignatureError
from qomin.models import Window, eval_qf, eval_windowed
from qomin.qe import dnf
from qomin.syntax import (
    FALSE, TRUE, And, Bool, Div, Eq, Exists, Forall, Iff, Implies, Lt, Not, Or, Pred,
    Solved, Term, Theory, free_vars, parse, print_formula, rebuild, solve_for,
    standardize, substitute, to_nnf, validate,
)

Z = Theory.PRES_Z


def test_parse_exists_equation():
    f = parse("E x. 2*x = y", Z)
    assert f == Exists("x", Eq(Term.var("x", 2), Term.var("y")))


def test_parse_divisibility_atom():
    assert parse("D3(x + 1)", Z) == Div(3, Term.var("x") + Term.const(1))


def test_parse_rejects_foreign_predicate():
    with pytest.raises(SignatureError):
        parse("P(x)", Z)


def test_parse_rejects_bad_modulus():
    with pytest.raises(ParseError):
        parse("D1(x)", Z)
    with pytest.raises(ParseError):
        parse("D0(x)", Z)


def test_parse_rejects_group_ops_in_order_only_theories():
    with pytest.raises(SignatureError):
        parse("x + y < z", Theory.DLO_PRED)
    with pytest.raises(SignatureError):
        parse("x < 1", Theory.TCHAIN)


def test_parse_rejects_foreign_constants():
    with pytest.raises(SignatureError):
        parse("x = 1Z", Z)
    with pytest.raises(SignatureError):
        parse("x = 1p", Theory.LEX_ZQ)


def test_print_examples():
    assert print_formula(parse("E x. 2*x = y", Z)) == "E x. 2*x = y"
    assert print_formula(parse("D3(x + 1)", Z)) == "D3(x + 1)"
    assert print_formula(parse("x < y & y < z", Z)) == "x < y & y < z"


def test_nonstrict_desugars():
    assert parse("x <= y", Z) == Or((Lt(Term.var("x"), Term.var("y")),
                                     Eq(Term.var("x"), Term.var("y"))))
    assert parse("x > y", Z) == Lt(Term.var("y"), Term.var("x"))


@pytest.mark.parametrize("theory", list(corpus.CORPUS))
def test_round_trip_on_corpus(theory):
    for entry in corpus.entries(theory):
        f = parse(entry.text, theory)
        assert parse(print_formula(f), theory) == f


def test_term_canonical_examples():
    x, y = Term.var("x"), Term.var("y")
    assert x + x - y == Term.make({"x": 2, "y": -1})
    assert x - x == Term.zero()
    t = Term.const(1, "1Z") + Term.const(1, "1Z") + Term.var("x")
    assert t == Term.make({"x": 1}, {"1Z": 2})
    assert str(t) == "x + 2*1Z"


@given(st.dictionaries(st.sampled_from("xyzuv"), st.integers(-5, 5), max_size=4),
       st.dictionaries(st.sampled_from(["1"]), st.integers(-5, 5), max_size=1))
@settings(max_examples=60, deadline=None)
def test_term_make_idempotent(coeffs, consts):
    t = Term.make(coeffs, consts)
    assert Term.make(dict(t.coeffs), dict(t.consts)) == t


def _reference(a, b, k: int) -> dict[str, int]:
    """The non-zero entries of a + k*b, summed in a dict."""
    out = dict(a)
    for name, c in b:
        out[name] = out.get(name, 0) + k * c
    return {name: c for name, c in out.items() if c}


def _assert_canonical(t: Term) -> None:
    for pairs in (t.coeffs, t.consts):
        names = [name for name, _ in pairs]
        assert names == sorted(set(names))
        assert all(c != 0 for _, c in pairs)


_UNITS = ["1", "1Z", "1p", "1pp"]
_TERMS = st.builds(Term.make,
                   st.dictionaries(st.sampled_from("xyz"), st.integers(-3, 3), max_size=3),
                   st.dictionaries(st.sampled_from(_UNITS), st.integers(-3, 3), max_size=3))


@given(_TERMS, _TERMS, st.integers(-3, 3), st.sampled_from("xyzu"))
@settings(max_examples=300, deadline=None, derandomize=True)
def test_term_arithmetic_matches_dict_reference(a, b, n, v):
    """+, -, scale and coeff agree with dict arithmetic through Term.make, and
    every result is canonical: sorted by name, without zero coefficients."""
    for got, k in ((a + b, 1), (a - b, -1)):
        _assert_canonical(got)
        assert got == Term.make(_reference(a.coeffs, b.coeffs, k), _reference(a.consts, b.consts, k))
    assert b - a + a == b
    scaled = a.scale(n)
    _assert_canonical(scaled)
    assert scaled == Term.make({x: c * n for x, c in a.coeffs}, {s: c * n for s, c in a.consts})
    assert a.coeff(v) == dict(a.coeffs).get(v, 0)


def test_validate_error_texts():
    """validate names the offending atom, printed, in its message."""
    cases = [
        (Eq(Term.var("x"), Term.const(1, "1Z")), Z,
         "constant '1Z' not in the pres_z signature (x = 1Z)"),
        (Div(2, Term.var("x") + Term.const(1, "1p")), Theory.LEX_ZQ,
         "constant '1p' not in the lex_zq signature (D2(x + 1p))"),
        (Lt(Term.var("x") + Term.var("y"), Term.var("z")), Theory.DLO_PRED,
         "theory dlo_pred has no group operations; term x + y is not a variable (x + y < z)"),
        (Pred("S", 0, (Term.var("x", 2), Term.var("z"))), Theory.TCHAIN,
         "theory tchain has no group operations; term 2*x is not a variable (S0(2*x, z))"),
    ]
    for f, theory, text in cases:
        with pytest.raises(SignatureError) as err:
            validate(f, theory)
        assert str(err.value) == text


def _formulas(theory: Theory):
    """Formula trees over the theory's signature: its constants, D_m when it
    has divisibility, its predicates, bare variables only in the order-only
    theories, and binder names drawn from the free names, so that binders
    repeat and shadow."""
    sig = syntax._SIGNATURE[theory]
    names = st.sampled_from("xyzu")
    if sig["group"]:
        terms = st.builds(Term.make,
                          st.dictionaries(names, st.integers(-3, 3), max_size=3),
                          st.dictionaries(st.sampled_from(sorted(sig["consts"])),
                                          st.integers(-3, 3), max_size=2))
    else:
        terms = names.map(Term.var)
    leaves = [st.builds(Lt, terms, terms), st.builds(Eq, terms, terms),
              st.sampled_from([TRUE, FALSE])]
    if sig["div"]:
        leaves.append(st.builds(Div, st.integers(2, 7), terms))
    for name in sorted(sig["preds"]):
        if name == "S":
            leaves.append(st.builds(lambda k, a, b: Pred("S", k, (a, b)),
                                    st.integers(0, 3), terms, terms))
        elif name == "del":
            leaves.append(st.builds(lambda k, t: Pred("del", k, (t,)), st.integers(0, 3), terms))
        else:
            leaves.append(terms.map(lambda t, name=name: Pred(name, None, (t,))))

    def extend(children):
        parts = st.lists(children, min_size=2, max_size=3).map(tuple)
        return st.one_of(st.builds(Not, children), parts.map(And), parts.map(Or),
                         st.builds(Implies, children, children), st.builds(Iff, children, children),
                         st.builds(Exists, names, children), st.builds(Forall, names, children))

    return st.recursive(st.one_of(leaves), extend, max_leaves=8)


_TREES = {theory: _formulas(theory) for theory in Theory}


# 40 trees over each of the eight signatures: about 1.5 s in all
@pytest.mark.parametrize("theory", list(Theory), ids=[t.value for t in Theory])
@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data())
def test_parse_reads_printed_trees_as_their_standard_form(theory, data):
    """The parser reads a printed tree back as the tree with its binders
    renamed apart, makes no signature complaint that validate would not
    make, and leaves nothing for standardize to do."""
    g = data.draw(_TREES[theory])
    f = parse(print_formula(g), theory)
    assert f == standardize(g)
    validate(f, theory)
    assert standardize(f) == f


# malformed inputs: the exception, its message and the exit code of
# `qomin parse`, all as before the parser made validate's checks itself
_MALFORMED = [
    ("dlo_pred", "x + y < z", SignatureError,
     "theory dlo_pred has no group operations; term x + y is not a variable (x + y < z)"),
    ("pres_z", "D1(x)", ParseError, "divisibility modulus must be >= 2, got 1 (at position 0)"),
    ("pres_z", "x <", ParseError, "expected a term, found '' (at position 3)"),
    ("pres_z", "x $ y", ParseError, "unexpected character '$' (at position 2)"),
    ("pres_z", "x < 1_", ParseError, "unexpected character '_' (at position 5)"),
    ("pres_z", "P(x)", SignatureError, "predicate 'P' not in the pres_z signature"),
    ("pres_z", "x = 1Z", SignatureError, "constant '1Z' not in the pres_z signature"),
    ("lex_zq", "x = 1p", SignatureError, "constant '1p' not in the lex_zq signature"),
    ("tchain", "x < 1", SignatureError,
     "numeral 1 not expressible: theory tchain has no unit constant"),
    ("tchain", "S1(x, y + y)", SignatureError,
     "theory tchain has no group operations; term 2*y is not a variable (S1(x, 2*y))"),
    ("dlo_pred", "Qp(x) & y > 2*z", SignatureError,
     "theory dlo_pred has no group operations; term 2*z is not a variable (2*z < y)"),
    ("dlo_pred", "x >= 0", SignatureError,
     "theory dlo_pred has no group operations; term 0 is not a variable (0 < x)"),
    # a syntax error after the term outside the signature is still the error
    ("dlo_pred", "x + y < z & (", ParseError, "expected a term, found '' (at position 13)"),
    ("dlo_pred", "x < y & P(x)", SignatureError, "predicate 'P' not in the dlo_pred signature"),
    ("doag_q", "D2(x)", SignatureError, "divisibility D2 not in the doag_q signature"),
    ("pres_z", "E X. x < 1", ParseError, "bad quantified variable 'X' (at position 2)"),
    ("pres_z", "x < y )", ParseError, "trailing input ')' (at position 6)"),
    ("pres_z", "x < true", ParseError, "bad variable name 'true' (at position 4)"),
    ("pres_z", "Foo(x) < 1", ParseError, "bad variable name 'Foo' (at position 0)"),
    ("pres_z", "x y", ParseError, "expected a relation symbol, found 'y' (at position 2)"),
    ("tchain", "S1(x) | x = y", ParseError, "expected ',', found ')' (at position 4)"),
    ("lex_zz", "del2(x) < y", ParseError, "trailing input '<' (at position 8)"),
]


@pytest.mark.parametrize("theory,text,error,message", _MALFORMED,
                         ids=[f"{t}-{x}" for t, x, _, _ in _MALFORMED])
def test_malformed_input_error_and_exit_code(capsys, theory, text, error, message):
    with pytest.raises(error) as err:
        parse(text, Theory(theory))
    assert type(err.value) is error and str(err.value) == message
    assert run(["parse", "--theory", theory, text]) == 3
    out = capsys.readouterr()
    assert (out.out, out.err) == ("", f"qomin: {message}\n")


def test_free_vars_examples():
    assert free_vars(parse("E x. x = y", Z)) == {"y"}
    assert free_vars(parse("x < y", Z)) == {"x", "y"}
    assert free_vars(parse("A x. A y. x + y = y + x", Z)) == set()


def test_substitute_simple():
    f = parse("x < y", Z)
    g = substitute(f, {"y": Term.var("x") + Term.const(1)})
    assert g == parse("x < x + 1", Z)


def test_substitute_capture_avoids():
    f = parse("E x. x = y", Z)
    g = substitute(f, {"y": Term.var("x")})
    assert g == Exists("x_1", Eq(Term.var("x_1"), Term.var("x")))


def test_substitute_into_divisibility():
    f = parse("D2(y)", Z)
    assert substitute(f, {"y": Term.var("z", 2)}) == Div(2, Term.var("z", 2))


def test_nnf_order_negation():
    f = to_nnf(Not(parse("x < y", Z)))
    assert f == parse("y < x | y = x", Z)


def test_nnf_integer_order_negation():
    everything = lambda v: True  # noqa: E731
    assert to_nnf(Not(parse("x < y", Z)), everything) == parse("y < x + 1", Z)
    # one integer variable makes the atom integer; equality keeps trichotomy
    assert to_nnf(Not(parse("x < y", Z)), {"x"}.__contains__) == parse("y < x + 1", Z)
    assert to_nnf(Not(parse("x < y", Z)), {"z"}.__contains__) == parse("y < x | y = x", Z)
    assert to_nnf(Not(parse("x = y", Z)), everything) == parse("x < y | y < x", Z)
    assert to_nnf(Not(parse("D2(x)", Z)), everything) == Not(parse("D2(x)", Z))


def test_nnf_pushes_through_quantifiers():
    f = to_nnf(Not(parse("E x. D2(x)", Z)))
    assert print_formula(f) == "A x. ~D2(x)"


def test_nnf_double_negation():
    f = parse("D2(x)", Z)
    assert to_nnf(Not(Not(f))) == f


def test_standardize_renames_shadowed_binders():
    f = parse("E x. E x. x = y", Z)
    assert print_formula(f) == "E x. E x_1. x_1 = y"


def test_standardize_renames_nested_binders_apart_from_free_names():
    f = parse("x < 1 & (E x. x < 2 & (E x. x < 3))", Z)
    assert print_formula(f) == "x < 1 & (E x_1. x_1 < 2 & (E x_2. x_2 < 3))"


def _corpus_formulas():
    return [(t, parse(e.text, t)) for t in corpus.CORPUS for e in corpus.entries(t)]


def test_standardize_keeps_every_corpus_row():
    rows = _corpus_formulas()
    assert len(rows) == 230
    for _, f in rows:
        assert standardize(f) == f


_A, _B, _C = (parse(text, Z) for text in ("x < y", "D2(x)", "y = 1"))
_M1, _M2, _M3 = (Pred("del", k, (Term.var("x"),)) for k in (1, 2, 3))
# node, its children in order, the node with its i-th child replaced by _Mi
_NODES = [
    (_A, [], _A),
    (TRUE, [], TRUE),
    (Not(_A), [_A], Not(_M1)),
    (And((_A, _B, _C)), [_A, _B, _C], And((_M1, _M2, _M3))),
    (Or((_C, _A)), [_C, _A], Or((_M1, _M2))),
    (Implies(_A, _B), [_A, _B], Implies(_M1, _M2)),
    (Iff(_B, _C), [_B, _C], Iff(_M1, _M2)),
    (Exists("x", _A), [_A], Exists("x", _M1)),
    (Forall("y", _C), [_C], Forall("y", _M1)),
]


@pytest.mark.parametrize("f, children, marked", _NODES)
def test_rebuild_identity_on_each_node_kind(f, children, marked):
    assert rebuild(f, lambda g: g) == f


@pytest.mark.parametrize("f, children, marked", _NODES)
def test_rebuild_maps_each_child_once_in_order(f, children, marked):
    seen = []

    def fn(g):
        seen.append(g)
        return (_M1, _M2, _M3)[len(seen) - 1]

    assert rebuild(f, fn) == marked
    assert seen == children


def test_rebuild_identity_on_corpus():
    for _, f in _corpus_formulas():
        assert rebuild(f, lambda g: g) == f


def test_dnf_prunes_complements_and_repeats():
    f = parse("D2(x) & (~D2(x) | y < x) & (y < x | y < x)", Z)
    assert dnf(f) == [(Div(2, Term.var("x")), Lt(Term.var("y"), Term.var("x")))]


@pytest.mark.parametrize("theory", list(corpus.CORPUS))
def test_nnf_preserves_windowed_truth(theory):
    """to_nnf keeps the windowed truth value on corpus formulas."""
    asg_w, search_w = corpus.windows(theory)
    import itertools
    from qomin import models
    for entry in corpus.entries(theory)[:8]:
        f = parse(entry.text, theory)
        g = to_nnf(f)
        fvs = sorted(free_vars(f))
        elems = models.enumerate_window(theory, asg_w)
        f_fn = models.compile_eval(theory, f, search_w)
        g_fn = models.compile_eval(theory, g, search_w)
        for combo in itertools.islice(itertools.product(elems, repeat=len(fvs)), 40):
            asg = dict(zip(fvs, combo))
            assert f_fn(dict(asg)) == g_fn(dict(asg)), entry.text


@pytest.mark.parametrize("theory", [Z, Theory.PRES_N])
def test_integer_nnf_preserves_windowed_truth(theory):
    """Over the integers and the naturals ~(a < b) may become b < a + 1."""
    import itertools
    from qomin import models
    asg_w, search_w = corpus.windows(theory)
    elems = models.enumerate_window(theory, asg_w)
    for entry in corpus.entries(theory):
        f = parse(entry.text, theory)
        fvs = sorted(free_vars(f))
        f_fn = models.compile_eval(theory, f, search_w)
        g_fn = models.compile_eval(theory, to_nnf(f, lambda v: True), search_w)
        for combo in itertools.islice(itertools.product(elems, repeat=len(fvs)), 40):
            asg = dict(zip(fvs, combo))
            assert f_fn(dict(asg)) == g_fn(dict(asg)), entry.text


# ---------------------------------------------------------------------------
# The solved-literal normaliser


def _z(text):
    return parse(text, Z)


def _t(text):
    return _z(f"{text} = 0").left


@pytest.mark.parametrize("text,solved", [
    ("2*v < y + 1", Solved("upper", 2, _t("y + 1"))),
    ("y < -3*v", Solved("upper", 3, _t("-y"))),
    ("y < 2*v", Solved("lower", 2, Term.var("y"))),
    ("-v < y", Solved("lower", 1, _t("-y"))),
    ("2*v = y", Solved("eq", 2, Term.var("y"))),
    ("y = -2*v + 1", Solved("eq", 2, _t("-y + 1"))),
    ("D3(2*v + y)", Solved("div", 2, Term.var("y"), 3)),
    ("D3(y - 2*v)", Solved("div", 2, _t("-y"), 3)),
    ("~D3(v + 1)", Solved("div", 1, Term.const(1), 3, positive=False)),
    ("v + y < v + z", _z("y - z < 0")),
    ("v + y = z + v", _z("y - z = 0")),
    ("y < z + 1", _z("y < z + 1")),
    ("D2(y)", _z("D2(y)")),
])
def test_solve_for_table(text, solved):
    assert solve_for(_z(text), "v") == solved


def test_solve_for_leaves_other_literals_unchanged():
    lit = Pred("del", 0, (-Term.var("v"),))
    assert solve_for(lit, "v") is lit
    assert solve_for(Not(lit), "v") == Not(lit)


def _solved_atom(s, v):
    """The atom a solved form stands for."""
    av = Term.var(v, s.a)
    if s.kind == "upper":
        return Lt(av, s.t)
    if s.kind == "lower":
        return Lt(s.t, av)
    if s.kind == "eq":
        return Eq(av, s.t)
    atom = Div(s.m, av + s.t)
    return atom if s.positive else Not(atom)


_small = st.integers(-3, 3)


@given(st.sampled_from(["lt", "eq", "div", "ndiv"]), _small, _small, _small, _small,
       _small, st.integers(2, 4), st.integers(-6, 6), st.integers(-6, 6))
@settings(max_examples=300, deadline=None, derandomize=True)
def test_solve_for_keeps_truth(kind, lv, ly, rv, ry, c, m, vval, yval):
    left = Term.make({"v": lv, "y": ly}, {"1": c})
    right = Term.make({"v": rv, "y": ry})
    if kind == "lt":
        lit = Lt(left, right)
    elif kind == "eq":
        lit = Eq(left, right)
    else:
        lit = Div(m, left - right)
        lit = lit if kind == "div" else Not(lit)
    s = solve_for(lit, "v")
    if isinstance(s, Solved):
        assert s.a > 0 and "v" not in s.t.variables()
        s = _solved_atom(s, "v")
    else:
        assert "v" not in free_vars(s)
    asg = {"v": vval, "y": yval}
    assert eval_qf(Z, s, asg) == eval_qf(Z, lit, asg)


def _solve_for_reference(lit, v):
    """solve_for by its three-step definition: l - r, then drop_var, then
    the negation when v's coefficient is positive."""
    match lit:
        case Lt(l, r) | Eq(l, r):
            lc, rc = l.coeff(v), r.coeff(v)
            if lc == rc:
                return lit if lc == 0 else type(lit)(l - r, Term.zero())
            n, t = lc - rc, (l - r).drop_var(v)
            if isinstance(lit, Eq):
                return Solved("eq", abs(n), -t if n > 0 else t)
            return Solved("upper", n, -t) if n > 0 else Solved("lower", -n, t)
        case Div(m, arg) | Not(Div(m, arg)):
            n = arg.coeff(v)
            if n == 0:
                return lit
            t = arg.drop_var(v)
            return Solved("div", abs(n), t if n > 0 else -t, m, isinstance(lit, Div))
    return lit


_side = st.fixed_dictionaries({"v": _small, "y": _small, "z": _small})
_consts = st.fixed_dictionaries({s: _small for s in ("1", "1Z", "1p", "1pp")})


@given(st.sampled_from(["lt", "eq", "div", "ndiv"]), _side, _consts, _side, _consts,
       st.integers(2, 5))
@settings(max_examples=400, deadline=None, derandomize=True)
def test_solve_for_matches_three_step_reference(kind, lv, lk, rv, rk, m):
    # equal v coefficients on both sides cancel; every constant symbol of
    # the roster occurs, as normal_form._rho_of solves lex literals
    left, right = Term.make(lv, lk), Term.make(rv, rk)
    if kind in ("lt", "eq"):
        lit = (Lt if kind == "lt" else Eq)(left, right)
    else:
        lit = Div(m, left - right)
        lit = lit if kind == "div" else Not(lit)
    assert solve_for(lit, "v") == _solve_for_reference(lit, "v")


# ---------------------------------------------------------------------------
# Node contract: one table over the thirteen node classes.  The checks are
# plain functions without fixtures, so they also run without pytest.


def _v(name: str) -> Term:
    return Term.var(name)


# one builder per node class; each call builds a fresh node, equal to the last
_NODE_TABLE = [
    lambda: Term((("x", 2), ("y", -1)), (("1", 3),)),
    lambda: Lt(_v("x"), _v("y") + Term.const(1)),
    lambda: Eq(_v("x"), _v("y")),
    lambda: Div(3, _v("x") + Term.const(1)),
    lambda: Pred("S", 2, (_v("x"), _v("y"))),
    lambda: Bool(False),
    lambda: Not(Div(2, _v("z"))),
    lambda: And((Lt(_v("x"), _v("y")), Not(Div(2, _v("z"))), Exists("u", Eq(_v("u"), _v("x"))))),
    lambda: Or((Eq(_v("x"), _v("y")), Lt(_v("y"), _v("x")))),
    lambda: Implies(Lt(_v("x"), _v("y")), Pred("Qp", None, (_v("w"),))),
    lambda: Iff(Div(2, _v("x")), Not(Div(2, _v("x") + Term.const(1)))),
    # shadowed binders: an inner quantifier rebinds the outer one's variable
    lambda: Exists("x", And((Lt(_v("x"), _v("y")), Exists("x", Eq(_v("x"), _v("z")))))),
    lambda: Forall("y", Or((Lt(_v("y"), _v("x")), Forall("y", Eq(_v("y"), _v("y")))))),
]


def _raises(exc, fn, *args) -> bool:
    try:
        fn(*args)
    except exc:
        return True
    return False


def _free_vars_reference(f) -> frozenset:
    """The recursive definition, without the memo."""
    match f:
        case Lt(l, r) | Eq(l, r):
            return l.variables() | r.variables()
        case Div(_, t):
            return t.variables()
        case Pred(_, _, args):
            return frozenset().union(*(t.variables() for t in args))
        case Bool():
            return frozenset()
        case Not(arg):
            return _free_vars_reference(arg)
        case And(args) | Or(args):
            return frozenset().union(*(_free_vars_reference(a) for a in args))
        case Implies(l, r) | Iff(l, r):
            return _free_vars_reference(l) | _free_vars_reference(r)
        case Exists(v, body) | Forall(v, body):
            return _free_vars_reference(body) - {v}


def test_node_table_covers_every_node_class():
    assert [type(make()) for make in _NODE_TABLE] == [
        Term, Lt, Eq, Div, Pred, Bool, Not, And, Or, Implies, Iff, Exists, Forall]


def test_node_equal_nodes_have_equal_hashes_before_and_after_caching():
    for make in _NODE_TABLE:
        a, b = make(), make()
        assert a == b and a is not b
        first = hash(a)          # computed, and kept in a
        assert hash(b) == first  # b computes its own
        assert hash(a) == hash(b) == first
        assert len({a, b, make()}) == 1


def test_node_equality_is_class_sensitive():
    x, y = _v("x"), _v("y")
    for a, b in [(Lt(x, y), Eq(x, y)), (And((TRUE,)), Or((TRUE,))),
                 (Implies(TRUE, TRUE), Iff(TRUE, TRUE)),
                 (Exists("x", TRUE), Forall("x", TRUE))]:
        hash(a), hash(b)
        assert a != b and b != a
        assert len({a, b}) == 2


def test_node_construction_repr_and_match_args():
    assert Term() == Term((), ()) == Term.zero()
    assert Term((("x", 1),)) == _v("x")
    assert repr(Lt(_v("x"), Term())) == (
        "Lt(left=Term(coeffs=(('x', 1),), consts=()), right=Term(coeffs=(), consts=()))")
    for make in _NODE_TABLE:
        node = make()
        names = tuple(f.name for f in dataclasses.fields(node))
        assert type(node).__match_args__ == names
        assert type(node)(*(getattr(node, n) for n in names)) == node
        assert eval(repr(node)) == node


def test_node_assignment_raises_frozen_instance_error():
    for make in _NODE_TABLE:
        node = make()
        hash(node)
        for name in [f.name for f in dataclasses.fields(node)] + ["_hash", "_fv", "other"]:
            assert _raises(dataclasses.FrozenInstanceError, setattr, node, name, None)
            assert _raises(dataclasses.FrozenInstanceError, delattr, node, name)
        assert node == make() and hash(node) == hash(make())


def test_node_div_modulus_check():
    for m in (1, 0, -2):
        assert _raises(ValueError, Div, m, _v("x"))
    assert Div(2, _v("x")).modulus == 2


def test_node_pickle_and_deepcopy_round_trip():
    for make in _NODE_TABLE:
        for warm in (False, True):
            node = make()
            if warm:  # caches filled before the copy
                hash(node)
                if not isinstance(node, Term):
                    free_vars(node)
            for twin in (pickle.loads(pickle.dumps(node)), copy.deepcopy(node)):
                assert twin == node and type(twin) is type(node)
                assert hash(twin) == hash(node)
                assert repr(twin) == repr(node)
                if not isinstance(node, Term):
                    assert free_vars(twin) == free_vars(node)


def test_node_free_vars_match_the_recursive_definition():
    formulas = [f for f in (make() for make in _NODE_TABLE) if not isinstance(f, Term)]
    formulas += [f for _, f in _corpus_formulas()]
    formulas += [Exists("x", And((Lt(_v("x"), _v("y")), Forall("y", Eq(_v("y"), _v("x")))))),
                 And((Lt(_v("x"), _v("y")), Exists("x", Eq(_v("x"), _v("z")))))]
    assert free_vars(formulas[-2]) == {"y"} and free_vars(formulas[-1]) == {"x", "y", "z"}
    for f in formulas:
        want = _free_vars_reference(f)
        assert free_vars(f) == want  # fills the memo
        assert free_vars(f) == want  # reads it
        assert free_vars(copy.deepcopy(f)) is free_vars(f)  # equal sets are shared
