"""The witnessed normal form: coset expansions, divisibility splitting,
three-case inequality forms, chain decompositions, and the full pipeline."""

from fractions import Fraction

import pytest

from qomin import corpus, models
from qomin.errors import DecompositionError, EvalError
from qomin.models import Window, enumerate_window, eval_qf, eval_windowed
from qomin.normal_form import (
    Decomposition, Disjunct, ProcedureWitness, TermWitness, decompose, delta,
    inequality_form, lex_div_split, parity_predicate, sn_decompose,
    verify_decomposition, witnesses,
)
from qomin.syntax import (
    And, Div, Eq, Exists, FALSE, Lt, Not, Or, Pred, TRUE, Term, Theory,
    free_vars, parse, print_formula,
)

ZQ, ZZ, T = Theory.LEX_ZQ, Theory.LEX_ZZ, Theory.TCHAIN


# ---------------------------------------------------------------------------
# del_k expansions


def test_delta_is_base_language():
    """The expansions use only order, addition, and quantifiers."""
    from qomin.syntax import atoms
    for theory in (ZQ, ZZ):
        for k in (0, 1, 2):
            f = delta(theory, k)
            for a in atoms(f):
                assert isinstance(a, (Lt, Eq)), (theory, k, a)


def test_delta_zero_agrees_on_integer_product():
    d0 = delta(ZZ, 0)
    w = Window((-1, -2), (1, 2))
    for x in enumerate_window(ZZ, Window((-1, -1), (1, 1))):
        assert eval_windowed(ZZ, d0, {"x": x}, w) == (x[0] == 0), x


def test_delta_one_agrees_on_integer_product():
    # class range kept below the window top: successor witnesses for the
    # nested membership formulas must stay inside the window
    d1 = delta(ZZ, 1)
    w = Window((-1, -3), (2, 3))
    for x in enumerate_window(ZZ, Window((-1, -1), (1, 1))):
        assert eval_windowed(ZZ, d1, {"x": x}, w) == (x[0] == 1), x


def test_delta_zero_rational_product():
    """Over Z x Q the positive side of the doubling witness chain outruns
    any fixed denominator bound, so the windowed check is asserted on the
    points where it is exact: the complement of the subgroup, and zero."""
    d0 = delta(ZQ, 0)
    w = Window((-2, Fraction(-1)), (2, Fraction(1)), 4)
    for x in enumerate_window(ZQ, Window((-2, Fraction(-1)), (2, Fraction(1)), 2)):
        if x[0] != 0:
            assert not eval_windowed(ZQ, d0, {"x": x}, w), x
    assert eval_windowed(ZQ, d0, {"x": (0, Fraction(0))}, w)


def test_delta_one_rational_product_false_side():
    d1 = delta(ZQ, 1)
    w = Window((-2, Fraction(-1)), (2, Fraction(1)), 4)
    for x in enumerate_window(ZQ, Window((-2, Fraction(-1)), (2, Fraction(1)), 1)):
        if x[0] not in (0, 1):
            assert not eval_windowed(ZQ, d1, {"x": x}, w), x


def test_delta_positive_requires_positive():
    d2 = delta(ZZ, 2)
    w = Window((-1, -3), (3, 3))
    assert not eval_windowed(ZZ, d2, {"x": (-1, 0)}, w)
    assert not eval_windowed(ZZ, d2, {"x": (0, 1)}, w)
    assert eval_windowed(ZZ, d2, {"x": (2, 0)}, w)


def test_delta_rejects_bad_input():
    with pytest.raises(Exception):
        delta(Theory.PRES_Z, 0)
    with pytest.raises(ValueError):
        delta(ZQ, -1)


# ---------------------------------------------------------------------------
# Divisibility splitting of x + y


def _div_split_shape(f, m):
    assert isinstance(f, Or) and len(f.args) == m
    for branch in f.args:
        assert isinstance(branch, And) and len(branch.args) == 2
        left, right = branch.args
        assert isinstance(left, Exists) and isinstance(right, Exists)


def test_div_split_shape_zq():
    for m in (2, 3):
        _div_split_shape(lex_div_split(ZQ, m), m)


@pytest.mark.parametrize("m", [2, 3])
def test_div_split_zq_defines_sum_divisibility(m):
    f = lex_div_split(ZQ, m)
    w = Window((-3, Fraction(-1)), (3, Fraction(1)), 2)
    asg_w = Window((-2, Fraction(-1)), (2, Fraction(1)), 1)
    for x in enumerate_window(ZQ, asg_w):
        for y in enumerate_window(ZQ, asg_w):
            want = (x[0] + y[0]) % m == 0
            assert eval_windowed(ZQ, f, {"x": x, "y": y}, w) == want, (x, y)


def test_div_split_zq_instance():
    f = lex_div_split(ZQ, 3)
    w = Window((-3, Fraction(-1)), (3, Fraction(1)), 2)
    assert eval_windowed(ZQ, f, {"x": (1, Fraction(0)), "y": (2, Fraction(0))}, w)


def test_div_split_zz_first_coordinate():
    f = lex_div_split(ZZ, 2, coordinate="first")
    w = Window((-3, -2), (3, 2))
    asg_w = Window((-2, -1), (2, 1))
    for x in enumerate_window(ZZ, asg_w):
        for y in enumerate_window(ZZ, asg_w):
            assert eval_windowed(ZZ, f, {"x": x, "y": y}, w) == ((x[0] + y[0]) % 2 == 0)


def test_div_split_zz_second_coordinate_shape():
    """The second-coordinate splitting carries the shifted-by-1p
    divisibility conjuncts inside even-coset membership."""
    f = lex_div_split(ZZ, 2, coordinate="second")
    assert isinstance(f, Or) and len(f.args) == 2
    text = print_formula(f)
    assert "1p" in text and "del0" in text and "D2" in text


def test_div_split_zz_second_on_divisible_firsts():
    """Within the subgroup of m-divisible first coordinates the second
    splitting captures divisibility of the second-coordinate sum."""
    m = 2
    f = lex_div_split(ZZ, m, coordinate="second")
    w = Window((-4, -3), (4, 3))
    asg_w = Window((-2, -2), (2, 2))
    for x in enumerate_window(ZZ, asg_w):
        for y in enumerate_window(ZZ, asg_w):
            if x[0] % m or y[0] % m:
                continue
            want = (x[1] + y[1]) % m == 0
            assert eval_windowed(ZZ, f, {"x": x, "y": y}, w) == want, (x, y)


def test_div_split_full_zz_on_divisible_firsts():
    m = 2
    f = lex_div_split(ZZ, m)
    w = Window((-4, -3), (4, 3))
    asg_w = Window((-2, -2), (2, 2))
    for x in enumerate_window(ZZ, asg_w):
        for y in enumerate_window(ZZ, asg_w):
            if x[0] % m or y[0] % m:
                continue
            want = (x[0] + y[0]) % m == 0 and (x[1] + y[1]) % m == 0
            assert eval_windowed(ZZ, f, {"x": x, "y": y}, w) == want, (x, y)


def test_div_split_rejects_second_for_zq():
    with pytest.raises(ValueError):
        lex_div_split(ZQ, 2, coordinate="second")


# ---------------------------------------------------------------------------
# Three-case inequality forms


def test_inequality_form_divisible_bound():
    form = inequality_form(ZQ, 2, (2, Fraction(0)))
    assert (form.form, form.d, form.e) == (1, None, (1, Fraction(0)))


def test_inequality_form_even_quotient():
    form = inequality_form(ZQ, 2, (1, Fraction(0)))
    assert (form.form, form.d, form.e) == (2, (1, Fraction(0)), (0, Fraction(0)))


def test_inequality_form_odd_quotient():
    form = inequality_form(ZQ, 2, (3, Fraction(0)))
    assert (form.form, form.d, form.e) == (3, (2, Fraction(0)), (1, Fraction(0)))


def _check_gt_form(theory, n, a, window):
    form = inequality_form(theory, n, a)
    f = form.formula(theory)
    d = form.d if form.d is not None else models.zero_element(theory)
    for x in enumerate_window(theory, window):
        nx = (n * x[0], n * x[1])
        got = eval_qf(theory, f, {"x": x, "zd": d, "ze": form.e})
        assert got == (nx > a), (theory, n, a, x)


@pytest.mark.parametrize("n", [2, 3])
def test_inequality_form_oracle_zq(n):
    w = Window((-4, Fraction(-2)), (4, Fraction(2)), 4)
    for a in [(2, Fraction(0)), (1, Fraction(0)), (3, Fraction(0)),
              (0, Fraction(1, 2)), (-2, Fraction(1)), (-3, Fraction(-1, 2))]:
        _check_gt_form(ZQ, n, a, w)


@pytest.mark.parametrize("n", [2, 3])
def test_inequality_form_oracle_zz(n):
    w = Window((-4, -4), (4, 4))
    for a in [(2, 0), (1, 0), (3, 0), (0, 1), (-2, 3), (-3, -1)]:
        _check_gt_form(ZZ, n, a, w)


def test_parity_predicate_shapes():
    assert parity_predicate(ZQ) == Div(2, Term.var("x"))
    assert print_formula(parity_predicate(ZZ)) == "D2(x) | D2(x + 1p)"


# ---------------------------------------------------------------------------
# Chain-of-classes interval decompositions


def test_sn_zero_distance_structure():
    sd = sn_decompose((0, Fraction(0)), 0)
    assert print_formula(sd.formula) == "P(x) & zb < x & x < zc"
    assert sd.witness_map() == {"zb": (-1, Fraction(0)), "zc": (1, Fraction(0))}


def test_sn_zero_odd_parameter():
    sd = sn_decompose((1, Fraction(0)), 0)
    assert print_formula(sd.formula) == "~P(x) & zb < x & x < zc"
    assert sd.witness_map() == {"zb": (0, Fraction(0)), "zc": (2, Fraction(0))}


@pytest.mark.parametrize("a", [(-1, Fraction(0)), (0, Fraction(0)), (1, Fraction(1, 2))])
@pytest.mark.parametrize("n", [0, 1, 2])
def test_sn_set_equality(a, n):
    sd = sn_decompose(a, n)
    w = Window((-4, Fraction(-2)), (4, Fraction(2)), 2)
    asg = sd.witness_map()
    for x in enumerate_window(T, w):
        assert eval_qf(T, sd.formula, {**asg, "x": x}) == (abs(x[0] - a[0]) == n)


# ---------------------------------------------------------------------------
# decompose: structure examples


def test_decompose_doubling_equation():
    dec = decompose(Theory.PRES_Z, parse("x + x = y", Theory.PRES_Z), "x")
    assert len(dec.disjuncts) == 1
    d = dec.disjuncts[0]
    assert d.phi == TRUE
    assert d.psi == Div(2, Term.var("y"))
    assert d.rho == (("eq", 0),)
    spec = dec.witnesses[0]
    assert isinstance(spec, TermWitness)
    assert (spec.term, spec.divisor, spec.floor) == (Term.var("y"), 2, True)
    assert witnesses(Theory.PRES_Z, dec, (6,)) == (3,)


def test_decompose_dense_order_with_predicate():
    dec = decompose(Theory.DLO_PRED, parse("x < y & Qp(x)", Theory.DLO_PRED), "x")
    assert len(dec.disjuncts) == 1
    d = dec.disjuncts[0]
    assert d.phi == Pred("Qp", None, (Term.var("x"),))
    assert d.psi == TRUE
    assert d.rho == (("below", 0),)
    assert dec.witnesses == [TermWitness(Term.var("y"))]


def test_decompose_lex_three_cases():
    dec = decompose(ZQ, parse("2*x > y", ZQ), "x")
    assert all(isinstance(w, ProcedureWitness) for w in dec.witnesses)
    assert len(dec.witnesses) == 2
    psis = {print_formula(d.psi) for d in dec.disjuncts}
    assert psis == {"D2(y)", "D4(y - 1Z)", "D4(y - 3*1Z)"}
    zs = witnesses(ZQ, dec, ((1, Fraction(0)),))
    assert zs == ((0, Fraction(0)), (1, Fraction(0)))


def test_decompose_drops_empty_disjuncts():
    """x = z, x < z and z < x exclude each other, so a disjunct that puts two
    of them on one witness describes no point and is left out."""
    for theory in corpus.CORPUS:
        for entry in corpus.entries(theory):
            if entry.dist_var is None:
                continue
            dec = decompose(theory, parse(entry.text, theory), entry.dist_var)
            for d in dec.disjuncts:
                named = [j for _, j in d.rho]
                assert len(named) == len(set(named)), (theory, entry.text, d.rho)
    D = Theory.DLO_PRED
    assert len(decompose(D, parse("A u. u < x -> u < y", D), "x").disjuncts) == 2


def test_decompose_degenerate_without_variable():
    theta = parse("D2(y)", Theory.PRES_Z)
    dec = decompose(Theory.PRES_Z, theta, "x")
    assert len(dec.disjuncts) == 1
    assert dec.disjuncts[0].phi == TRUE
    assert dec.disjuncts[0].psi == theta
    assert dec.disjuncts[0].rho == ()


def test_decompose_shape_check_enforced():
    dec = decompose(Theory.PRES_Z, parse("x + x = y", Theory.PRES_Z), "x")
    # a psi that mentions the distinguished variable must be rejected
    broken = Decomposition(
        dec.theory, dec.var, dec.params,
        [Disjunct(TRUE, Lt(Term.var("x"), Term.var("y")), ())],
        list(dec.witnesses),
    )
    with pytest.raises(DecompositionError):
        broken.check_shape()
    # phi with an order atom is not unary 0-definable
    broken2 = Decomposition(
        dec.theory, dec.var, dec.params,
        [Disjunct(Lt(Term.var("x"), Term.zero()), TRUE, ())],
        [],
    )
    with pytest.raises(DecompositionError):
        broken2.check_shape()


def test_decompose_lex_requires_quantifier_free():
    with pytest.raises(DecompositionError):
        decompose(ZQ, parse("E u. u + u = x", ZQ), "x")


def test_witness_arity_mismatch():
    dec = decompose(Theory.PRES_Z, parse("x + x = y", Theory.PRES_Z), "x")
    with pytest.raises(Exception):
        witnesses(Theory.PRES_Z, dec, (1, 2))


def test_parameter_outside_the_model_rejected():
    """A parameter value of another sort is an input error wherever a
    decomposition is instantiated, not a witness or a passing check."""
    from qomin.analyzer import POS, eventual_classes
    Z = Theory.PRES_Z
    theta = parse("x < y", Z)
    dec = decompose(Z, theta, "x")
    half = (Fraction(1, 2),)
    with pytest.raises(EvalError, match="^element 1/2 does not belong to the pres_z model$"):
        witnesses(Z, dec, half)
    with pytest.raises(EvalError, match="^element 1/2 does not belong to the pres_z model$"):
        verify_decomposition(Z, theta, dec, half, Window(-4, 4))
    with pytest.raises(EvalError, match="^element 1/2 does not belong to the pres_z model$"):
        eventual_classes(Z, theta, [half, (3,)], POS, Window(-4, 4))


# ---------------------------------------------------------------------------
# verify_decomposition


def test_verify_doubling_at_six():
    theta = parse("x + x = y", Theory.PRES_Z)
    dec = decompose(Theory.PRES_Z, theta, "x")
    rep = verify_decomposition(Theory.PRES_Z, theta, dec, (6,), Window(-20, 20))
    assert rep.passed and rep.total == 41


def test_verify_lex_gt():
    theta = parse("2*x > y", ZQ)
    dec = decompose(ZQ, theta, "x")
    w = Window((-3, Fraction(-2)), (3, Fraction(2)), 4)
    for a in [(2, Fraction(0)), (1, Fraction(0)), (-3, Fraction(1, 2))]:
        rep = verify_decomposition(ZQ, theta, dec, (a,), w)
        assert rep.passed, (a, rep.mismatches[:2])


def test_verify_detects_corruption():
    theta = parse("x + x = y", Theory.PRES_Z)
    dec = decompose(Theory.PRES_Z, theta, "x")
    bad = Decomposition(
        dec.theory, dec.var, dec.params,
        [Disjunct(Not(dec.disjuncts[0].phi), dec.disjuncts[0].psi, dec.disjuncts[0].rho)],
        list(dec.witnesses),
    )
    rep = verify_decomposition(Theory.PRES_Z, theta, bad, (6,), Window(-20, 20))
    assert not rep.passed
    assert rep.mismatches


def test_verify_tchain_distance():
    theta = parse("S1(x, y)", T)
    dec = decompose(T, theta, "x")
    w = Window((-4, Fraction(-2)), (4, Fraction(2)), 2)
    rep = verify_decomposition(T, theta, dec, ((0, Fraction(0)),), w)
    assert rep.passed
    zs = witnesses(T, dec, ((0, Fraction(0)),))
    assert set(zs) == {(-2, Fraction(0)), (0, Fraction(0)), (2, Fraction(0))}


# A subset of the generated decompose grid of scripts/output_digest.py: the
# three-case forms for n up to 3, the coset atoms del_k(n*x + y) for both
# signs of n, D_m(n*x + y), and S_n in both argument orders.
_GRID = (
    [(ZQ, f"{n}*x {op} y") for n in (2, 3) for op in (">", "<")]
    + [(ZQ, f"del{k}({n}*x + y)") for n in (-3, 2) for k in range(3)]
    + [(ZQ, "D3(2*x + y)"), (ZZ, "3*x > y"), (ZZ, "2*x < y"), (ZZ, "del1(x + y)"),
       (ZZ, "del2(-1*x + y)"), (ZZ, "del1(2*x + y)"), (ZZ, "D3(2*x + y)")]
    + [(T, f"S{n}({a})") for n in range(4) for a in ("x, y", "y, x")]
)


@pytest.mark.parametrize("theory,text", _GRID, ids=[f"{t.value}-{s}" for t, s in _GRID])
def test_decompose_grid_verifies(theory, text):
    """Exact with the corpus windows: theta's quantifiers search the search
    window, x and the parameter range over the assignment window."""
    asg_w, search_w = corpus.windows(theory)
    theta = parse(text, theory)
    dec = decompose(theory, theta, "x")
    for a in enumerate_window(theory, asg_w)[::7]:
        rep = verify_decomposition(theory, theta, dec, (a,), search_w, scan_window=asg_w)
        assert rep.passed, (a, rep.mismatches[:2])
