"""Eventual-equality classification, cut mechanics, density scans, and the
one-variable interval decomposition."""

import random
from fractions import Fraction

import pytest

from qomin import models
from qomin.analyzer import (
    Cut, DensityReport, NEG, POS, cut_contains, cut_subset, density_check, eventual_classes,
    eventually_equal, lemma3_check, maximal_cut_excluding, one_var_intervals,
)
from qomin.errors import EvalError, QominError, WindowCapError
from qomin.models import Window, enumerate_window
from qomin.syntax import Theory, parse

Z = Theory.PRES_Z
ZQ = Theory.LEX_ZQ


def q(a, b=1):
    return Fraction(a, b)


def zq(a, num, den=1):
    return (a, Fraction(num, den))


# ---------------------------------------------------------------------------
# eventual classes


def test_residue_family_three_classes():
    rep = eventual_classes(Z, parse("D3(x - y)", Z), [(a,) for a in range(4)],
                           POS, Window(-30, 30))
    assert rep.class_count == 3
    members = sorted(tuple(sorted(c.members)) for c in rep.classes)
    assert members == [((0,), (3,)), ((1,),), ((2,),)]
    assert rep.empirical_same_class_ok
    assert not rep.cross_class_tail_collisions


def test_residue_family_two_classes():
    rep = eventual_classes(Z, parse("D2(x - y)", Z), [(a,) for a in range(6)],
                           POS, Window(-30, 30))
    assert rep.class_count == 2


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
def test_residue_family_exact_count(m):
    rep = eventual_classes(Z, parse(f"D{m}(x - y)", Z),
                           [(a,) for a in range(m + 1)], POS, Window(-36, 36))
    assert rep.class_count == m
    assert rep.class_count <= rep.bound


def test_class_count_bounded_by_disjuncts():
    rep = eventual_classes(Z, parse("D2(x - y) | x < y", Z),
                           [(a,) for a in range(-2, 3)], POS, Window(-30, 30))
    assert rep.class_count <= rep.bound


def test_classes_at_negative_infinity():
    rep = eventual_classes(Z, parse("y < x", Z), [(a,) for a in range(-2, 3)],
                           NEG, Window(-30, 30))
    # below every threshold the sets y < x are eventually empty: one class
    assert rep.class_count == 1


def test_classes_partition_is_equivalence():
    """Same-class is an equivalence on the tested parameters: the groups are
    disjoint and cover everything."""
    params = [(a,) for a in range(5)]
    rep = eventual_classes(Z, parse("D4(x - y)", Z), params, POS, Window(-36, 36))
    seen = [t for c in rep.classes for t in c.members]
    assert sorted(seen) == sorted(params)


@pytest.mark.parametrize("params", [[(1, 2), (3, 4)], [(1,), ()]])
def test_classes_reject_wrong_parameter_count(params):
    """x < y has the one parameter y: a tuple of another length is refused,
    not truncated or padded."""
    with pytest.raises(EvalError, match="expected 1 parameter values, got"):
        eventual_classes(Z, parse("x < y", Z), params, POS, Window(-30, 30))


def test_classes_compile_each_disjunct_once(monkeypatch):
    """Each disjunct's psi is compiled once per call, not once per tuple,
    and every tuple's elements are still checked."""
    calls = []
    compile_eval = models.compile_eval

    def counted(theory, f, *args, **kw):
        calls.append(f)
        return compile_eval(theory, f, *args, **kw)

    monkeypatch.setattr(models, "compile_eval", counted)
    theta = parse("D6(x - y)", Z)
    rep = eventual_classes(Z, theta, [(a,) for a in range(6)], POS, Window(-36, 36))
    assert rep.class_count == 6
    assert len(calls) == len(set(calls)) and theta in calls
    with pytest.raises(EvalError, match="does not belong to the pres_z model"):
        eventual_classes(Z, theta, [(0,), (Fraction(1, 2),)], POS, Window(-36, 36))


# ---------------------------------------------------------------------------
# eventually_equal


def test_identical_residue_sets():
    ok, c = eventually_equal(Z, (parse("D2(x)", Z), {}), (parse("D2(x - 2)", Z), {}),
                             None, POS, Window(-20, 20))
    assert ok


def test_distinct_moduli_disagree():
    ok, cx = eventually_equal(Z, (parse("D2(x)", Z), {}), (parse("D3(x)", Z), {}),
                              None, POS, Window(-20, 20))
    assert not ok
    assert cx is not None


def test_shifted_rays_threshold():
    ok, c = eventually_equal(Z, (parse("x > 5", Z), {}), (parse("x > 9", Z), {}),
                             None, POS, Window(-20, 20))
    assert ok and c == 9


def test_eventually_equal_with_filter():
    ok, _ = eventually_equal(
        Z,
        (parse("D4(x)", Z), {}),
        (parse("D2(x)", Z), {}),
        parse("D2(x)", Z),   # compare inside the even numbers only
        POS, Window(-24, 24),
    )
    assert not ok  # multiples of 4 vs all evens differ cofinally in the evens


def test_eventually_equal_parameterized():
    ok, _ = eventually_equal(
        Z,
        (parse("y < x", Z), {"y": 3}),
        (parse("y < x", Z), {"y": -3}),
        None, POS, Window(-20, 20),
    )
    assert ok


# ---------------------------------------------------------------------------
# lemma 3: eventual equality of unbounded subgroups forces equality


@pytest.mark.parametrize("m,k", [(6, 6), (2, 4), (3, 5), (1, 1), (1, 2), (4, 4)])
def test_subgroup_eventual_equality_biconditional(m, k):
    assert lemma3_check(m, k, Window(-40, 40))


# ---------------------------------------------------------------------------
# cuts


def test_cut_membership():
    c = Cut(ZQ, 2, zq(1, 0))
    assert cut_contains(c, zq(0, 100))
    assert not cut_contains(c, zq(1, 0))
    assert cut_contains(Cut(ZQ, 2, zq(3, 0)), zq(1, -7))


def test_cut_inclusion():
    c1 = Cut(ZQ, 2, zq(1, 0))
    c3 = Cut(ZQ, 2, zq(3, 0))
    assert cut_subset(c1, c3)
    assert not cut_subset(c3, c1)
    assert cut_subset(Cut(ZQ, 1, zq(1, 0)), Cut(ZQ, 2, zq(3, 0)))


def test_cut_inclusion_matches_membership():
    """Symbolic inclusion coincides with pointwise implication on a window
    for a family whose separating points land on the window grid (bounds
    with first coordinate divisible by both coefficients)."""
    window = Window((-3, Fraction(-2)), (3, Fraction(2)), 4)
    cuts = [Cut(ZQ, n, zq(a, num, 2)) for n in (1, 2) for a in (-2, 0, 2)
            for num in (0, 1)]
    pts = enumerate_window(ZQ, window)
    for c1 in cuts:
        for c2 in cuts:
            sym = cut_subset(c1, c2)
            point = all(cut_contains(c2, x) for x in pts if cut_contains(c1, x))
            assert sym == point, (c1, c2)


def test_cut_irrationality():
    assert Cut(ZQ, 2, zq(1, 0)).irrational
    assert not Cut(ZQ, 2, zq(2, 0)).irrational


def test_maximal_cut_documented_instance():
    cuts = [Cut(ZQ, 2, zq(a, 0)) for a in (1, 3, 5)]
    e = zq(2, 0)
    best = maximal_cut_excluding(cuts, e)
    assert best.a == zq(3, 0)
    # no other input cut both excludes e and strictly contains the winner
    for c in cuts:
        if c is best or cut_contains(c, e):
            continue
        assert not (cut_subset(best, c) and not cut_subset(c, best))


def test_maximal_cut_single():
    c = Cut(ZQ, 2, zq(1, 0))
    assert maximal_cut_excluding([c], zq(5, 0)) is c


def test_maximal_cut_all_contain():
    cuts = [Cut(ZQ, 2, zq(a, 0)) for a in (4, 6)]
    with pytest.raises(QominError):
        maximal_cut_excluding(cuts, zq(0, 0))


# ---------------------------------------------------------------------------
# density of nG in the dyadics


DY_WINDOW = Window(Fraction(-16), Fraction(16), 1024)


def test_density_odd_factor():
    rep = density_check(3, DY_WINDOW, Fraction(1, 32))
    assert not rep.whole_group
    assert rep.dense and rep.codense
    assert rep.intervals_checked == 1024


def test_density_power_of_two_is_whole_group():
    rep = density_check(2, DY_WINDOW, Fraction(1, 32))
    assert rep.whole_group


def test_density_mixed_factor():
    rep = density_check(6, DY_WINDOW, Fraction(1, 32))
    assert rep.dense and rep.codense
    assert rep.odd_part == 3


def test_density_scan_cap(monkeypatch):
    monkeypatch.setenv("QOMIN_WINDOW_CAP", "1023")
    with pytest.raises(WindowCapError):
        density_check(3, DY_WINDOW, Fraction(1, 32))
    monkeypatch.setenv("QOMIN_WINDOW_CAP", "1024")
    assert density_check(3, DY_WINDOW, Fraction(1, 32)).intervals_checked == 1024


def test_density_large_modulus_is_one_step_per_interval():
    # 2^34 numerators per interval, a multiple of the modulus among them
    rep = density_check(10**9 + 7, Window(Fraction(-16), Fraction(16), 2**30), Fraction(16))
    assert rep.dense and rep.codense and rep.intervals_checked == 2
    # [0, 1/2) holds the numerator 0 only, [1/2, 1) none at denominator 1
    rep = density_check(10**9 + 7, Window(Fraction(0), Fraction(1), 1), Fraction(1, 2))
    assert rep.first_codensity_gap == (Fraction(0), Fraction(1, 2))
    assert rep.first_density_gap == (Fraction(1, 2), Fraction(1))


def _density_scan_reference(n: int, w: Window, resolution: Fraction) -> DensityReport:
    """density_check's report, computed by a plain scan over Fraction
    interval ends: numerators p with p/denom in [a, b) are the interval's
    points, and nG holds those the odd part of n divides."""
    odd = n
    while odd % 2 == 0:
        odd //= 2
    report = DensityReport(n=n, odd_part=odd, whole_group=(odd == 1))
    if report.whole_group:
        return report
    denom = w.denom
    lo, hi = Fraction(w.lo), Fraction(w.hi)
    report.dense = report.codense = True
    a = lo
    while a < hi:
        b = min(a + resolution, hi)
        p_lo = -((-a.numerator * denom) // a.denominator)
        p_hi = (b.numerator * denom) // b.denominator
        if Fraction(p_hi, denom) == b:
            p_hi -= 1
        report.intervals_checked += 1
        if p_lo + (-p_lo) % odd > p_hi:
            if report.dense:
                report.first_density_gap = (a, b)
            report.dense = False
        if not (p_lo < p_hi or (p_lo == p_hi and p_lo % odd)):
            if report.codense:
                report.first_codensity_gap = (a, b)
            report.codense = False
        a = b
    return report


def test_density_scan_matches_fraction_reference():
    """Every report field agrees with the Fraction scan on derandomized
    draws: odd parts 3 to 21 and 10^9+7, window ends with denominators 1 to
    8, resolutions that often leave a short last interval."""
    rng = random.Random("density-scan")
    short_last = gaps = 0
    for _ in range(3000):
        n = rng.choice([*range(3, 22, 2), 10**9 + 7]) << rng.randint(0, 3)
        lo = Fraction(rng.randint(-24, 24), rng.randint(1, 8))
        hi = lo + Fraction(rng.randint(0, 24), rng.randint(1, 8))
        res = Fraction(rng.randint(1, 12), rng.randint(1, 8))
        w = Window(lo, hi, 1 << rng.randint(0, 6))
        rep = density_check(n, w, res)
        assert rep == _density_scan_reference(n, w, res), (n, w, res)
        short_last += (hi - lo) % res != 0
        gaps += not (rep.dense and rep.codense)
    # the draws exercise both the short last interval and the gap reports
    assert short_last > 1500 and gaps > 500


# ---------------------------------------------------------------------------
# one-variable intervals over the divisible rational group


def pieces_str(f):
    return [str(p) for p in one_var_intervals(parse(f, Theory.DOAG_Q))]


def test_interval_half_line():
    assert pieces_str("x + x > 1") == ["(1/2, +inf)"]


def test_interval_union_with_point():
    assert pieces_str("(0 < x & x < 1) | x = 2") == ["(0, 1)", "{2}"]


def test_interval_through_elimination():
    assert pieces_str("E y. y + y = x & y > 3") == ["(6, +inf)"]


def test_interval_whole_line_and_empty():
    assert pieces_str("x = x") == ["(-inf, +inf)"]
    assert pieces_str("x < x") == []


def test_intervals_disjoint_sorted_and_match_scan():
    rng = random.Random(7)
    fragments = ["x < {}", "{} < x", "2*x = {}", "x = {}", "3*x < {}"]
    for _ in range(20):
        parts = [fragments[rng.randrange(len(fragments))].format(rng.randint(-3, 3))
                 for _ in range(3)]
        text = f"({parts[0]} & {parts[1]}) | ~({parts[2]})"
        f = parse(text, Theory.DOAG_Q)
        pieces = one_var_intervals(f)
        # pairwise disjoint, sorted
        for p1, p2 in zip(pieces, pieces[1:]):
            assert p1.hi is not None and p2.lo is not None
            assert p1.hi < p2.lo or (p1.hi == p2.lo and not (p1.hi_closed and p2.lo_closed))
        # membership agrees with a dense sign scan
        fn = models.compile_eval(Theory.DOAG_Q, f)
        for v in enumerate_window(Theory.DOAG_Q, Window(Fraction(-4), Fraction(4), 16)):
            want = fn({"x": v})
            got = any(p.contains(v) for p in pieces)
            assert want == got, (text, v)
