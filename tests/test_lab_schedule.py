"""Tests for level parameters and the color lower-bound calculators."""

import math
from fractions import Fraction

import pytest

from streamcolor.errors import UsageError
from streamcolor.lab.lnscaled import LnScaled
from streamcolor.lab.schedule import (
    ETA_0,
    color_lower_bound,
    corollary_check,
    lemma_color_bound,
    schedule,
    theorem_color_bound,
)


def test_input_validation():
    with pytest.raises(ValueError):
        schedule(0, 2, 1, 1)
    with pytest.raises(ValueError):
        schedule(10, -2, 1, 1)
    with pytest.raises(ValueError):
        schedule(10, 2, True, 1)
    with pytest.raises(ValueError):
        schedule(10.0, 2, 1, 1)
    with pytest.raises(ValueError):
        theorem_color_bound(10, 2, 1, 0)


def test_first_level_values():
    sched = schedule(100, 10, 1, 50)
    assert sched.d == (LnScaled.of(100),)
    assert sched.p == (LnScaled.of(Fraction(10, 200)),)


def test_first_level_independent_of_s():
    a = schedule(64, 8, 2, 10)
    b = schedule(64, 8, 2, 999)
    assert a.d[0] == b.d[0] and a.p[0] == b.p[0]


def test_second_level_explicit_formula():
    n, delta, k, s = 64, 8, 2, 100
    sched = schedule(n, delta, k, s)
    p1 = Fraction(delta, 2 * k * n)
    d2 = LnScaled(Fraction(2 * (s + 1) * 2 * k) / (p1 * n), 1)
    assert sched.d[1] == d2
    assert sched.p[1] == LnScaled.of(Fraction(delta, 2 * k)) / d2


def test_level_product_invariant():
    # p_i * d_i = delta / (2k) at every level, exactly
    for n, delta, k, s in [(64, 8, 1, 10), (64, 8, 2, 100), (256, 4, 3, 50), (1000, 30, 4, 77)]:
        sched = schedule(n, delta, k, s)
        target = LnScaled.of(Fraction(delta, 2 * k))
        for d_i, p_i in zip(sched.d, sched.p):
            assert p_i * d_i == target


def test_ln2_powers_by_level():
    sched = schedule(256, 4, 4, 50)
    for i in range(4):
        assert sched.d[i].power == i
        assert sched.p[i].power == -i


def test_recursion_matches_closed_form():
    for n, delta, k, s in [(100, 10, 1, 50), (64, 8, 2, 100), (512, 6, 3, 40)]:
        sched = schedule(n, delta, k, s)
        for i in range(1, k + 1):
            assert sched.d[i - 1] == sched.closed_form_d(i)
            assert sched.p[i - 1] == sched.closed_form_p(i)


def test_growth_ratio_connects_consecutive_levels():
    sched = schedule(128, 8, 3, 60)
    ratio = sched.growth_ratio()
    assert sched.d[1] == sched.d[0] * ratio
    assert sched.d[2] == sched.d[1] * ratio


def test_next_degree_threshold_extends_recursion():
    sched = schedule(128, 8, 2, 60)
    d3 = LnScaled(Fraction(2 * 61 * 4), 1) / (sched.p[1] * 128)
    assert sched.next_degree_threshold() == d3
    assert sched.next_degree_threshold() == sched.closed_form_d(3)


def test_lemma_bound_first_level_form():
    # with k = 1 the bound collapses to n*delta / (32 * ln2 * (s+1))
    n, delta, s = 100, 10, 50
    sched = schedule(n, delta, 1, s)
    assert lemma_color_bound(sched) == LnScaled(
        Fraction(n * delta, 32 * (s + 1)), -1
    )


def test_theorem_bound_exact_values():
    assert theorem_color_bound(100, 10, 1, 50) == Fraction(1, 500)
    # (1/200)^4 * (64*8/4)^2 = 16384 / 1.6e9
    assert theorem_color_bound(64, 8, 2, 4) == Fraction(128**2, (ETA_0 * 2) ** 4)


def test_theorem_never_exceeds_lemma():
    for n, delta, k, s in [
        (100, 10, 1, 50),
        (1000, 20, 1, 300),
        (64, 8, 2, 100),
        (4096, 12, 2, 5000),
        (512, 6, 3, 40),
        (10**6, 100, 3, 10**7),
    ]:
        report = color_lower_bound(n, delta, k, s)
        assert report.theorem_le_lemma(), (n, delta, k, s)


def test_hypothesis_warnings():
    # tiny delta trips the 64*ln^2(2n) floor
    sched = schedule(100, 2, 1, 1000)
    assert any("64*ln^2" in w for w in sched.warnings)
    assert not sched.hypotheses_ok

    # delta^k > n trips the depth warning
    sched = schedule(10, 8, 2, 1000)
    assert any("delta^k" in w for w in sched.warnings)

    # s below n*log2(delta) trips the budget warning
    sched = schedule(100, 16, 1, 10)
    assert any("below n*log2" in w for w in sched.warnings)


def test_no_budget_warning_when_delta_is_one():
    sched = schedule(100, 1, 1, 1)
    assert not any("log2" in w for w in sched.warnings)


def test_probability_flag():
    assert schedule(100, 10, 1, 50).p_in_unit_interval
    # delta = 2n makes p_1 = 1 at k = 1, outside the open interval
    assert not schedule(10, 20, 1, 50).p_in_unit_interval


def test_corollary_polylog_regime_derivation():
    n = 2**20
    chk = corollary_check(n, q=1)
    assert chk.mode == "q" and chk.parameter == 1
    assert chk.delta == round(200 * 20.0**2) == 80000
    assert chk.k == 1
    assert chk.s == 20 * 2**20
    assert chk.theorem_bound == Fraction(2, 5)
    assert chk.threshold_ln == pytest.approx(80000 ** 0.25)
    assert not chk.exceeds


def test_corollary_polylog_regime_q2():
    n = 2**20
    chk = corollary_check(n, q=2)
    assert chk.delta == round(200 * 20.0**3) == 1600000
    assert chk.k == 1
    assert chk.s == 400 * 2**20
    assert chk.theorem_bound == Fraction(2, 5)
    assert chk.threshold_ln == pytest.approx(1600000 ** 0.125)
    assert not chk.exceeds


def test_corollary_polynomial_regime_quarter():
    n = 2**20
    chk = corollary_check(n, alpha=Fraction(1, 4))
    assert chk.mode == "alpha" and chk.parameter == Fraction(1, 4)
    assert chk.delta == 2**10
    assert chk.k == 2
    assert chk.s == 2**25
    assert chk.theorem_bound == Fraction(2**10, 200**4)
    assert chk.threshold_ln == pytest.approx(math.log(2**10) / 0.75)
    assert not chk.exceeds


def test_corollary_polynomial_regime_half():
    n = 2**20
    chk = corollary_check(n, alpha=Fraction(1, 2))
    assert chk.delta == 2**20
    assert chk.k == 1
    assert chk.s == 2**30
    assert chk.theorem_bound == Fraction(2**10, 100**2)
    assert chk.threshold_ln == pytest.approx(math.log(2**20) / 1.5)
    assert not chk.exceeds


def test_corollary_bound_ln_is_log_of_bound():
    chk = corollary_check(2**20, q=1)
    assert chk.theorem_bound_ln == pytest.approx(math.log(0.4))


def test_corollary_argument_validation():
    with pytest.raises(ValueError):
        corollary_check(100)
    with pytest.raises(ValueError):
        corollary_check(100, q=1, alpha=Fraction(1, 2))
    with pytest.raises(ValueError):
        corollary_check(100, alpha=Fraction(3, 2))
    with pytest.raises(ValueError):
        corollary_check(100, q=0)


def test_corollary_q_mode_needs_two_vertices():
    # log2(1) = 0 would leave log_delta(n) at 0/0
    with pytest.raises(UsageError, match=r"^q-mode needs n >= 2$"):
        corollary_check(1, q=1)
    assert corollary_check(2, q=1).delta == 200
    assert corollary_check(1, alpha=Fraction(1, 2)).delta == 1
