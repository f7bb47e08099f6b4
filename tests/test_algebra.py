"""Scalar and polynomial arithmetic, what truncated series keep (truncate,
==, render), and the reciprocal of an integer row."""

from fractions import Fraction
import math
import operator
import random

import pytest

import degsimsek
from degsimsek import algebra, classical
from degsimsek.algebra import (MAX_DECIMAL_EXPONENT, ParamPoly,
                               SeriesDomainError, TruncSeries, _lowest,
                               _reciprocal, parse_rational)
from degsimsek.classical import _ProductChain
from degsimsek.simsek import fk_series

from oracles import (add_constant, as_row, compose, count_partitions,
                     exp_series, log1p_series, neg, poly_mul,
                     reciprocal_solve, row_values, series_mul, sub)


def qs(coeffs, order=None, var="t"):
    order = len(coeffs) - 1 if order is None else order
    return TruncSeries(var, order, [Fraction(c) for c in coeffs])


def row(coeffs, order=None):
    """The integer row of qs(coeffs, order)."""
    return as_row(qs(coeffs, order).coeffs)


# ---------------------------------------------------------------------------
# the series operations that were removed, and the ones kept
# ---------------------------------------------------------------------------

REMOVED = {
    "degsimsek": ("degenerate_falling", "series_reciprocal"),
    "algebra": ("exp_t", "series_reciprocal"),
    "classical": ("degenerate_falling",),
    "ParamPoly": ("const", "term", "deg_l", "deg_a", "constant_value",
                  "__pow__", "__sub__", "__rsub__", "__neg__"),
    "TruncSeries": ("__mul__", "__rmul__", "_mul_qq", "__pow__", "__neg__",
                    "__rsub__", "variable", "_check_compatible", "__add__",
                    "__radd__", "__sub__", "constant", "_qq", "nums", "den",
                    "_to_ints", "_coeffs", "_nums", "_den"),
}


@pytest.mark.parametrize("operation", [
    lambda s: s * s, lambda s: 2 * s, lambda s: s ** 2, lambda s: -s,
    lambda s: s + s, lambda s: 1 - s, lambda s: s + 1, lambda s: 1 + s,
    lambda s: s - 1],
    ids=["s*s", "2*s", "s**2", "-s", "s+s", "1-s", "s+1", "1+s", "s-1"])
def test_removed_series_algebra_raises_and_its_names_are_gone(operation):
    # series products, powers and shifts are summed in the kernels that
    # need them (integer rows, the product chains, route A); a series has
    # no arithmetic
    with pytest.raises(TypeError):
        operation(add_constant(exp_series(4), -1))
    owners = {"degsimsek": degsimsek, "algebra": algebra,
              "classical": classical, "ParamPoly": ParamPoly,
              "TruncSeries": TruncSeries}
    for owner, names in REMOVED.items():
        for name in names:
            assert not hasattr(owners[owner], name), (owner, name)
    for name in REMOVED["degsimsek"]:
        assert name not in degsimsek.__all__
    assert TruncSeries.__slots__ == ("var", "order", "coeffs")


@pytest.mark.parametrize("operation", [
    lambda p, q: p - 1, lambda p, q: 1 - p, lambda p, q: -p,
    lambda p, q: p - q], ids=["p-1", "1-p", "-p", "p-q"])
def test_removed_parampoly_minus_raises(operation):
    # no command subtracts or negates a polynomial: p - q is p + (-1) * q
    p = ParamPoly({(1, 0): 2, (0, 0): Fraction(-1, 3)})
    with pytest.raises(TypeError):
        operation(p, ParamPoly.alpha())
    # the replacements README gives
    assert p + (-1) * ParamPoly.alpha() == ParamPoly(
        {(1, 0): 2, (0, 0): Fraction(-1, 3), (0, 1): -1})
    assert (-1) * p == ParamPoly({(1, 0): -2, (0, 0): Fraction(1, 3)})


@pytest.mark.parametrize("order", [-3, -1])
def test_truncate_rejects_a_negative_order(order):
    for series in (fk_series(2, 6, Fraction(1, 2), Fraction(1, 3)),
                   fk_series(2, 6), exp_series(6)):
        with pytest.raises(ValueError, match="non-negative"):
            series.truncate(order)


# ---------------------------------------------------------------------------
# series products: summed by the product chains, undone by _reciprocal, on
# integer rows
# ---------------------------------------------------------------------------

def test_mul_difference_of_squares():
    # the chain's P_2 = x(x - 2) at x = 1 + t is (t + 1)(t - 1)
    chain = _ProductChain(lambda order: row([1, 1], order=order), 2)
    assert chain.product(2, 5) == row([-1, 0, 1], order=5)


def test_mul_exp_times_exp_minus():
    e = as_row(exp_series(8).coeffs)
    em = as_row([Fraction((-1) ** m, math.factorial(m)) for m in range(9)])
    assert _reciprocal(*e) == em
    assert _reciprocal(*em) == e


def test_mul_geometric_telescopes():
    assert _reciprocal(*row([1] * 7, order=6)) == row([1, -1], order=6)


def test_series_in_different_variables_do_not_combine():
    c = Fraction(-2, 3)
    t = TruncSeries("t", 3, [c, 1, c])
    x = TruncSeries("x", 3, [c, 1, c])
    t3 = add_constant(t, 3)
    for a, b in ((t, x), (x, t), (t3, x), (x, t3)):
        for op in (operator.add, operator.sub, operator.mul):
            with pytest.raises(TypeError):
                op(a, b)
        assert (a == b) is False
        assert a != b


# ---------------------------------------------------------------------------
# exp and log(1 + t), composed by Horner over coefficient lists
# ---------------------------------------------------------------------------

def test_exp_of_t():
    assert exp_series(4) == qs([1, 1, Fraction(1, 2), Fraction(1, 6),
                                Fraction(1, 24)])


def test_exp_undoes_log():
    assert compose(exp_series(6), log1p_series(6)) == qs([1, 1], order=6)


def test_exp_of_2t_cubic_coefficient():
    e = exp_series(3).coeffs
    assert poly_mul(e, e)[3] == Fraction(4, 3)


def test_log_undoes_exp():
    t = qs([0, 1], order=6)
    assert compose(log1p_series(6), add_constant(exp_series(6), -1)) == t


# ---------------------------------------------------------------------------
# _reciprocal
# ---------------------------------------------------------------------------

def test_reciprocal_geometric():
    assert _reciprocal(*row([1, -1], order=5)) == row([1] * 6)


def test_reciprocal_is_involution():
    a = row([1, 3, 1], order=6)
    assert _reciprocal(*_reciprocal(*a)) == a


def test_reciprocal_t_over_expm1():
    # oracle: triangular solve of ((e^t-1)/t) * b = 1 by hand, to order 2
    oracle = reciprocal_solve([1, Fraction(1, 2), Fraction(1, 6)], 2)
    assert oracle[2] == Fraction(1, 12)
    em1_over_t = as_row([Fraction(1, math.factorial(m + 1))
                         for m in range(9)])
    assert row_values(_reciprocal(*em1_over_t))[2] == oracle[2]


def test_reciprocal_needs_a_unit():
    with pytest.raises(SeriesDomainError):
        _reciprocal(*row([0, 1], order=4))


# ---------------------------------------------------------------------------
# composition
# ---------------------------------------------------------------------------

def test_compose_exp_with_expm1_gives_bell_numbers():
    bell4 = count_partitions(4)
    assert bell4 == 15
    e = exp_series(4)
    assert compose(e, add_constant(e, -1)).coeffs[4] == Fraction(bell4, 24)


# ---------------------------------------------------------------------------
# ParamPoly.evaluate and ParamPoly basics
# ---------------------------------------------------------------------------

def test_poly_eval_examples():
    p = sub(ParamPoly.lam() * ParamPoly.lam() + ParamPoly.lam(),
            ParamPoly.lam() * ParamPoly.alpha() * Fraction(1, 2))
    assert p.evaluate(1, 0) == 2
    assert ParamPoly({(0, 0): 1}).evaluate(Fraction(7, 3), Fraction(-5)) == 1
    assert (ParamPoly.lam() * ParamPoly.alpha()).evaluate(
        Fraction(2, 3), Fraction(3, 2)) == 1


def test_poly_eval_is_multiplicative():
    rng = random.Random(99)
    for _ in range(20):
        p = _random_poly(rng)
        q = _random_poly(rng)
        lam = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        alpha = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        assert (p * q).evaluate(lam, alpha) == \
            p.evaluate(lam, alpha) * q.evaluate(lam, alpha)


def test_parse_and_render_rational():
    assert parse_rational("-3/6") == Fraction(-1, 2)
    assert str(parse_rational("4")) == "4"
    with pytest.raises(ValueError):
        parse_rational("1/0")
    with pytest.raises(ValueError):
        parse_rational("abc")


def test_parse_rational_caps_the_decimal_exponent():
    # the cap is read, in either sign and however the exponent is written;
    # one more is rejected with a message naming the cap (Fraction would
    # build 10^20001 in about a millisecond, so the case stays cheap)
    cap = MAX_DECIMAL_EXPONENT
    assert cap == 20000
    assert parse_rational(f"1e{cap}") == 10**cap
    assert parse_rational(f" -3E-{cap} ") == Fraction(-3, 10**cap)
    assert parse_rational(f"2.5e+000{cap}") == Fraction(5, 2) * 10**cap
    assert parse_rational("1e1_0") == 10**10
    for text in (f"1e{cap + 1}", f"1e-{cap + 1}", f"0.5E+{cap + 1}",
                 f"1e{cap + 1:_}"):
        with pytest.raises(ValueError, match=f"above the cap of {cap}$"):
            parse_rational(text)


def test_parampoly_render_canonical_order():
    p = sub(ParamPoly.lam() * ParamPoly.lam() + ParamPoly.lam(),
            ParamPoly.lam() * ParamPoly.alpha() * Fraction(1, 2))
    assert p.render() == "1*l^2 + 1*l + -1/2*l*a"
    assert ParamPoly().render() == "0"
    assert ParamPoly({(0, 0): Fraction(-1, 2)}).render() == "-1/2"


@pytest.mark.parametrize("key", [(-1, 0), (0, -2), (1.5, 0), (0, 2.0),
                                 ("1", 0), (1,), (1, 0, 0), None])
def test_parampoly_rejects_degrees_that_are_not_natural_numbers(key):
    # a negative degree would evaluate as a wrong power or run past the
    # table of powers, and 1.5 would render as l; a zero coefficient does
    # not excuse the key
    for c in (3, 0):
        with pytest.raises(ValueError, match="non-negative integers"):
            ParamPoly({key: c})


def test_parampoly_reads_integer_degrees_of_any_int_type():
    p = ParamPoly({(True, 0): 2, (0, 3): Fraction(1, 2)})
    assert p.terms == {(1, 0): 2, (0, 3): Fraction(1, 2)}
    assert all(type(i) is int and type(j) is int for i, j in p.terms)
    assert p.evaluate(2, -1) == Fraction(7, 2)


def test_parampoly_substitute_partial():
    a2 = ParamPoly.alpha() * ParamPoly.alpha()
    p = ParamPoly.lam() * ParamPoly.alpha() + a2
    assert p.substitute(alpha=2) == ParamPoly.lam() * 2 + 4
    assert p.substitute(lam=0) == a2


# ---------------------------------------------------------------------------
# randomized ring properties (seeded, exhaustively exact)
# ---------------------------------------------------------------------------

def _random_fraction(rng):
    return Fraction(rng.randint(-6, 6), rng.randint(1, 5))


def _random_poly(rng):
    p = ParamPoly()
    for _ in range(rng.randint(0, 4)):
        p = p + ParamPoly({(rng.randint(0, 3), rng.randint(0, 3)):
                           _random_fraction(rng)})
    return p


def _random_series(rng, order):
    return TruncSeries("t", order, [_random_fraction(rng)
                                    for _ in range(order + 1)])


def _ring_axioms(a, b, c, one):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a * one == a
    assert a + neg(a) == sub(a, a)


def test_ring_axioms_rationals():
    rng = random.Random(1)
    for _ in range(30):
        _ring_axioms(_random_fraction(rng), _random_fraction(rng),
                     _random_fraction(rng), Fraction(1))


def test_ring_axioms_parampoly():
    rng = random.Random(2)
    for _ in range(30):
        _ring_axioms(_random_poly(rng), _random_poly(rng), _random_poly(rng),
                     ParamPoly({(0, 0): 1}))


def test_truncation_consistency():
    rng = random.Random(5)
    for _ in range(25):
        n = rng.randint(0, 12)
        m = rng.randint(0, n)
        a = _random_series(rng, n)
        b = _random_series(rng, n)
        assert series_mul(a, b).truncate(m) == \
            series_mul(a.truncate(m), b.truncate(m))
        az = add_constant(a, -a.coeffs[0])  # zero constant term
        for outer in (exp_series(n), log1p_series(n), b):
            assert compose(outer, az).truncate(m) == \
                compose(outer.truncate(m), az.truncate(m))
        if a.coeffs[0] != 0:
            nums, den = _reciprocal(*as_row(a.coeffs))
            assert _lowest(nums[:m + 1], den) == \
                _reciprocal(*as_row(a.coeffs[:m + 1]))


def test_exp_log_inversion_random():
    rng = random.Random(6)
    for _ in range(20):
        n = rng.randint(1, 10)
        a = _random_series(rng, n)
        a = add_constant(a, -a.coeffs[0])
        exp, log1p = exp_series(n), log1p_series(n)
        assert compose(exp, compose(log1p, a)) == add_constant(a, 1)
        assert compose(log1p, add_constant(compose(exp, a), -1)) == a


def test_reciprocal_correctness_random():
    rng = random.Random(7)
    for _ in range(20):
        n = rng.randint(0, 10)
        a = _random_series(rng, n)
        if a.coeffs[0] == 0:
            a = add_constant(a, 1)
        inverse = qs(row_values(_reciprocal(*as_row(a.coeffs))))
        assert series_mul(a, inverse) == qs([1], order=n)
