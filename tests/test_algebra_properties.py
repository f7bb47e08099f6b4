"""Property tests of the point layer against naive references: integer
ParamPoly.evaluate and substitute against the plain sum c*l^i*a^j, a
ParamPoly built by `_over` against the same polynomial built from
Fractions (one canonical integer form, and equal values under every
operation), every ParamPoly operator against a plain Fraction-dict
reference, a product chain's series product against a plain list
convolution, route A's product of Fraction-term coefficient lists by
`_pp_dot` against a plain convolution and the plain ring loop, a
symbolic S2* (a Stirling-1 sum) against the series of the product it
expands, and every operation on series and integer rows against a
Fraction list.  The chain products and the reciprocal run on integer rows
(nums, den), and every result must be the row in lowest terms that
`_lowest` gives; truncate and == run on a series' Fraction coefficients."""

from fractions import Fraction
import math
import operator

from hypothesis import example, given, settings, strategies as st
import pytest

from degsimsek.algebra import (ParamPoly, SeriesDomainError, TruncSeries,
                               _lowest, _over, _reciprocal)
from degsimsek.classical import _ProductChain
from degsimsek.degenerate import new_deg_stirling2
from degsimsek.simsek import _int_terms, _pp_dot

from oracles import (as_row, falling_product, reciprocal_solve, ring_product,
                     row_values, series_mul, terms_add, terms_mul, terms_neg,
                     terms_substitute)

rationals = st.builds(Fraction, st.integers(-60, 60), st.integers(1, 25))
small_rationals = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9))
exponents = st.tuples(st.integers(0, 7), st.integers(0, 7))
polys = st.dictionaries(exponents, rationals, max_size=8).map(ParamPoly)

SETTINGS = settings(max_examples=150, deadline=None)
L = ParamPoly.lam()
A = ParamPoly.alpha()


def naive_value(poly: ParamPoly, lam, alpha) -> Fraction:
    return sum((c * lam**i * alpha**j for (i, j), c in poly.terms.items()),
               Fraction(0))


@SETTINGS
@given(polys, small_rationals, small_rationals)
@example(ParamPoly({(0, 0): Fraction(3, 4), (2, 1): Fraction(-5, 6)}),
         Fraction(0), Fraction(-2, 3))
@example(ParamPoly({(0, 3): Fraction(7, 2), (1, 0): Fraction(1, 9)}),
         Fraction(-7, 5), Fraction(0))
@example(ParamPoly({(0, 0): Fraction(-1, 3)}), Fraction(0), Fraction(0))
@example(ParamPoly(), Fraction(-3, 7), Fraction(5, 2))
def test_evaluate_equals_naive_sum(poly, lam, alpha):
    value = poly.evaluate(lam, alpha)
    assert type(value) is Fraction
    assert value == naive_value(poly, lam, alpha)


@SETTINGS
@given(polys, small_rationals, small_rationals)
@example(ParamPoly({(3, 2): Fraction(1, 2), (0, 1): Fraction(-4)}),
         Fraction(0), Fraction(0))
def test_substitute_both_equals_evaluate(poly, lam, alpha):
    assert poly.substitute(lam=lam, alpha=alpha) == \
        ParamPoly({(0, 0): poly.evaluate(lam, alpha)})


@SETTINGS
@given(polys, small_rationals)
def test_substitute_one_then_other_equals_evaluate(poly, value):
    # substituting l then a (or a then l) is the same ring homomorphism
    assert poly.substitute(lam=value).substitute(alpha=value) == \
        ParamPoly({(0, 0): poly.evaluate(value, value)})
    assert poly.substitute(alpha=value).evaluate(value, 0) == \
        poly.evaluate(value, value)


int_terms = st.dictionaries(exponents, st.integers(-10**6, 10**6), max_size=8)
denominators = st.integers(-720, 720).filter(bool)


def integer_form(poly: ParamPoly) -> tuple[dict, int]:
    """poly's integer form, which must be in lowest terms."""
    nums, den = poly._nums, poly._den
    assert den > 0 and 0 not in nums.values()
    assert math.gcd(den, *nums.values()) == 1
    return nums, den


def int_terms_or_error(terms: dict, scale: int):
    try:
        return _int_terms(terms, scale)
    except ValueError:
        return "not integral"


@SETTINGS
@given(int_terms, denominators, polys, small_rationals, small_rationals)
# lam = 0, alpha = 0 and negative points; negative and unreduced
# denominators
@example({(0, 0): 6, (2, 1): -4, (1, 0): 0}, -2, ParamPoly(),
         Fraction(0), Fraction(0))
@example({(1, 0): 15, (0, 3): -10}, 25, ParamPoly.lam(),
         Fraction(0), Fraction(-3, 4))
@example({(3, 2): -7, (0, 1): 14}, -21, ParamPoly.alpha() + 1,
         Fraction(-5, 3), Fraction(0))
@example({}, 5, ParamPoly({(0, 0): Fraction(1, 3)}), Fraction(2),
         Fraction(-1))
def test_integer_form_reads_like_the_fraction_form(terms, den, other, lam,
                                                   alpha):
    fractions = {key: Fraction(c, den) for key, c in terms.items() if c}
    over, frac = _over(terms, den), ParamPoly(fractions)
    # built by _over, and from the Fraction terms: one form and one text
    assert over.render() == frac.render()
    assert integer_form(over) == integer_form(frac)
    assert over.evaluate(lam, alpha) == frac.evaluate(lam, alpha) == \
        naive_value(frac, lam, alpha)
    for scale in (1, den, 6 * den, abs(den) + 1):
        scaled = {key: Fraction(c * scale, den)
                  for key, c in terms.items() if c}
        expected = ({key: int(v) for key, v in scaled.items()}
                    if all(v.denominator == 1 for v in scaled.values())
                    else "not integral")
        # route A's _int_terms reads Fraction terms: read back from the
        # integer form, or as given
        assert int_terms_or_error(over.terms, scale) == \
            int_terms_or_error(fractions, scale) == expected
    assert over == frac and frac == over
    assert over.render() == frac.render()
    for op in (operator.add, operator.sub, operator.mul):
        assert op(over, other).render() == op(frac, other).render()
        assert op(other, over).render() == op(other, frac).render()
    for values in ({"lam": lam}, {"alpha": alpha},
                   {"lam": lam, "alpha": alpha}):
        assert over.substitute(**values).render() == \
            frac.substitute(**values).render()


@SETTINGS
@given(polys, polys, st.integers(0, 4), small_rationals, small_rationals)
# a sum and a product that cancel whole, and scalars 0 and 1
@example(ParamPoly({(1, 0): Fraction(1, 2), (0, 2): Fraction(-3, 4)}),
         ParamPoly({(1, 0): Fraction(-1, 2), (0, 2): Fraction(3, 4)}),
         0, Fraction(0), Fraction(1))
@example(ParamPoly({(0, 0): Fraction(-2, 3)}), ParamPoly(), 4, Fraction(1),
         Fraction(0))
@example(ParamPoly(), ParamPoly.lam() * Fraction(5, 6), 3, Fraction(-1),
         Fraction(7, 2))
def test_operators_equal_the_fraction_dict_reference(p, q, n, lam, alpha):
    # each operator against the plain Fraction-dict reference, with every
    # result held in lowest terms over a positive denominator
    P, Q = dict(p.terms), dict(q.terms)
    results = [(p + q, terms_add(P, Q)),
               (p - q, terms_add(P, terms_neg(Q))),
               (-p, terms_neg(P)),
               (p * q, terms_mul(P, Q)),
               (p.substitute(lam=lam), terms_substitute(P, lam=lam)),
               (p.substitute(alpha=alpha), terms_substitute(P, alpha=alpha)),
               (p.substitute(lam, alpha), terms_substitute(P, lam, alpha))]
    for c in (lam, n):
        C = {(0, 0): Fraction(c)} if c else {}
        results += [(p + c, terms_add(P, C)), (c + p, terms_add(C, P)),
                    (p - c, terms_add(P, terms_neg(C))),
                    (c - p, terms_add(C, terms_neg(P))),
                    (p * c, terms_mul(P, C)), (c * p, terms_mul(C, P))]
    for value, expected in results:
        assert type(value) is ParamPoly
        assert value.terms == expected
        integer_form(value)
        assert value == ParamPoly(expected)
    assert (p == q) == (P == Q)
    assert (p == lam) == (P == ({(0, 0): lam} if lam else {}))
    # terms is built on each read: mutating it leaves the polynomial as it
    # was
    nums, den = integer_form(p)
    held = dict(nums), den
    view = p.terms
    view.clear()
    view[(9, 9)] = Fraction(1)
    assert p.terms == P and p.terms is not p.terms
    assert integer_form(p) == held
    assert p == ParamPoly(P) and p.render() == ParamPoly(P).render()


def convolution(a: list, b: list, zero) -> list:
    return [sum((a[i] * b[m - i] for i in range(m + 1)), zero)
            for m in range(len(a))]


def sparse(elements):
    """Coefficient lists of length order+1 with zeros mixed in."""
    return st.integers(0, 7).flatmap(lambda order: st.tuples(
        st.lists(elements, min_size=order + 1, max_size=order + 1),
        st.lists(elements, min_size=order + 1, max_size=order + 1)))


def zero_or(strategy, zero):
    return st.one_of(st.just(zero), strategy)


@SETTINGS
@given(sparse(zero_or(rationals, Fraction(0))))
# zeros beside denominators > 1 in both operands, for the integer product
@example(([Fraction(1, 2), Fraction(0), Fraction(-3, 4), Fraction(0)],
          [Fraction(0), Fraction(5, 6), Fraction(0), Fraction(-7, 9)]))
@example(([Fraction(0), Fraction(-1, 25), Fraction(0)],
          [Fraction(0), Fraction(0), Fraction(3, 10)]))
@example(([Fraction(0)] * 3, [Fraction(2, 3), Fraction(0), Fraction(1, 7)]))
def test_series_product_over_qq(pair):
    # the series products are the product chains': P_2 = x(x - s) for the
    # series x = a and the step s = b_0, summed on integer numerators,
    # against a plain convolution, in the canonical integer form
    a, b = pair
    order = len(a) - 1
    chain = _ProductChain(lambda m: as_row(a[:m + 1]), b[0])
    assert_canonical(chain.product(2, order),
                     convolution(a, [a[0] - b[0], *a[1:]], Fraction(0)))


@SETTINGS
@given(sparse(zero_or(rationals, Fraction(0))), st.integers(0, 7))
@example(([Fraction(1, 2), Fraction(0), Fraction(-3, 4), Fraction(0)],
          [Fraction(2, 3), Fraction(0), Fraction(0), Fraction(0)]), 1)
@example(([Fraction(0), Fraction(-1, 25), Fraction(0)],
          [Fraction(0), Fraction(0), Fraction(0)]), 0)
def test_qq_product_is_canonical(pair, m):
    # every product of a chain stays in lowest terms over den > 0, also
    # when read first at a lower order m and then extended to the full one
    a, b = pair
    order = len(a) - 1
    m = min(m, order)
    chain = _ProductChain(lambda n: as_row(a[:n + 1]), b[0])
    for j in range(4):
        assert_canonical(chain.product(j, m), falling_product(
            a[:m + 1], j, b[0], Fraction(1), Fraction(0)))
    for j in range(4):
        assert_canonical(chain.product(j, order), falling_product(
            a, j, b[0], Fraction(1), Fraction(0)))


@SETTINGS
@given(sparse(zero_or(polys, ParamPoly())))
def test_series_product_over_parampoly(pair):
    a, b = pair
    product = pp_product(a, b)
    assert product == [c.terms for c in convolution(a, b, ParamPoly())]
    assert_no_zero_terms(product)


# ---------------------------------------------------------------------------
# Route A's product kernel `_pp_dot`: one dict per coefficient, against the
# plain ring loop, with zero coefficients and products that cancel.
# ---------------------------------------------------------------------------


def pp_product(a: list, b: list) -> list:
    """The truncated product of two coefficient lists of one length, given
    as ParamPoly and multiplied as their Fraction terms, one _pp_dot per
    coefficient, as route A multiplies."""
    a, b = [p.terms for p in a], [p.terms for p in b]
    return [_pp_dot(a[:m + 1], b[m::-1]) for m in range(len(a))]


pp_lists = st.integers(0, 8).flatmap(lambda order: st.lists(
    zero_or(polys, ParamPoly()), min_size=order + 1, max_size=order + 1))


@st.composite
def pp_pairs(draw):
    """Two coefficient lists of one length; in about half the draws the
    first two coefficients are p, q and p*s, -q*s + x, so that coefficient
    1 of the product, p*(-q*s + x) + q*p*s = p*x, cancels whole when x is
    0 and term by term otherwise."""
    a = draw(pp_lists)
    b = draw(st.lists(zero_or(polys, ParamPoly()), min_size=len(a),
                      max_size=len(a)))
    if len(a) > 1 and draw(st.booleans()):
        p, q, s = draw(polys), draw(polys), draw(polys)
        x = draw(zero_or(polys, ParamPoly()))
        a[:2] = [p, q]
        b[:2] = [p * s, -(q * s) + x]
    return a, b


def assert_no_zero_terms(coeffs: list):
    """Each coefficient is a dict of nonzero Fraction terms."""
    assert all(type(c) is dict for c in coeffs)
    assert all(type(v) is Fraction and v != 0
               for c in coeffs for v in c.values())


@SETTINGS
@given(pp_pairs())
@example(([L, L], [A, -A]))  # (l + l t)(a - a t) = l a - l a t^2
@example(([ParamPoly()] * 3, [L, ParamPoly(), A]))
@example(([L + 1, L - A], [L + 1, A - L]))  # coefficient 1 cancels
def test_pp_product_kernel_equals_the_ring_loop(pair):
    a, b = pair
    product = pp_product(a, b)
    assert product == [c.terms for c in ring_product(a, b, ParamPoly())]
    assert_no_zero_terms(product)


small_alphas = st.dictionaries(st.tuples(st.integers(0, 2), st.integers(0, 2)),
                               small_rationals, max_size=3).map(ParamPoly)


@settings(max_examples=25, deadline=None)
@given(small_alphas, st.integers(0, 6), st.integers(0, 6))
@example(A, 6, 5)
@example(A * 2, 6, 5)
@example(L + A, 6, 6)
@example(ParamPoly(), 4, 3)
def test_symbolic_s2star_equals_the_series_of_the_falling_product(
        alpha, n, k):
    # the Stirling-1 sum against n!/k! [t^n] of the product it expands,
    # prod_{j<k} (e^t - 1 - j alpha) over ParamPoly coefficient lists
    em1 = [ParamPoly()] + [ParamPoly({(0, 0): Fraction(1, math.factorial(m))})
                           for m in range(1, n + 1)]
    series = falling_product(em1, k, alpha, ParamPoly({(0, 0): 1}),
                             ParamPoly())
    value = new_deg_stirling2(n, k, alpha)
    assert value == series[n] * Fraction(math.factorial(n),
                                         math.factorial(k))
    assert all(c != 0 for c in value.terms.values())


# ---------------------------------------------------------------------------
# Series: every operation against a plain Fraction-list reference, and
# the canonical integer form of every result.
# ---------------------------------------------------------------------------

qq_lists = st.integers(0, 7).flatmap(lambda order: st.lists(
    zero_or(rationals, Fraction(0)), min_size=order + 1, max_size=order + 1))
scalars = st.one_of(rationals, st.integers(-20, 20))


def qq(coeffs) -> TruncSeries:
    return TruncSeries("t", len(coeffs) - 1, coeffs)


def assert_canonical(row: tuple, expected: list):
    """row = (nums, den) holds exactly `expected`, as a tuple of ints in
    lowest terms over den > 0."""
    nums, den = row
    assert den > 0
    assert math.gcd(den, *nums) == 1
    assert type(nums) is tuple and len(nums) == len(expected)
    assert all(type(c) is int for c in nums)
    assert row_values(row) == expected


def assert_series(series: TruncSeries, expected: list):
    """series holds exactly `expected`, as Fractions."""
    assert series.order + 1 == len(expected)
    assert list(series.coeffs) == expected
    assert all(type(c) is Fraction for c in series.coeffs)


@SETTINGS
@given(qq_lists, st.integers(0, 7))
@example([Fraction(1, 2), Fraction(1, 3)], 0)
def test_qq_truncate(a, m):
    m = min(m, len(a) - 1)
    # a series built from Fractions, and an integer row brought back to
    # lowest terms
    assert_series(qq(a).truncate(m), a[:m + 1])
    nums, den = as_row(a)
    assert_canonical(_lowest(nums[:m + 1], den), a[:m + 1])


@SETTINGS
@given(qq_lists, scalars, st.integers(-9, 9).filter(bool))
@example([Fraction(2, 4)], Fraction(1, 2), -1)
@example([Fraction(0)] * 4, 0, 6)
def test_qq_equality_is_canonical(a, c, scale):
    series = qq(a)
    # the same series reached by another path compares equal, and the same
    # row scaled by any nonzero int, of either sign, comes back to one form
    other = TruncSeries("t", len(a) - 1, [Fraction(x) for x in a])
    assert series == other
    row = as_row(a)
    assert _lowest([scale * x for x in row[0]], scale * row[1]) == row
    assert_canonical(_lowest(*row), a)
    assert (series == qq(a[:-1] + [a[-1] + 1])) is False
    assert (series == c) == (a[0] == c and not any(a[1:]))
    assert series != TruncSeries("x", len(a) - 1, a)
    if len(a) > 1:
        assert series != series.truncate(len(a) - 2)


@SETTINGS
@given(qq_lists.filter(lambda a: a[0] != 0))
@example([Fraction(-1)])
@example([Fraction(-3, 5), Fraction(2, 7), Fraction(0), Fraction(-1, 9)])
@example([Fraction(7, 2), Fraction(0), Fraction(0)])
def test_qq_reciprocal(a):
    inverse = _reciprocal(*as_row(a))
    assert_canonical(inverse, reciprocal_solve(a, len(a) - 1))
    assert series_mul(qq(a), qq(row_values(inverse))) == 1


@SETTINGS
@given(qq_lists.filter(lambda a: a[0] != 0), st.integers(0, 7))
@example([Fraction(2, 3), Fraction(0), Fraction(5, 4), Fraction(-1, 6)], 0)
def test_qq_reciprocal_extended_from_a_lower_order(a, m):
    # the coefficients held at order m are kept, the others appended
    m = min(m, len(a) - 1)
    extended = _reciprocal(*as_row(a), _reciprocal(*as_row(a[:m + 1])))
    assert_canonical(extended, reciprocal_solve(a, len(a) - 1))


@SETTINGS
@given(qq_lists)
@example([Fraction(0), Fraction(1, 3), Fraction(-2, 9)])
def test_qq_reciprocal_needs_a_unit(a):
    with pytest.raises(SeriesDomainError):
        _reciprocal(*as_row([Fraction(0)] + a[1:]))
