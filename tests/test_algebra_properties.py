"""Property tests of the point layer against naive references: integer
ParamPoly.evaluate and substitute against the plain sum c*l^i*a^j, and the
TruncSeries product against a plain list convolution."""

from fractions import Fraction

from hypothesis import example, given, settings, strategies as st

from degsimsek.algebra import PP, QQ, ParamPoly, SeriesRing, TruncSeries

rationals = st.builds(Fraction, st.integers(-60, 60), st.integers(1, 25))
small_rationals = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9))
exponents = st.tuples(st.integers(0, 7), st.integers(0, 7))
polys = st.dictionaries(exponents, rationals, max_size=8).map(ParamPoly)

SETTINGS = settings(max_examples=150, deadline=None)


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
        ParamPoly.const(poly.evaluate(lam, alpha))


@SETTINGS
@given(polys, small_rationals)
def test_substitute_one_then_other_equals_evaluate(poly, value):
    # substituting l then a (or a then l) is the same ring homomorphism
    assert poly.substitute(lam=value).substitute(alpha=value) == \
        ParamPoly.const(poly.evaluate(value, value))
    assert poly.substitute(alpha=value).evaluate(value, 0) == \
        poly.evaluate(value, value)


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
    a, b = pair
    order = len(a) - 1
    product = TruncSeries("t", order, a, QQ) * TruncSeries("t", order, b, QQ)
    assert list(product.coeffs) == convolution(a, b, Fraction(0))
    assert all(type(c) is Fraction for c in product.coeffs)


@SETTINGS
@given(sparse(zero_or(polys, ParamPoly())))
def test_series_product_over_parampoly(pair):
    a, b = pair
    order = len(a) - 1
    product = TruncSeries("t", order, a, PP) * TruncSeries("t", order, b, PP)
    assert list(product.coeffs) == convolution(a, b, ParamPoly())
    assert all(type(c) is ParamPoly for c in product.coeffs)


INNER = SeriesRing(QQ, "t", 2)
inner_series = st.lists(zero_or(small_rationals, Fraction(0)), min_size=3,
                        max_size=3).map(lambda c: TruncSeries("t", 2, c, QQ))


@SETTINGS
@given(sparse(zero_or(inner_series, INNER.zero)))
def test_series_product_over_nested_ring(pair):
    a, b = pair
    order = len(a) - 1
    product = (TruncSeries("x", order, a, INNER)
               * TruncSeries("x", order, b, INNER))
    assert list(product.coeffs) == convolution(a, b, INNER.zero)
    assert all(type(c) is TruncSeries and c.order == 2
               for c in product.coeffs)
