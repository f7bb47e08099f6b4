"""The three Simsek families and the six-route agreement for y1star."""

from fractions import Fraction
import hashlib
import math

from hypothesis import given, settings, strategies as st
import pytest

from degsimsek import phi, simsek
from degsimsek.algebra import ParamPoly, TruncSeries, _over
from degsimsek.classical import bernoulli_number, stirling1
from degsimsek.phi import phi_series
from degsimsek.registry import run_suite
from degsimsek.simsek import (ROUTES, deg_simsek_y1, fk_series, simsek_y1,
                              y1star)

from oracles import (deg_simsek_y1_alt, exp_series, falling,
                     fk_series_via_bernoulli, fk_sympy, route_c_printed,
                     simsek_y1_via_gf, sub, terms_degrees)

L = ParamPoly.lam()
A = ParamPoly.alpha()


def hand_f2_linear_coefficient():
    """Oracle for y*(1,2): expand F_2 = (l e^t + 1)(l e^t + 1 - a)/2 by hand.

    To order 1 the factors are (l+1) + l t and (l+1-a) + l t; the t^1
    coefficient of their product over 2! is the value."""
    c0 = [L + 1, L]
    c1 = [sub(L + 1, A), L]
    t1 = c0[0] * c1[1] + c0[1] * c1[0]
    return t1 * Fraction(1, 2)


# ---------------------------------------------------------------------------
# y1 and the older degenerate family
# ---------------------------------------------------------------------------

def test_y1_special_cases():
    for n in range(6):
        assert simsek_y1(n, 0) == (1 if n == 0 else 0)
    for k in range(6):
        assert simsek_y1(0, k) == falling(L + 1, k) * Fraction(1, math.factorial(k))
    assert simsek_y1(1, 1) == L


def test_y1_matches_generating_function():
    for n in range(9):
        for k in range(9):
            assert simsek_y1(n, k) == simsek_y1_via_gf(n, k)


def test_y1_lambda_degree_bound():
    for n in range(9):
        for k in range(9):
            assert terms_degrees(simsek_y1(n, k).terms)[0] <= k


def test_deg_simsek_base_row():
    for k in range(7):
        assert deg_simsek_y1(0, k) == falling(L + 1, k) * Fraction(1, math.factorial(k))


def test_deg_simsek_routes_agree():
    for n in range(9):
        for k in range(9):
            assert deg_simsek_y1(n, k) == deg_simsek_y1_alt(n, k)


def test_deg_simsek_alpha_zero_is_y1():
    for n in range(9):
        for k in range(9):
            assert deg_simsek_y1(n, k).substitute(alpha=0) == simsek_y1(n, k)


# ---------------------------------------------------------------------------
# y1star routes
# ---------------------------------------------------------------------------

def test_y1star_column_zero_and_one():
    for route in ROUTES:
        for n in range(11):
            expected = 1 if n == 0 else 0
            assert y1star(n, 0, route) == expected
            assert y1star(n, 1, route) == expected + L


def test_y1star_row_zero_is_degenerate_falling():
    for k in range(11):
        expected = falling(L + 1, k, A) * Fraction(1, math.factorial(k))
        assert y1star(0, k) == expected


def test_y1star_1_2_against_hand_expansion():
    oracle = hand_f2_linear_coefficient()
    assert oracle == sub(L * L + L, L * A * Fraction(1, 2))
    for route in ROUTES:
        assert y1star(1, 2, route) == oracle


def test_route_equivalence_small_grid():
    for n in range(9):
        for k in range(9):
            reference = y1star(n, k, "A")
            for route in "BCDEF":
                assert y1star(n, k, route) == reference, (n, k, route)


def test_printed_c_reading_disagrees():
    # the step-j variant must differ somewhere; first at (n,k) = (0,2)
    assert route_c_printed(0, 2) != y1star(0, 2, "A")
    assert route_c_printed(1, 2) == y1star(1, 2, "A")  # j^1 kills the j=0 term


def test_y1star_alpha_zero_specialization():
    for n in range(11):
        for k in range(11):
            assert y1star(n, k).substitute(alpha=0) == simsek_y1(n, k)


def test_y1star_degree_bounds():
    for n in range(11):
        for k in range(11):
            deg_l, deg_a = terms_degrees(y1star(n, k).terms)
            assert deg_l <= k
            if k >= 1:
                assert deg_a <= k - 1


def test_unknown_route_rejected(cold_store):
    with pytest.raises(ValueError):
        y1star(1, 1, "G")
    assert simsek._y1star_store == {}


def test_negative_index_is_zero():
    for route in ROUTES:
        for n, k in ((-1, 2), (2, -1), (-1, -1)):
            assert y1star(n, k, route) == ParamPoly(), (n, k, route)


# ---------------------------------------------------------------------------
# the store of y1star values
# ---------------------------------------------------------------------------

@pytest.fixture
def cold_store(monkeypatch, cold_chains):
    """Empty y1star, route-A and scaled_y1 stores, route-D weights, F_k
    cache, E/F triangles, product chains (route D reads the Bernoulli
    chain) and the phi_series rows read from the y1star store for one
    test; the warm ones come back afterwards."""
    monkeypatch.setattr(phi, "_phi_rows", {})
    monkeypatch.setattr(simsek, "_y1star_store", {})
    monkeypatch.setattr(simsek, "_route_a_store", {})
    monkeypatch.setattr(simsek, "_scaled_y1_store", {})
    monkeypatch.setattr(simsek, "_route_d_weights", {})
    monkeypatch.setattr(simsek, "_fk_cache", {})
    monkeypatch.setattr(simsek, "_triangle_e",
                        simsek._Triangle(simsek._fill_k_recurrence))
    monkeypatch.setattr(simsek, "_triangle_f",
                        simsek._Triangle(simsek._fill_n_recurrence))


def count_calls(monkeypatch, owner, name: str) -> list:
    """Wrap owner.name so that each call appends its arguments to the
    returned list."""
    calls = []
    inner = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return inner(*args, **kwargs)
    monkeypatch.setattr(owner, name, counted)
    return calls


def route_core(route: str):
    """(owner, name) of the function that computes the route's value."""
    if route == "E":
        return simsek._triangle_e, "get"
    if route == "F":
        return simsek._triangle_f, "get"
    return simsek, {"A": "fk_series", "B": "_route_b", "C": "_route_c",
                    "D": "_route_d"}[route]


@pytest.mark.parametrize("route", ROUTES)
def test_store_second_read_is_a_lookup(cold_store, monkeypatch, route):
    core = count_calls(monkeypatch, *route_core(route))
    fk = count_calls(monkeypatch, simsek, "fk_series")
    first = {(n, k): y1star(n, k, route) for n in range(7) for k in range(7)}
    # the counters see the first reads: one core call per value
    assert len(core) == 49
    assert len(fk) == (49 if route == "A" else 0)
    core.clear()
    fk.clear()
    for (n, k), value in first.items():
        assert y1star(n, k, route) is value, (n, k)
    assert core == [] and fk == []


@pytest.mark.parametrize("route", ROUTES)
def test_stored_value_equals_route_b(cold_store, route):
    for n in range(7):
        for k in range(7):
            value = y1star(n, k, route)
            assert simsek._y1star_store[(n, k, route)] is value
            assert value == _over(simsek._route_b(n, k),
                                  math.factorial(k)), (n, k)


def test_store_reads_interleaved_with_fk_series(cold_store):
    # F_k is read at growing orders between the y1star reads, so route A
    # reads both a freshly built series and truncations of a longer one
    expected = {(n, k): _over(simsek._route_b(n, k),
                              math.factorial(k)).render()
                for n in range(7) for k in range(7)}
    for order in range(7):
        for k in range(7):
            assert fk_series(k, order).coeffs[order] * \
                math.factorial(order) == y1star(order, k)
            for route in ROUTES:
                for n in range(order + 1):
                    assert y1star(n, k, route).render() == \
                        expected[(n, k)], (n, k, route)
    for (n, k), text in expected.items():
        for route in ROUTES:
            assert y1star(n, k, route).render() == text, (n, k, route)


# route A read through the integer store that the symbolic checks share
@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10), st.integers(0, 10))
def test_route_a_equals_route_b_on_cold_stores(n, k):
    with pytest.MonkeyPatch.context() as monkeypatch:
        for name in ("_y1star_store", "_route_a_store", "_fk_cache"):
            monkeypatch.setattr(simsek, name, {})
        value = y1star(n, k, "A")
        assert value == y1star(n, k, "B")
        assert value == _over(simsek._route_a_store[(n, k)],
                              math.factorial(k))


@pytest.mark.parametrize("route", ROUTES)
def test_reads_and_evaluations_build_no_fraction_terms(cold_store, route,
                                                       terms_reads):
    # y1star divides a route's integer terms by k! into the integer form
    # of ParamPoly, and evaluate and == read that form: a value that is
    # only read, evaluated and compared never builds a Fraction per term
    values = [y1star(n, k, route) for n in range(7) for k in range(7)]
    for value in values:
        value.evaluate(Fraction(-7, 11), Fraction(13, 17))
        value.evaluate(0, Fraction(1, 2))
    assert [y1star(n, k, route) for n in range(7) for k in range(7)] == \
        [_over(simsek._route_b(n, k), math.factorial(k))
         for n in range(7) for k in range(7)]
    # route A's product builds Fraction terms of its own, not ParamPoly's
    assert terms_reads == []


def test_phi_series_points_build_no_fraction_terms(cold_store, terms_reads):
    # a phi_series row fills route A's values at its first point; later
    # reads of those values and new points evaluate the integer form only
    row = phi_series(5, Fraction(3, 2), Fraction(1, 3), 6)
    values = [y1star(5, k) for k in range(7)]
    assert phi_series(5, Fraction(-7, 11), Fraction(13, 17), 6) != row
    for value in values:
        value.evaluate(Fraction(2, 3), Fraction(-1, 4))
    assert terms_reads == []


def test_phi_series_then_suite_read_each_f_k_coefficient_once(cold_store,
                                                              monkeypatch):
    # phi_series reads y1star, the suite scaled_y1star; both take route A
    # from the store that fk_series publishes into, so each (n, k) is
    # converted from F_k once, when the build that first reaches order n
    # publishes it, and no read converts one
    fk = count_calls(monkeypatch, simsek, "fk_series")
    converted = count_calls(monkeypatch, simsek, "_int_terms")
    for n in range(9):
        phi_series(n, 1, 0, 8)
    assert sorted(fk) == sorted((k, n) for n in range(9) for k in range(9))
    assert len(converted) == 81
    fk.clear()
    converted.clear()
    assert len(run_suite(order=8)) == 95
    assert fk == [] == converted


# route A read from the store that fk_series publishes into
@settings(max_examples=25, deadline=None)
@given(st.integers(0, 9), st.integers(0, 9), st.integers(1, 3))
def test_fk_series_publishes_every_route_a_value(k, order, more):
    with pytest.MonkeyPatch.context() as monkeypatch:
        for name in ("_y1star_store", "_route_a_store", "_fk_cache"):
            monkeypatch.setattr(simsek, name, {})
        fk_series(k, order)
        store = simsek._route_a_store
        assert sorted(store) == [(n, k) for n in range(order + 1)]
        for n in range(order + 1):
            assert store[(n, k)] == simsek._route_b(n, k), n
        # a later y1star reads the store: no F_k and no coefficient
        fk = count_calls(monkeypatch, simsek, "fk_series")
        converted = count_calls(monkeypatch, simsek, "_int_terms")
        for n in range(order + 1):
            assert y1star(n, k, "A") == _over(simsek._route_b(n, k),
                                              math.factorial(k))
        assert fk == [] == converted
        # a build at a higher order publishes only the orders it adds, and
        # keeps the values already held
        held = dict(store)
        fk_series(k, order + more)
        assert len(converted) == more
        assert all(store[key] is value for key, value in held.items())
        assert sorted(store) == [(n, k) for n in range(order + more + 1)]


# ---------------------------------------------------------------------------
# the generating function F_k
# ---------------------------------------------------------------------------

def test_fk_series_small_k():
    f0 = fk_series(0, 5)
    assert f0.coeffs[0] == 1
    assert all(c == ParamPoly() for c in f0.coeffs[1:])
    f1 = fk_series(1, 4)
    assert f1.coeffs[0] == L + 1
    for n in range(1, 5):
        assert f1.coeffs[n] == L * Fraction(1, math.factorial(n))
    assert fk_series(2, 3).coeffs[1] == sub(L * L + L,
                                            L * A * Fraction(1, 2))


@pytest.mark.parametrize("k", [0, 1, 3, 6])
def test_fk_coefficients_hold_only_the_integer_form(cold_store, k):
    # coefficient n of F_k is the route-A store's n! k! [t^n] F_k over
    # n! k!, held in the integer form alone: on a cold store, in a
    # truncation of a longer build, and after an order rise rebuilds F_k
    def check(order):
        series = fk_series(k, order)
        assert series.order == order
        for n, c in enumerate(series.coeffs):
            expected = y1star(n, k) * Fraction(1, math.factorial(n))
            assert (c._nums, c._den) == (expected._nums, expected._den), \
                (n, order)
    check(6)
    check(3)
    check(9)


def test_fk_coefficients_are_y1star():
    for k in range(7):
        series = fk_series(k, 8)
        for n in range(9):
            assert series.coeffs[n] * math.factorial(n) == y1star(n, k)


def test_fk_rational_specialization():
    lam, alpha = Fraction(2, 3), Fraction(1, 5)
    for k in range(6):
        sym = fk_series(k, 7)
        spec = fk_series(k, 7, lam, alpha)
        for n in range(8):
            assert sym.coeffs[n].evaluate(lam, alpha) == spec.coeffs[n]


def test_fk_bernoulli_polynomial_representation():
    # F_k = (a^k/k!) B_k^(k+1)((l e^t + 1)/a + 1) at rational points, a != 0
    for lam, alpha in ((Fraction(1), Fraction(1, 2)),
                       (Fraction(2, 3), Fraction(1, 3)),
                       (Fraction(-3, 5), Fraction(7, 4))):
        for k in range(7):
            direct = fk_series(k, 8, lam, alpha)
            via_bp = fk_series_via_bernoulli(k, 8, lam, alpha)
            assert direct == via_bp
    with pytest.raises(ValueError):
        fk_series_via_bernoulli(2, 4, Fraction(1), Fraction(0))


def test_fk_series_needs_both_point_values_or_neither():
    for kwargs in ({"lam": 1}, {"alpha": Fraction(1, 2)}):
        with pytest.raises(ValueError,
                           match="give both lam and alpha or neither"):
            fk_series(2, 4, **kwargs)


def test_symbolic_fk_series_matches_the_sympy_expansion(cold_store):
    # every coefficient of F_k to t^6, k <= 6, against sympy's expansion of
    # the product of the factors l e^t + 1 - j a over k!
    expected = fk_sympy(6, 6)
    for k in range(7):
        series = fk_series(k, 6)
        for n in range(7):
            assert series.coeffs[n] == ParamPoly(expected[(k, n)]), (k, n)


# sha256 of the renders of fk_series(k, order) for k and then order <= 8,
# one per line: the text route A's symbolic F_k had while the series was
# held past the constructor, pinned so that building it through
# TruncSeries(var, order, coeffs) changes no byte
FK_RENDERS_SHA256 = ("5068def20bdb611a1fc419119b1c623b"
                     "eddc3b819002d3cd2141d3e497918b67")


def test_symbolic_fk_series_from_the_constructor_keeps_its_text(cold_store):
    # a series built from the sympy expansion's ParamPoly coefficients
    # renders and compares equal to fk_series, which keeps the pinned text
    expected = fk_sympy(8, 8)
    renders = []
    for k in range(9):
        for order in range(9):
            series = fk_series(k, order)
            built = TruncSeries("t", order, [ParamPoly(expected[(k, n)])
                                             for n in range(order + 1)])
            assert all(type(c) is ParamPoly for c in built.coeffs)
            assert built == series and built.render() == series.render()
            renders.append(series.render())
    digest = hashlib.sha256("\n".join(renders).encode()).hexdigest()
    assert digest == FK_RENDERS_SHA256


@pytest.mark.parametrize("k,order", [(-1, 3), (2, -1), (-1, -1), (-1, 0)])
def test_fk_series_rejects_a_negative_index_and_keeps_nothing(cold_store, k,
                                                              order):
    for point in ((), (Fraction(1, 2), Fraction(1, 3))):
        for _ in range(2):
            with pytest.raises(ValueError, match="k, order >= 0"):
                fk_series(k, order, *point)
    assert simsek._fk_cache == {}
    assert simsek._route_a_store == {}
    assert simsek._fk_chains == {}


def test_symbolic_fk_series_takes_no_series_arithmetic():
    # its coefficients are ParamPoly: coeffs, truncate and render read it,
    # and every series operation raises TypeError
    series = fk_series(2, 3)
    assert series.truncate(1).coeffs == series.coeffs[:2]
    assert series.render().startswith("[1/2*l^2 + 1*l + ")
    other = exp_series(3)
    for operation in (lambda: series + other, lambda: other - series,
                      lambda: series * other, lambda: other * series,
                      lambda: series * series, lambda: series + 1,
                      lambda: 2 * series, lambda: -series,
                      lambda: series ** 0, lambda: series ** 2,
                      lambda: series + L, lambda: series * L,
                      lambda: series - 1, lambda: 1 + series):
        with pytest.raises(TypeError):
            operation()


# ---------------------------------------------------------------------------
# the integer recurrences E and F and the integer routes B and C
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("fill", ["_fill_k_recurrence", "_fill_n_recurrence"])
def test_triangle_filled_out_of_order_matches_route_b(fill):
    # a fresh triangle grown in a scrambled order: first a tall column
    # block, then a wide row block, then the whole square
    triangle = simsek._Triangle(getattr(simsek, fill))
    for n, k in ((3, 9), (12, 2), (14, 14)):
        triangle.get(n, k)
    for n in range(15):
        for k in range(15):
            assert triangle.get(n, k) == simsek.scaled_y1star(n, k, "B"), \
                (n, k)


def test_route_c_matches_route_b():
    for n in range(13):
        for k in range(13):
            assert y1star(n, k, "C") == y1star(n, k, "B"), (n, k)


def test_route_d_reads_each_bernoulli_weight_once(cold_store, monkeypatch):
    # the weights are n-free: 36 (k, j) with 1 <= j <= k <= 8 serve the 81
    # route-D values at n, k <= 8
    calls = count_calls(monkeypatch, simsek, "bernoulli_number")
    for n in range(9):
        for k in range(9):
            simsek.scaled_y1star(n, k, "D")
    assert len(calls) <= 36
    assert sorted(set(calls)) == sorted(calls)


def test_route_d_weights_are_signed_stirling_numbers():
    # route D's weights C(k,j) (j/k) B_{k-j}^(k) are the integers s(k,j),
    # since s(k,j) = C(k-1,j-1) B_{k-j}^(k)
    for k in range(1, 16):
        for j in range(1, k + 1):
            weight = (math.comb(k, j) * Fraction(j, k)
                      * bernoulli_number(k - j, k))
            assert weight == stirling1(k, j), (k, j)


def test_stirling1_matches_sympy_signed():
    from sympy.functions.combinatorial.numbers import stirling
    for k in range(9):
        for j in range(k + 1):
            assert stirling1(k, j) == stirling(k, j, kind=1, signed=True), \
                (k, j)


def test_route_a_matches_sympy_series():
    # an independent derivation of route A: n! [t^n] of
    # prod_{i<k} (l e^t + 1 - i a) / k!, for n, k <= 5, with e^t the sympy
    # series through t^5 (the product's series itself takes sympy minutes)
    import sympy
    l, a, t = sympy.symbols("l a t")
    exp_t = sympy.series(sympy.exp(t), t, 0, 6).removeO()
    for k in range(6):
        series = sympy.expand(sympy.Mul(*[l * exp_t + 1 - i * a
                                          for i in range(k)])
                              / sympy.factorial(k))
        for n in range(6):
            coeff = sympy.expand(series.coeff(t, n) * sympy.factorial(n))
            expected = ParamPoly({} if coeff == 0 else {
                key: Fraction(int(c.p), int(c.q))
                for key, c in sympy.Poly(coeff, l, a).terms()})
            assert y1star(n, k) == expected, (n, k)
