"""The product chains behind bernoulli_number, new_deg_stirling2 at a
rational alpha, apostol_euler and fk_series at a point, and the memo of
ParamPoly.evaluate:
independent sympy oracles (symbolic S2* among them), a property that any
interleaving of cached reads equals the uncached formulas, and count
guards on the work a read does; and the values the public readers keep,
so that a revisit returns the first object and does no work."""

from fractions import Fraction
import math
import random
import sys
import threading

from hypothesis import (HealthCheck, example, given, settings,
                        strategies as st)
import pytest

from degsimsek import (algebra, classical, degenerate, phi, registry,
                       simsek)
from degsimsek.algebra import ParamPoly, SeriesDomainError, TruncSeries
from degsimsek.classical import _ProductChain, bernoulli_number
from degsimsek.degenerate import apostol_euler, new_deg_stirling2
from degsimsek.phi import phi_series
from degsimsek.simsek import fk_series, y1star

from conftest import empty_route_a
from oracles import (apostol_euler_series, apostol_euler_sympy, as_row,
                     falling_product, higher_bernoulli_sympy, reciprocal_solve,
                     row_falling, row_values, s2star_sympy, terms_degrees)

L = ParamPoly.lam()
A = ParamPoly.alpha()


def shuffled(keys, seed: int = 0) -> list:
    """The keys in a fixed random order, so that reads rebuild and extend
    the chains instead of climbing n and k in step."""
    keys = list(keys)
    random.Random(seed).shuffle(keys)
    return keys


def test_bernoulli_numbers_match_sympy_series(cold_chains):
    expected = higher_bernoulli_sympy(6)
    for n, k in shuffled(expected):
        assert bernoulli_number(n, k) == expected[(n, k)], (n, k)


def test_symbolic_s2star_matches_sympy_series(cold_chains):
    expected = s2star_sympy(6)
    for n, k in shuffled(expected):
        assert new_deg_stirling2(n, k, A) == ParamPoly(expected[(n, k)]), \
            (n, k)
    assert degenerate._s2star_chains == {}


def test_apostol_euler_numbers_match_sympy_series(cold_chains):
    # alpha = 0 (e^t) and rational points, two of them with one lam, read
    # interleaved so that each point must keep its own chain
    points = ((Fraction(3, 2), 0), (Fraction(-3, 5), Fraction(1, 2)),
              (2, Fraction(-1, 3)), (Fraction(3, 2), Fraction(-1, 3)))
    expected = {(point, n, k): value for point in points
                for (n, k), value in apostol_euler_sympy(*point, 5).items()}
    for point, n, k in shuffled(expected):
        value = expected[(point, n, k)]
        assert apostol_euler(n, k, *point) == value, (point, n, k)
        series = apostol_euler_series(k, *point, n)
        assert series.coeffs[n] * math.factorial(n) == value


# ---------------------------------------------------------------------------
# cached reads against the formulas computed fresh
# ---------------------------------------------------------------------------

# equal points written as ints and as Fractions, and points that share
# lam or alpha
POINTS = ((1, 0), (Fraction(1), Fraction(0)), (Fraction(3, 2), Fraction(1, 3)),
          (Fraction(-3, 5), Fraction(2, 4)), (Fraction(-6, 10), Fraction(1, 2)),
          (Fraction(3, 2), Fraction(-2, 5)), (2, Fraction(1, 3)))
SYMBOLIC_ALPHAS = (A, A * 2, L + A)


def cached(kind, n, k, point, route):
    lam, alpha = point
    if kind == "B":
        return bernoulli_number(n, k)
    if kind == "S2":
        return new_deg_stirling2(n, k, alpha)
    if kind == "S2 symbolic":
        return new_deg_stirling2(n, k, SYMBOLIC_ALPHAS[route % 3])
    if kind == "E":
        return apostol_euler(n, k, lam, alpha)
    if kind == "F":
        return fk_series(k, n, lam, alpha).coeffs[n]
    return y1star(n, k, "ABCDEF"[route]).evaluate(lam, alpha)


def exp_list(order: int, lam=1, shift=0) -> list:
    """The coefficients of lam e^t + shift to t^order."""
    return [Fraction(lam, math.factorial(m)) + (m == 0) * shift
            for m in range(order + 1)]


def fresh_bernoulli(n: int, k: int) -> Fraction:
    """n! [t^n] (t/(e^t - 1))^k, the reciprocal solved and raised to the
    power k on plain lists."""
    base = reciprocal_solve(exp_list(n + 1, 1, -1)[1:], n)
    return falling_product(base, k, 0, Fraction(1), Fraction(0))[n] \
        * math.factorial(n)


def fresh_s2star(n: int, k: int, alpha) -> Fraction:
    """n!/k! [t^n] prod_{j<k} (e^t - 1 - j alpha) on plain lists."""
    series = falling_product(exp_list(n, 1, -1), k, Fraction(alpha),
                             Fraction(1), Fraction(0))
    return series[n] * Fraction(math.factorial(n), math.factorial(k))


def fresh(kind, n, k, point, route):
    lam, alpha = point
    if kind == "B":
        return fresh_bernoulli(n, k)
    if kind == "S2":
        return fresh_s2star(n, k, alpha)
    if kind == "S2 symbolic":
        em1 = [ParamPoly({(0, 0): c}) for c in exp_list(n, 1, -1)]
        series = falling_product(em1, k, SYMBOLIC_ALPHAS[route % 3],
                                 ParamPoly({(0, 0): 1}), ParamPoly())
        return series[n] * Fraction(math.factorial(n), math.factorial(k))
    if kind == "E":
        return apostol_euler_series(k, lam, alpha, n).coeffs[n] \
            * math.factorial(n)
    if kind == "F":
        return falling_product(exp_list(n, lam, 1), k, Fraction(alpha),
                               Fraction(1), Fraction(0))[n] \
            / math.factorial(k)
    value = y1star(n, k, "ABCDEF"[route])
    return ParamPoly(dict(value.terms)).evaluate(lam, alpha)


READS = st.tuples(st.sampled_from(("B", "S2", "S2 symbolic", "E", "F",
                                   "evaluate")),
                  st.integers(0, 7), st.integers(0, 7),
                  st.sampled_from(POINTS), st.integers(0, 5))


# the chains start cold for the test and carry over between examples,
# which only adds interleavings
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.lists(READS, min_size=1, max_size=20))
def test_interleaved_reads_equal_fresh_formulas(cold_chains, reads):
    for read in reads:
        assert cached(*read) == fresh(*read), read


# ---------------------------------------------------------------------------
# count guards
# ---------------------------------------------------------------------------

FAMILIES = {
    "bernoulli": bernoulli_number,
    "s2star": lambda n, k: new_deg_stirling2(n, k, Fraction(2, 5)),
    "apostol": lambda n, k: apostol_euler(n, k, Fraction(3, 2), Fraction(1, 3)),
}


def family_chain(family: str) -> _ProductChain:
    """The chain behind a family of FAMILIES, once a read has made it."""
    if family == "bernoulli":
        return classical._bernoulli_powers
    if family == "apostol":
        return degenerate._apostol_chains[(3, 2, 1, 3)]
    return degenerate._s2star_chains[(2, 5)]


def count_extensions(monkeypatch) -> tuple[list, list]:
    """From now on, record (order of the product kept, order extended to)
    for every product a chain extends, -1 for a product made from nothing,
    and every term of the coefficient sums: coefficient m of a product
    sums m + 1 integer products."""
    calls, terms = [], []
    inner = classical._extend_qq

    def counted(old, prev, x, step, i):
        calls.append((-1 if old is None else len(old[0]) - 1, len(x[0]) - 1))
        return inner(old, prev, x, step, i)
    monkeypatch.setattr(classical, "_extend_qq", counted)

    def counted_mul(a, b):
        terms.append(1)
        return a * b
    monkeypatch.setattr(classical, "mul", counted_mul)
    return calls, terms


@pytest.mark.parametrize("family", FAMILIES)
def test_revisit_is_free_and_one_more_k_is_one_product(cold_chains,
                                                       monkeypatch, family):
    read = FAMILIES[family]
    first = read(5, 4)
    chain = family_chain(family)
    extensions, terms = count_extensions(monkeypatch)
    # a revisit, a lower order and a shorter product read the chain
    assert read(5, 4) == first
    read(3, 4)
    read(0, 2)
    assert extensions == terms == []
    # each further k is one product at the chain's order: coefficients
    # 0..5, 1 + 2 + ... + 6 terms
    read(5, 5)
    read(2, 6)
    assert extensions == [(-1, 5), (-1, 5)]
    assert len(terms) == 2 * 21
    held = chain.state
    # one order more extends each of P_1..P_6 by its one new coefficient,
    # 7 terms each
    extensions.clear()
    terms.clear()
    read(6, 3)
    assert extensions == [(5, 6)] * 6
    assert len(terms) == 6 * 7
    # the extended products are the ones the factors give at order 6, in a
    # new state; the held one is as it was
    order, x, grown = chain.state
    assert chain.state is not held and held[0] == 5
    assert (order, len(grown)) == (6, 7)
    base = chain.base(6)
    for j, product in enumerate(grown):
        assert product == row_falling(base, j, chain.step), j
        assert held[2][j] == row_falling(chain.base(5), j, chain.step)


def euler_half(lam, alpha, order: int) -> list:
    """(lam e_a(t) + 1)/2 to `order`, e_a's coefficient m being
    (1)_{m,alpha}/m!."""
    out, falling = [], Fraction(1)
    for m in range(order + 1):
        out.append((lam * falling / math.factorial(m) + (m == 0)) / 2)
        falling *= 1 - m * alpha
    return out


BASES = {
    "bernoulli": lambda order: [Fraction(1, math.factorial(m + 1))
                                for m in range(order + 1)],
    "apostol (3/2, 1/3)": lambda order: euler_half(Fraction(3, 2),
                                                   Fraction(1, 3), order),
    "apostol (-2/3, 5/4)": lambda order: euler_half(Fraction(-2, 3),
                                                    Fraction(5, 4), order),
}


@pytest.mark.parametrize("name", BASES)
def test_base_climbed_one_order_at_a_time_equals_a_fresh_base(
        cold_chains, monkeypatch, name):
    if name == "bernoulli":
        base = classical._Reciprocal(classical._bernoulli_inner)
    else:
        lam, alpha = map(Fraction, name.split("(")[1][:-1].split(", "))
        # a cold base on the series the point's chain inverts
        apostol_euler(0, 0, lam, alpha)
        (chain,) = degenerate._apostol_chains.values()
        base = classical._Reciprocal(chain.base.y)
    steps = []
    inner = classical._reciprocal

    def counted(nums, den, old=None):
        steps.append((-1 if old is None else len(old[0]) - 1, len(nums) - 1))
        return inner(nums, den, old)
    monkeypatch.setattr(classical, "_reciprocal", counted)
    climbed = [base(order) for order in range(13)]
    # each order step extends the base held, by one coefficient
    assert steps == [(order - 1, order) for order in range(13)]
    fresh = reciprocal_solve(BASES[name](12), 12)
    for order, row in enumerate(climbed):
        assert row_values(row) == fresh[:order + 1], order
    nums, den = climbed[-1]
    assert den > 0 and math.gcd(den, *nums) == 1
    # a lower order is read from the base held, in lowest terms
    low = base(5)
    assert steps[-1] == (11, 12) and row_values(low) == fresh[:6]
    assert math.gcd(low[1], *low[0]) == 1


@pytest.mark.parametrize("family", FAMILIES)
def test_climbing_reads_equal_one_build_at_the_top_order(cold_chains,
                                                         family):
    # the session's pattern: n = 0, 1, ..., 12 with every k <= n, so the
    # chain steps up one order at a time and each step also adds a product;
    # every value and, at the end, every product equals the series
    # products of one build at order 12
    read = FAMILIES[family]
    values = {(n, k): read(n, k) for n in range(13) for k in range(n + 1)}
    chain = family_chain(family)
    top = chain.base(12)
    fresh = [row_falling(top, k, chain.step) for k in range(13)]
    scale = (lambda n, k: Fraction(math.factorial(n), math.factorial(k))) \
        if family == "s2star" else (lambda n, k: math.factorial(n))
    for (n, k), value in values.items():
        assert value == row_values(fresh[k])[n] * scale(n, k), (n, k)
    order, _, products = chain.state
    assert order == 12 and list(products) == fresh


def test_equal_points_share_one_memo_entry(monkeypatch):
    poly = ParamPoly({(2, 1): Fraction(3, 7), (0, 3): -2, (1, 0): 5})
    expected, other = (ParamPoly(dict(poly.terms)).evaluate(*point)
                       for point in ((1, Fraction(1, 2)), (Fraction(-1, 2), 2)))
    evaluations = []
    inner = ParamPoly._evaluate

    def counted(self, *point):
        evaluations.append(point)
        return inner(self, *point)
    monkeypatch.setattr(ParamPoly, "_evaluate", counted)
    for lam, alpha in ((1, Fraction(1, 2)), (Fraction(1), Fraction(2, 4)),
                       (Fraction(3, 3), 0.5), (True, "2/4"), (1.0, 0.5),
                       ("3/3", "1/2")):
        assert poly.evaluate(lam, alpha) == expected
    # the point in lowest terms, whichever way it was written
    assert evaluations == [(1, 1, 1, 2)]
    assert list(poly._values) == [(1, 1, 1, 2)]
    # another point is another entry
    assert poly.evaluate(Fraction(-1, 2), 2) == other
    assert evaluations == [(1, 1, 1, 2), (-1, 2, 2, 1)]


# the power table each point shares: polynomials with negative numerators
# and terms at l^0 or a^0, evaluated at points with lam = 0, alpha = 0 or
# negative numerators
coefficients = st.builds(Fraction, st.integers(-40, 40), st.integers(1, 12))
degrees = st.tuples(st.integers(0, 4), st.integers(0, 4))
point_values = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9))


@settings(max_examples=60, deadline=None)
@given(st.dictionaries(degrees, coefficients.filter(bool), min_size=1,
                      max_size=6), degrees, coefficients.filter(bool),
       point_values, point_values)
@example({(1, 2): Fraction(-3, 4)}, (3, 1), Fraction(5), Fraction(0),
         Fraction(-2, 3))
@example({(2, 0): Fraction(7, 2), (0, 0): -1}, (2, 3), Fraction(-1, 5),
         Fraction(3, 7), Fraction(0))
def test_power_table_evaluation_equals_substitution(terms, shift, extra,
                                                   lam, alpha):
    # a polynomial starts the point's table, and a second one, of higher
    # degree in l and in a, adds to it; each value equals the substitution,
    # and the first entry is kept as it was
    low = ParamPoly(terms)
    top_l, top_a = terms_degrees(low.terms)
    high = low * ParamPoly({shift: 1}) + ParamPoly(
        {(top_l + shift[0] + 1, top_a + shift[1] + 1): extra})
    tops = [terms_degrees(p.terms) for p in (low, high)]
    point = (lam.numerator, lam.denominator,
             alpha.numerator, alpha.denominator)
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(algebra, "_power_rows", {})
        entries = []
        for poly, top in zip((low, high), tops):
            expected = poly.substitute(lam, alpha)
            assert ParamPoly(dict(poly.terms)).evaluate(lam, alpha) \
                == expected
            key = (*point, *top)
            entries.append(algebra._power_rows[key])
        assert list(algebra._power_rows) == [(*point, *top) for top in tops]
    for (top_i, top_j), (l_row, a_row, scale) in zip(tops, entries):
        p, q, r, s = point
        assert l_row == [p**i * q**(top_i - i) for i in range(top_i + 1)]
        assert a_row == [r**j * s**(top_j - j) for j in range(top_j + 1)]
        assert scale == q**top_i * s**top_j


def test_new_phi_series_row_computes_each_power_row_once(monkeypatch):
    # a row at a new point evaluates y1star(10, k) for k <= 10, of top
    # degrees (k, k - 1): the powers of each top degree are computed once,
    # four lists per (k, k - 1), and the row read again at the point
    # written another way, or a lower row at it, computes none
    monkeypatch.setattr(phi, "_phi_rows", {})
    monkeypatch.setattr(simsek, "_y1star_store", {})
    monkeypatch.setattr(algebra, "_power_rows", {})
    calls = []
    inner = algebra._powers

    def counted(base, top):
        calls.append((base, top))
        return inner(base, top)
    monkeypatch.setattr(algebra, "_powers", counted)
    point = (Fraction(-7, 11), Fraction(13, 17))
    row = phi_series(10, *point, 10)
    assert sorted(calls) == sorted(
        (base, top) for k in range(1, 11)
        for base, top in ((-7, k), (11, k), (13, k - 1), (17, k - 1)))
    assert list(row.coeffs) == [y1star(10, k).substitute(*point)
                                for k in range(11)]
    calls.clear()
    assert phi_series(10, Fraction(-14, 22), Fraction(26, 34), 10) == row
    phi_series(9, *point, 10)
    assert calls == []


def test_revisits_of_evaluate_and_phi_series_evaluate_nothing(monkeypatch):
    point = (Fraction(5, 4), Fraction(-2, 3))
    first = [y1star(n, 3).evaluate(*point) for n in range(6)]
    row = phi_series(4, *point, 6)
    evaluations = []
    inner = ParamPoly._evaluate

    def counted(self, *point):
        evaluations.append(self)
        return inner(self, *point)
    monkeypatch.setattr(ParamPoly, "_evaluate", counted)
    assert [y1star(n, 3).evaluate(*point) for n in range(6)] == first
    assert phi_series(4, *point, 6) == row
    assert phi_series(4, Fraction(10, 8), Fraction(-4, 6), 6) == row
    assert evaluations == []


def test_chain_reads_from_threads_stay_exact(cold_chains):
    # more threads than cores, switching often, each reading the Bernoulli
    # chain and one fresh S2* chain per round, half of them in their own
    # random order and half climbing n one order at a time, so that order
    # steps race longer products: a lost or doubled extension would put a
    # product at the wrong index or a coefficient at the wrong order
    keys = [(n, k) for n in range(7) for k in range(7)]
    alphas = [Fraction(1, r + 2) for r in range(8)]
    bernoulli = {(n, k): fresh_bernoulli(n, k) for n, k in keys}
    s2star = {(alpha, n, k): fresh_s2star(n, k, alpha)
              for alpha in alphas for n, k in keys}
    wrong = []
    threads = 6
    # each round starts in every thread at once, on a cold S2* chain
    barrier = threading.Barrier(threads)

    def reader(seed):
        for alpha in alphas:
            barrier.wait(timeout=60)
            for n, k in (keys if seed % 2 else shuffled(keys, seed)):
                if (bernoulli_number(n, k) != bernoulli[(n, k)]
                        or new_deg_stirling2(n, k, alpha)
                        != s2star[(alpha, n, k)]):
                    wrong.append((alpha, n, k))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        readers = [threading.Thread(target=reader, args=(seed,))
                   for seed in range(threads)]
        for thread in readers:
            thread.start()
        for thread in readers:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in readers)
    assert wrong == []


# ---------------------------------------------------------------------------
# chain keys and publication
# ---------------------------------------------------------------------------

def test_equal_alphas_and_points_share_one_chain(cold_chains):
    # a rational alpha is keyed by (p, q) and a point by (p, q, r, s) in
    # lowest terms, whichever way it is written
    expected = fresh_s2star(5, 3, Fraction(1, 2))
    for alpha in (1 / 2, Fraction(2, 4), "1/2", Fraction(1, 2)):
        assert new_deg_stirling2(5, 3, alpha) == expected
    assert list(degenerate._s2star_chains) == [(1, 2)]
    assert new_deg_stirling2(4, 2, 0) == new_deg_stirling2(4, 2, Fraction(0))
    assert list(degenerate._s2star_chains) == [(1, 2), (0, 1)]
    # a symbolic read makes no chain
    new_deg_stirling2(3, 2, A)
    assert list(degenerate._s2star_chains) == [(1, 2), (0, 1)]

    expected = apostol_euler_series(3, Fraction(3, 2), Fraction(-1, 4),
                                    5).coeffs[5] * math.factorial(5)
    for point in ((1.5, -0.25), (Fraction(6, 4), Fraction(-2, 8)),
                  ("3/2", "-1/4"), (Fraction(3, 2), Fraction(-1, 4))):
        assert apostol_euler(5, 3, *point) == expected
    assert list(degenerate._apostol_chains) == [(3, 2, -1, 4)]
    assert apostol_euler(2, 1, 2, 0) == apostol_euler(2, 1, Fraction(4, 2), 0)
    assert list(degenerate._apostol_chains) == [(3, 2, -1, 4), (2, 1, 0, 1)]

    # F_k at a point: the chain's values keep each series by (order, k)
    expected = TruncSeries("t", 5, [c / 6 for c in falling_product(
        exp_list(5, Fraction(3, 2), 1), 3, Fraction(-1, 4), Fraction(1),
        Fraction(0))])
    for point in ((1.5, -0.25), (Fraction(6, 4), Fraction(-2, 8)),
                  ("3/2", "-1/4"), (Fraction(3, 2), Fraction(-1, 4))):
        assert fk_series(3, 5, *point) == expected
    assert list(simsek._fk_chains) == [(3, 2, -1, 4)]
    assert simsek._fk_chains[(3, 2, -1, 4)].values == {(5, 3): expected}
    assert fk_series(2, 4, 2, 0) is fk_series(2, 4, Fraction(4, 2), "0/7")
    assert list(simsek._fk_chains) == [(3, 2, -1, 4), (2, 1, 0, 1)]


def plant_wrong_coefficient(lam, alpha):
    """Put 1 more into coefficient 5 of the product P_3 that the point's
    F_k chain holds at order 8."""
    fk_series(8, 8, lam, alpha)  # P_0..P_8 at order 8
    chain = simsek._fk_chains[(lam.numerator, lam.denominator,
                               alpha.numerator, alpha.denominator)]
    order, x, products = chain.state
    values = row_values(products[3])
    values[5] += 1
    chain.state = (order, x, (*products[:3], as_row(values), *products[4:]))


def test_a_wrong_point_f_k_coefficient_fails_phi_egf_at_every_point(
        cold_chains):
    # PHI-EGF's right side is read from the chain fk_series serves, so one
    # wrong coefficient there fails the check at every grid point, at the
    # coefficient of x^3 t^5, which is [t^5] F_3 = [t^5] P_3 / 3!
    grid = registry.default_grid()
    for lam, alpha in grid:
        plant_wrong_coefficient(lam, alpha)
    reports = registry.run_suite(["PHI-EGF"])
    assert len(reports) == len(grid) == 7
    for report, (lam, alpha) in zip(reports, grid):
        assert report.status == "fail", (lam, alpha)
        where, lhs, rhs = report.mismatch.rsplit(";", 2)
        assert where == "x^3;t^5"
        assert Fraction(rhs[4:]) - Fraction(lhs[4:]) == Fraction(1, 6)
        assert fk_series(3, 8, lam, alpha).coeffs[5] == Fraction(rhs[4:])


@pytest.mark.parametrize("lam", [-1, Fraction(-2, 2), -1.0, "-1"])
def test_apostol_euler_at_lambda_minus_one_raises_and_stores_nothing(
        cold_chains, lam):
    for _ in range(2):
        with pytest.raises(SeriesDomainError, match="lam != -1"):
            apostol_euler(2, 1, lam, Fraction(1, 3))
    assert degenerate._apostol_chains == {}


@pytest.mark.parametrize("step", [0, Fraction(2, 5)])
def test_chain_state_is_replaced_not_mutated(step):
    # a reader holding the state keeps a consistent chain however the chain
    # grows after it: a longer product and a higher order each publish a
    # new tuple, and neither touches a product already handed out
    def base(order):  # e^t - 1
        return as_row([0] + [Fraction(1, math.factorial(m))
                             for m in range(1, order + 1)])
    chain = _ProductChain(base, step)
    chain.product(3, 4)
    held = chain.state
    order, x, products = held
    rows = list(products)
    chain.product(6, 4)  # longer products at the same order
    longer = chain.state
    chain.product(4, 7)  # every product extended to a higher order
    extended = chain.state
    assert held == (order, x, products) and held[2] is products
    assert (len(products), list(products)) == (4, rows)
    assert longer is not held and extended is not longer
    for state, top in ((longer, 4), (extended, 7)):
        assert type(state) is tuple and type(state[2]) is tuple
        assert state[2] is not products
        assert (state[0], len(state[2])) == (top, 7)
    # the held products are still P_0..P_3 at order 4; the later states
    # keep them at order 4 and extend all seven to order 7
    for j in range(7):
        at_4 = row_falling(base(4), j, step)
        if j < 4:
            assert products[j] == at_4
            assert longer[2][j] is products[j]
        assert longer[2][j] == at_4
        assert extended[2][j] == row_falling(base(7), j, step)


# ---------------------------------------------------------------------------
# revisits: each public reader keeps the values it returned, inside the
# store or chain it reads
# ---------------------------------------------------------------------------

# n, k and the point of a read; fk_series reads F_k to order n, phi_series
# phi_n to order k
READERS = {
    "fk_series": lambda n, k, lam, alpha: fk_series(k, n),
    "bernoulli_number": lambda n, k, lam, alpha: bernoulli_number(n, k),
    "new_deg_stirling2": lambda n, k, lam, alpha: new_deg_stirling2(n, k,
                                                                    alpha),
    "apostol_euler": lambda n, k, lam, alpha: apostol_euler(n, k, lam, alpha),
    "phi_series": lambda n, k, lam, alpha: phi_series(n, lam, alpha, k),
    "fk_series at a point": lambda n, k, lam, alpha: fk_series(k, n, lam,
                                                               alpha),
}


def empty_memos(monkeypatch):
    """Empty every store and chain the readers of READERS keep values in
    or read from."""
    monkeypatch.setattr(classical, "_bernoulli_powers",
                        classical._ProductChain(classical._bernoulli_base))
    monkeypatch.setattr(degenerate, "_s2star_chains", {})
    monkeypatch.setattr(degenerate, "_apostol_chains", {})
    monkeypatch.setattr(simsek, "_fk_chains", {})
    empty_route_a(monkeypatch)


def count_work(monkeypatch) -> list:
    """Record from now on every product-chain extension, every integer row
    brought to lowest terms, every TruncSeries made (built or truncated)
    and every polynomial evaluated at a point that no memo held."""
    work = []

    def counting(name, inner):
        def counted(*args):
            work.append(name)
            return inner(*args)
        return counted
    monkeypatch.setattr(classical, "_extend_qq",
                        counting("_extend_qq", classical._extend_qq))
    for name in ("__init__", "truncate"):
        monkeypatch.setattr(TruncSeries, name, counting(
            "TruncSeries", getattr(TruncSeries, name)))
    for module in (classical, degenerate, simsek):
        monkeypatch.setattr(module, "_lowest",
                            counting("_lowest", module._lowest))
    monkeypatch.setattr(ParamPoly, "_evaluate", counting(
        "ParamPoly._evaluate", ParamPoly._evaluate))
    return work


# a point as the first read writes it, then written other ways: unreduced,
# as ints, as a string and as a float
SPELLINGS = {
    "5/4, -2/3": ((Fraction(5, 4), Fraction(-2, 3)),
                  (Fraction(10, 8), Fraction(-4, 6)), ("5/4", "-2/3")),
    "2, 0": ((Fraction(2), Fraction(0)), (2, 0), (Fraction(6, 3), 0.0)),
    "-3/7, 1/2": ((Fraction(-3, 7), Fraction(1, 2)),
                  (Fraction(-6, 14), 0.5)),
}


@pytest.mark.parametrize("spelling", SPELLINGS)
@pytest.mark.parametrize("reader", READERS)
def test_revisit_returns_the_first_object_and_does_no_work(monkeypatch,
                                                           reader, spelling):
    empty_memos(monkeypatch)
    read = READERS[reader]
    first_point, *other_points = SPELLINGS[spelling]
    work = count_work(monkeypatch)
    first = read(6, 4, *first_point)
    # the counters see the first read's work
    assert work
    work.clear()
    for point in (first_point, *other_points, first_point):
        assert read(6, 4, *point) is first, point
    assert work == []


def test_a_lower_order_of_f_k_is_kept_beside_the_one_built():
    # a read below the order F_k is held at is a truncation, kept under
    # its own order; the build is kept under k and under its order
    with pytest.MonkeyPatch.context() as monkeypatch:
        empty_memos(monkeypatch)
        built = fk_series(3, 7)
        low = fk_series(3, 4)
        assert low.order == 4 and list(low.coeffs) == list(built.coeffs[:5])
        assert simsek._fk_cache == {3: built, (3, 7): built, (3, 4): low}
        # a higher order builds F_k again; both reads already handed out
        # are kept as they were
        higher = fk_series(3, 9)
        assert simsek._fk_cache[3] is higher
        assert fk_series(3, 7) is built and fk_series(3, 4) is low
        assert list(higher.coeffs[:8]) == list(built.coeffs)


small_rationals = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9))
MEMO_READS = st.tuples(st.sampled_from(sorted(READERS)), st.integers(0, 8),
                       st.integers(0, 8), small_rationals, small_rationals)


@settings(max_examples=40, deadline=None)
@given(st.lists(MEMO_READS, min_size=1, max_size=6))
@example([("apostol_euler", 8, 8, Fraction(-9, 8), Fraction(7, 3)),
          ("phi_series", 8, 8, Fraction(0), Fraction(-1, 9))])
def test_memoised_read_equals_a_cold_read(reads):
    # each read twice on the module stores every test shares (the
    # second is the memo's answer), then once on empty stores
    for reader, n, k, lam, alpha in reads:
        read = READERS[reader]
        if reader == "apostol_euler" and lam == -1:
            continue
        warm = read(n, k, lam, alpha)
        assert read(n, k, lam, alpha) is warm
        with pytest.MonkeyPatch.context() as monkeypatch:
            empty_memos(monkeypatch)
            cold = read(n, k, lam, alpha)
        assert cold == warm and cold is not warm, (reader, n, k, lam, alpha)


@settings(max_examples=20, deadline=None)
@given(st.sampled_from((-1, Fraction(-2, 2), -1.0, "-1", "-3/3")),
       small_rationals, st.integers(0, 8), st.integers(0, 8))
def test_apostol_euler_at_lambda_minus_one_raises_on_every_read(lam, alpha,
                                                                n, k):
    held = dict(degenerate._apostol_chains)
    for _ in range(3):
        with pytest.raises(SeriesDomainError, match="lam != -1"):
            apostol_euler(n, k, lam, alpha)
    # no chain, and so no value, was stored for the point
    assert degenerate._apostol_chains == held
    assert not any(key[:2] == (-1, 1) for key in degenerate._apostol_chains)
