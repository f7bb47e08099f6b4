"""Independent oracles used to pin golden values.

Everything here is deliberately written from first principles (enumeration,
list convolution, triangular solves, or sympy's own series expansion, a
test-only dependency) without importing the package under test, so a value
computed here is evidence, not an echo.  The second routes at the end are
the exception: they are built on the package's ParamPoly and series types
and its Bernoulli numbers, multiply by the plain loops above, and reach a
family by a formula the package does not use for it.
"""

from fractions import Fraction
import math


def set_partitions(items):
    """All partitions of a list into non-empty blocks."""
    if not items:
        yield []
        return
    head, rest = items[0], items[1:]
    for partition in set_partitions(rest):
        for i in range(len(partition)):
            yield partition[:i] + [[head] + partition[i]] + partition[i + 1:]
        yield [[head]] + partition


def count_partitions(n: int, blocks: int | None = None) -> int:
    total = 0
    for partition in set_partitions(list(range(n))):
        if blocks is None or len(partition) == blocks:
            total += 1
    return total


def poly_mul(a, b):
    """Convolution of two coefficient lists."""
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] += Fraction(ca) * Fraction(cb)
    return out


def falling_factorial_coeffs(n: int):
    """Coefficients of x(x-1)...(x-n+1) by repeated convolution."""
    coeffs = [Fraction(1)]
    for i in range(n):
        coeffs = poly_mul(coeffs, [Fraction(-i), Fraction(1)])
    return coeffs


def reciprocal_solve(a, order: int):
    """Solve a*b = 1 for the coefficient list b by the triangular system
    b_0 = 1/a_0, b_m = -(1/a_0) * sum_{j=1..m} a_j b_{m-j}."""
    a = [Fraction(c) for c in a] + [Fraction(0)] * (order + 1 - len(a))
    inv0 = 1 / a[0]
    b = [inv0]
    for m in range(1, order + 1):
        b.append(-inv0 * sum(a[j] * b[m - j] for j in range(1, m + 1)))
    return b


def as_row(coeffs) -> tuple[tuple[int, ...], int]:
    """A coefficient list as an integer row (nums, den) in lowest terms:
    den the lcm of the reduced denominators, so that the gcd of den and
    all numerators is 1."""
    coeffs = [Fraction(c) for c in coeffs]
    den = math.lcm(*(c.denominator for c in coeffs))
    return tuple(c.numerator * (den // c.denominator) for c in coeffs), den


def row_values(row) -> list:
    """The coefficients nums[j] / den of an integer row (nums, den)."""
    nums, den = row
    return [Fraction(c, den) for c in nums]


def row_falling(row, k: int, step=0) -> tuple[tuple[int, ...], int]:
    """The row of prod_{j<k} (x - j*step) for the row of a series x, by
    falling_product on its coefficients."""
    return as_row(falling_product(row_values(row), k, Fraction(step),
                                  Fraction(1), Fraction(0)))


def _sympy_power_table(expr, t, bound: int) -> dict:
    """{(n, k): n! [t^n] expr^k} for n, k <= bound, from sympy's series of
    expr in t, raised to the power k and read to t^bound."""
    import sympy
    series = sympy.series(expr, t, 0, bound + 1).removeO()
    out = {}
    for k in range(bound + 1):
        power = sympy.expand(series**k)
        for n in range(bound + 1):
            value = power.coeff(t, n) * sympy.factorial(n)
            out[(n, k)] = Fraction(int(value.p), int(value.q))
    return out


def higher_bernoulli_sympy(bound: int) -> dict:
    """{(n, k): B_n^(k)} for n, k <= bound, read from the series of
    (t/(e^t - 1))^k."""
    import sympy
    t = sympy.symbols("t")
    return _sympy_power_table(t / (sympy.exp(t) - 1), t, bound)


def s2star_sympy(bound: int) -> dict:
    """{(n, k): S2*(n,k|a) as terms {(0, deg_a): c}} for n, k <= bound,
    read from the expansion of n!/k! prod_{i<k} (e^t - 1 - i a)."""
    import sympy
    t, a = sympy.symbols("t a")
    em1 = sympy.series(sympy.exp(t) - 1, t, 0, bound + 1).removeO()
    out = {}
    product = sympy.Integer(1)
    for k in range(bound + 1):
        for n in range(bound + 1):
            value = sympy.Poly(product.coeff(t, n) * sympy.factorial(n)
                               / sympy.factorial(k), a)
            out[(n, k)] = {(0, d): Fraction(int(c.p), int(c.q))
                           for (d,), c in value.terms() if c}
        product = sympy.expand(product * (em1 - k * a))
    return out


def apostol_euler_sympy(lam, alpha, bound: int) -> dict:
    """{(n, k): E_n^(k)(lam|alpha)} for n, k <= bound, read from the series
    of (2/(lam e_alpha(t) + 1))^k, with e_alpha(t) = (1 + alpha t)^(1/alpha)
    and e_0(t) = e^t."""
    import sympy
    t = sympy.symbols("t")
    lam = sympy.Rational(Fraction(lam).numerator, Fraction(lam).denominator)
    alpha = sympy.Rational(Fraction(alpha).numerator,
                           Fraction(alpha).denominator)
    inner = sympy.exp(t) if alpha == 0 else (1 + alpha * t) ** (1 / alpha)
    return _sympy_power_table(2 / (lam * inner + 1), t, bound)


def s2star_table_reference(ratio, bound: int):
    """table[j][n] = S2*(n, j | ratio) = n!/j! [t^n] prod_{i<j} (e^t-1-i*ratio)
    for n, j <= bound, by truncated list convolution."""
    ratio = Fraction(ratio)
    em1 = [Fraction(0)] + [Fraction(1, math.factorial(d))
                           for d in range(1, bound + 1)]
    product = [Fraction(1)] + [Fraction(0)] * bound
    table = []
    for j in range(bound + 1):
        table.append([product[n] * Fraction(math.factorial(n), math.factorial(j))
                      for n in range(bound + 1)])
        factor = [em1[0] - j * ratio] + em1[1:]
        product = poly_mul(product, factor)[: bound + 1]
    return table


def rel_s2star_terms(lam, alpha, reading: str, bound: int = 8) -> dict:
    """{(n, k): right side} of the S2* relation at (lam, alpha), lam != 0,
    for n, k <= bound, summed term by term in Fractions:
    y(n,k) = (1/k!) sum_j C(k,j) j! lam^j (lam+1)_{k-j,alpha} S2*(n,j|alpha/lam),
    with the readings "j" (as written), "k" (S2*(n,k) for every j), "dup"
    (lam^(2j)) and "zero0" (no j = 0 term)."""
    lam, alpha = Fraction(lam), Fraction(alpha)
    s2star = s2star_table_reference(alpha / lam, bound)
    falling = [Fraction(1)]  # (lam+1)_{m,alpha}
    for i in range(bound):
        falling.append(falling[-1] * (lam + 1 - alpha * i))
    terms = {}
    for k in range(bound + 1):
        weights = [Fraction(math.comb(k, j) * math.factorial(j),
                            math.factorial(k))
                   * lam ** (2 * j if reading == "dup" else j) * falling[k - j]
                   for j in range(k + 1)]
        if reading == "zero0":
            weights[0] = Fraction(0)
        for n in range(bound + 1):
            terms[(n, k)] = sum((w * s2star[k if reading == "k" else j][n]
                                 for j, w in enumerate(weights)), Fraction(0))
    return terms


def rel_s2star_reference(lam, alpha, y, reading: str, bound: int = 8):
    """(status, mismatch) of the S2* relation at (lam, alpha): the first
    (n, k), k outer, at which y(n, k), y*(n,k) at the point, differs from
    the reading's right side (rel_s2star_terms)."""
    terms = rel_s2star_terms(lam, alpha, reading, bound)
    for k in range(bound + 1):
        for n in range(bound + 1):
            lhs, rhs = y(n, k), terms[(n, k)]
            if lhs != rhs:
                status = "fail" if reading == "j" else "expected-discrepancy"
                return status, f"(n,k)=({n},{k});lhs={lhs};rhs={rhs}"
    return "pass", ""


def expl_c_printed_sympy(bound: int = 8) -> dict:
    """{(n, k): k! times the printed reading of route C as integer terms
    {(deg_l, deg_a): c}} for n, k <= bound: the polynomial
    sum_{m<=k} sum_{j<=m} C(k,m) a^(m-j) l^j j^n (1)_{k-m,j} s(m,j)
    (0^0 = 1), whose factor (1)_{k-m,j} = prod_{i<k-m} (1 - i j) steps by
    the summation index j, expanded by sympy with its own signed Stirling
    numbers."""
    import sympy
    from sympy.functions.combinatorial.numbers import stirling
    l, a = sympy.symbols("l a")
    out = {}
    for k in range(bound + 1):
        for n in range(bound + 1):
            expr = sympy.Integer(0)
            for m in range(k + 1):
                for j in range(m + 1):
                    power = 1 if n == 0 else j**n
                    step = sympy.prod([1 - i * j for i in range(k - m)])
                    expr += (sympy.binomial(k, m) * a**(m - j) * l**j * power
                             * step * stirling(m, j, kind=1, signed=True))
            poly = sympy.Poly(sympy.expand(expr), l, a)
            out[(n, k)] = {(i, d): int(c) for (i, d), c in poly.terms() if c}
    return out


# ---------------------------------------------------------------------------
# The phi identity checks in their truncated-series form: each side a list
# of Fraction coefficients in x, products by list convolution, the merged
# (status, mismatch) of each registry entry as the suite reports it.
# ---------------------------------------------------------------------------

_SEVERITY = {"fail": 3, "expected-discrepancy": 2, "pass": 1,
             "trivially-true": 0}


def _mul(a, b, order: int):
    """The product of two coefficient lists, truncated at x^order."""
    out = [Fraction(0)] * (order + 1)
    for i, ca in enumerate(a[: order + 1]):
        if ca:
            for j, cb in enumerate(b[: order + 1 - i]):
                if cb:
                    out[i + j] += ca * cb
    return out


def _lin(parts, order: int):
    """sum of c * series over the (c, series) parts, to x^order."""
    out = [Fraction(0)] * (order + 1)
    for c, series in parts:
        for m in range(order + 1):
            out[m] += c * series[m]
    return out


def _compare(lhs, rhs, extra: str, status: str = "fail"):
    for d, (a, b) in enumerate(zip(lhs, rhs)):
        if a != b:
            return status, f"{extra}x^{d};lhs={Fraction(a)};rhs={Fraction(b)}"
    return "pass", ""


def euler_weights(lam, shift, n: int):
    """E_j = j! [t^j] 2/(lam e^t + 1 + shift) for j <= n."""
    half = [(lam + 1 + shift) / 2] + [lam / (2 * math.factorial(j))
                                      for j in range(1, n + 1)]
    inverse = reciprocal_solve(half, n)
    return [inverse[j] * math.factorial(j) for j in range(n + 1)]


def _phi_egf(lam, alpha, order, y):
    """sum_n phi_n(x) t^n/n! against e_alpha^(lam e^t + 1)(x), whose x^k
    coefficient is prod_{i<k} (lam e^t + 1 - i alpha) / k! in t."""
    exp_t = [Fraction(1, math.factorial(e)) for e in range(order + 1)]
    product = [Fraction(1)] + [Fraction(0)] * order
    for k in range(order + 1):
        for e in range(order + 1):
            lhs = y(e, k) / math.factorial(e)
            rhs = product[e] / math.factorial(k)
            if lhs != rhs:
                return "fail", f"x^{k};t^{e};lhs={lhs};rhs={rhs}"
        factor = [lam + 1 - k * alpha] + [lam * c for c in exp_t[1:]]
        product = _mul(product, factor, order)
    return "pass", ""


def phi_reference(rid: str, lam, alpha, order: int, y, y1, ns, f_polys=()):
    """(status, mismatch) of phi identity rid at (lam, alpha) to x-order
    `order`, merged over n in ns (and over f in f_polys, f outer, for
    PHI-FT) as the suite merges them: the worst status, and the mismatch of
    the first sub-check that failed or found the expected discrepancy.
    y(n, k) gives y*(n,k) at the point and y1(n, k) the Simsek number
    y1(n,k) at (lam, 0)."""
    lam, alpha = Fraction(lam), Fraction(alpha)
    if rid == "PHI-EGF":
        return _phi_egf(lam, alpha, order, y)

    def phi(n, top=order):
        return [y(n, k) for k in range(top + 1)]

    def derivative(series):
        return [series[j + 1] * (j + 1) for j in range(len(series) - 1)]

    one_plus = [Fraction(1), alpha]  # 1 + alpha x
    # log(1 + alpha x) / alpha, whose limit at alpha = 0 is x
    log_a = [Fraction(0)] + [(-alpha) ** (m - 1) / m
                             for m in range(1, order + 1)]

    def sub(n, f=None):
        extra = f"n={n};"
        if rid == "PHI-LOG":
            if alpha == 0:
                return "trivially-true", ""
            rhs = [Fraction(0)] * (order + 1)
            power = [Fraction(1)] + [Fraction(0)] * order
            for k in range(order + 1):
                rhs = _lin([(1, rhs), (y1(n, k), power)], order)
                power = _mul(power, log_a, order)
            return _compare(phi(n), rhs, extra)
        if rid == "PHI-REC":
            acc = _lin([(math.comb(n, i), phi(i)) for i in range(n + 1)], order)
            return _compare(phi(n + 1), _mul([lam * c for c in log_a], acc,
                                             order), extra)
        if rid == "PHI-DER":
            low = order - 1
            lhs = _mul(one_plus, derivative(phi(n)), low)
            rhs = _lin([(lam * math.comb(n, i), phi(i, low))
                        for i in range(n + 1)] + [(1, phi(n, low))], low)
            return _compare(lhs, rhs, extra)
        if rid == "PHI-AE":
            low = order - 1
            euler = euler_weights(lam, 0, n)
            acc = _lin([(math.comb(n, m) * euler[n - m], derivative(phi(m)))
                        for m in range(n + 1)], low)
            return _compare(_mul(one_plus, acc, low),
                            [2 * c for c in phi(n, low)], extra)
        if rid in ("PHI-INT", "PHI-INT-CORR"):
            corrected = rid == "PHI-INT-CORR"
            euler = euler_weights(lam, alpha if corrected else 0, n)
            lhs = [Fraction(0)] + [c / (j + 1)
                                   for j, c in enumerate(phi(n, order - 1))]
            acc = _lin([(math.comb(n, i) * euler[n - i], phi(i))
                        for i in range(n + 1)], order)
            rhs = [c / 2 for c in _mul(one_plus, acc, order)]
            rhs[0] -= euler[n] / 2
            status = ("fail" if alpha == 0 or corrected
                      else "expected-discrepancy")
            return _compare(lhs, rhs, extra, status)
        if rid == "PHI-FT":
            # the stated triple sum, with w = x/(1 + alpha x)
            f = [Fraction(c) for c in f]
            w = _mul([Fraction(0), Fraction(1)],
                     reciprocal_solve(one_plus, order), order)
            w_powers = [[Fraction(1)] + [Fraction(0)] * order]
            while len(w_powers) < len(f):
                w_powers.append(_mul(w_powers[-1], w, order))
            lhs = [y(n, m) * sum(c * m**i for i, c in enumerate(f))
                   for m in range(order + 1)]
            rhs = [Fraction(0)] * (order + 1)
            for j in range(n + 1):
                for m, fm in enumerate(f):
                    for k in range(m + 1):
                        c = (math.comb(n, j) * count_partitions(m, k)
                             * math.factorial(k) * fm * y(j, k))
                        if c:
                            term = _mul(w_powers[k], phi(n - j), order)
                            rhs = _lin([(1, rhs), (c, term)], order)
            f_text = "f=[" + " ".join(str(c) for c in f) + "]"
            return _compare(lhs, rhs, f"{extra}{f_text};")
        raise KeyError(rid)

    subs = ([sub(n, f) for f in f_polys for n in ns] if rid == "PHI-FT"
            else [sub(n) for n in ns])
    status = max((s for s, _ in subs), key=_SEVERITY.__getitem__)
    mismatch = next((m for s, m in subs
                     if s in ("fail", "expected-discrepancy")), "")
    return status, mismatch


# Polynomials in (l, a) as plain Fraction dicts {(deg_l, deg_a): nonzero
# Fraction}: the references ParamPoly's operators are checked against.

def terms_add(p: dict, q: dict) -> dict:
    out = dict(p)
    for key, c in q.items():
        out[key] = out.get(key, 0) + c
    return {key: c for key, c in out.items() if c}


def terms_neg(p: dict) -> dict:
    return {key: -c for key, c in p.items()}


def terms_mul(p: dict, q: dict) -> dict:
    out = {}
    for (i1, j1), c1 in p.items():
        for (i2, j2), c2 in q.items():
            key = (i1 + i2, j1 + j2)
            out[key] = out.get(key, 0) + c1 * c2
    return {key: c for key, c in out.items() if c}


def terms_pow(p: dict, n: int) -> dict:
    out = {(0, 0): Fraction(1)}
    for _ in range(n):
        out = terms_mul(out, p)
    return out


def terms_substitute(p: dict, lam=None, alpha=None) -> dict:
    """p with lam for l and alpha for a, either left symbolic when None."""
    out = {}
    for (i, j), c in p.items():
        key = (0 if lam is not None else i, 0 if alpha is not None else j)
        value = c * (1 if lam is None else lam**i) * (
            1 if alpha is None else alpha**j)
        out[key] = out.get(key, 0) + value
    return {key: c for key, c in out.items() if c}


def terms_degrees(p: dict) -> tuple[int, int]:
    """(deg_l, deg_a), each 0 for the zero polynomial."""
    return (max((i for i, _ in p), default=0),
            max((j for _, j in p), default=0))


def ring_product(a: list, b: list, zero) -> list:
    """The truncated product of two coefficient lists of one length over a
    ring whose elements carry their own + and *, by the plain loop
    out[i+j] = out[i+j] + a[i]*b[j] over the nonzero coefficients."""
    n = len(a) - 1
    out = [zero] * (n + 1)
    right = [(j, c) for j, c in enumerate(b) if c != zero]
    for i, c in enumerate(a):
        if c == zero:
            continue
        for j, d in right:
            if i + j > n:
                break
            out[i + j] = out[i + j] + c * d
    return out


def falling_product(x: list, k: int, step, one, zero) -> list:
    """prod_{j<k} (x - j*step) for a coefficient list x (only its constant
    term shifts), truncated at the length of x, by ring_product over any
    ring whose elements carry their own + and *; at step 0 it is x^k."""
    out = [one] + [zero] * (len(x) - 1)
    for j in range(k):
        out = ring_product(out, [x[0] - step * j, *x[1:]], zero)
    return out


def fk_sympy(bound: int, order: int) -> dict:
    """{(k, n): [t^n] (l*e^t + 1)_{k,a}/k! as terms {(deg_l, deg_a):
    Fraction}} for k <= bound and n <= order, expanded by sympy from the
    product of the factors l*e^t + 1 - j*a with e^t its series to t^order."""
    import sympy
    l, a, t = sympy.symbols("l a t")
    exp_t = sympy.series(sympy.exp(t), t, 0, order + 1).removeO()
    out = {}
    product = sympy.Integer(1)
    for k in range(bound + 1):
        for n in range(order + 1):
            coeff = sympy.expand(product.coeff(t, n) / sympy.factorial(k))
            out[(k, n)] = {} if coeff == 0 else {
                key: Fraction(int(c.p), int(c.q))
                for key, c in sympy.Poly(coeff, l, a).terms()}
        product = sympy.expand(product * (l * exp_t + 1 - k * a))
        # drop the powers of t above the order before the next factor
        product = sum((product.coeff(t, n) * t**n for n in range(order + 1)),
                      sympy.Integer(0))
    return out


# ---------------------------------------------------------------------------
# Second routes on the package's types.
# ---------------------------------------------------------------------------

def exp_series(order: int):
    """e^t from its coefficients 1/m!."""
    from degsimsek.algebra import TruncSeries
    return TruncSeries("t", order, [Fraction(1, math.factorial(m))
                                    for m in range(order + 1)])


def add_constant(series, c):
    """series + c for a rational series and a rational c: the constant
    term shifted."""
    from degsimsek.algebra import TruncSeries
    return TruncSeries(series.var, series.order,
                       [series.coeffs[0] + c, *series.coeffs[1:]])


def log1p_series(order: int, c=1, var: str = "t"):
    """log(1 + c*t)/c from its coefficients (-c)^(m-1)/m."""
    from degsimsek.algebra import TruncSeries
    return TruncSeries(var, order, [0] + [Fraction(-c) ** (m - 1) / m
                                          for m in range(1, order + 1)])


def series_mul(a, b):
    """The truncated product of two rational series of one variable and
    order, by ring_product on their coefficients."""
    from degsimsek.algebra import TruncSeries
    assert (a.var, a.order) == (b.var, b.order)
    return TruncSeries(a.var, a.order, ring_product(
        list(a.coeffs), list(b.coeffs), Fraction(0)))


def series_falling(x, k: int, step=0):
    """prod_{j<k} (x - j*step), x^k at step 0, for a rational series x, by
    falling_product on its coefficients."""
    from degsimsek.algebra import TruncSeries
    return TruncSeries(x.var, x.order, falling_product(
        list(x.coeffs), k, step, Fraction(1), Fraction(0)))


def falling(x, n: int, step=0):
    """x(x - step)(x - 2*step)...(x - (n-1)*step), x^n at step 0, for a
    rational or a ParamPoly x: falling_product of the list [x]."""
    return falling_product([x], n, step, x * 0 + 1, x * 0)[0]


def horner(coeffs, x):
    """sum_j coeffs[j] x^j for a rational series x, by Horner over
    ring_product, as a series of x's variable and order."""
    from degsimsek.algebra import TruncSeries
    xs = list(x.coeffs)
    result = [Fraction(0)] * (x.order + 1)
    for c in reversed(coeffs):
        result = ring_product(result, xs, Fraction(0))
        result[0] += c
    return TruncSeries(x.var, x.order, result)


def compose(outer, inner):
    """outer(inner) for series with inner(0) = 0, by horner."""
    assert inner.coeffs[0] == 0
    return horner(outer.coeffs, inner)


def deg_exp_series(x, alpha, order: int):
    """e_alpha^x(t) = sum_m (x)_{m,alpha} t^m/m! at a rational x, with
    (x)_{m,alpha} from falling."""
    from degsimsek.algebra import TruncSeries
    return TruncSeries("t", order, [
        Fraction(falling(Fraction(x), m, alpha), math.factorial(m))
        for m in range(order + 1)])


def bernoulli_poly_coeffs(k: int, n: int) -> list:
    """c_0..c_k of B_k^(n)(x) = sum_j C(k,j) B_{k-j}^(n) x^j, from the
    package's bernoulli_number."""
    from degsimsek.classical import bernoulli_number
    return [math.comb(k, j) * bernoulli_number(k - j, n)
            for j in range(k + 1)]


def bernoulli_poly(k: int, n: int, x):
    """B_k^(n)(x) at a rational, ParamPoly or series x, by Horner."""
    from degsimsek.algebra import TruncSeries
    coeffs = bernoulli_poly_coeffs(k, n)
    if isinstance(x, TruncSeries):
        return horner(coeffs, x)
    result = x * 0 + coeffs[k]
    for c in reversed(coeffs[:k]):
        result = result * x + c
    return result


def simsek_y1_via_gf(n: int, k: int):
    """y1(n,k) = n! [t^n] (l*e^t+1)^k / k!, the k-th power of the
    coefficient list of l*e^t + 1 by ring_product."""
    from degsimsek.algebra import ParamPoly
    lam_exp = [ParamPoly({(1, 0): Fraction(1, math.factorial(m))})
               for m in range(n + 1)]
    power = falling_product([lam_exp[0] + 1, *lam_exp[1:]], k, 0,
                            ParamPoly({(0, 0): 1}), ParamPoly())
    return power[n] * Fraction(math.factorial(n), math.factorial(k))


def deg_simsek_y1_alt(n: int, k: int):
    """The log-compose family deg_simsek_y1(n,k) as
    (1/k!) sum_j C(k,j) l^j (j)_{n,a}, the a^n (j/a)_n product read as the
    polynomial prod_{i<n} (j - i*a)."""
    from degsimsek.algebra import ParamPoly
    if n < 0 or k < 0:
        return ParamPoly()
    inv = Fraction(1, math.factorial(k))
    out = ParamPoly()
    for j in range(k + 1):
        prod = falling(ParamPoly({(0, 0): j}), n, ParamPoly.alpha())
        out = out + prod * ParamPoly({(j, 0): inv * math.comb(k, j)})
    return out


def apostol_euler_series(k: int, lam, alpha, order: int):
    """The series (2/(lam e_alpha(t) + 1))^k, lam != -1, whose coefficient n
    times n! is E_n^(k)(lam|alpha): e_alpha(t) with coefficients
    (1)_{m,alpha}/m! (deg_exp_series above), inverted by reciprocal_solve
    and raised to the power k by series_falling, not by the product chain
    apostol_euler reads."""
    from degsimsek.algebra import TruncSeries
    e = deg_exp_series(1, Fraction(alpha), order).coeffs
    half = [(Fraction(lam) * c + (m == 0)) / 2 for m, c in enumerate(e)]
    return series_falling(TruncSeries("t", order,
                                      reciprocal_solve(half, order)), k)


def fk_series_via_bernoulli(k: int, order: int, lam, alpha):
    """F_k at a rational point with alpha != 0 as
    (a^k/k!) * B_k^(k+1)((l*e^t+1)/a + 1), the order-(k+1) Bernoulli
    polynomial evaluated at a series argument."""
    from degsimsek.algebra import TruncSeries
    lam = Fraction(lam)
    alpha = Fraction(alpha)
    if alpha == 0:
        raise ValueError("the Bernoulli representation needs alpha != 0")
    x = TruncSeries("t", order, [(lam + 1) / alpha + 1] + [
        lam / alpha / math.factorial(m) for m in range(1, order + 1)])
    scale = Fraction(alpha**k, math.factorial(k))
    return TruncSeries("t", order, [c * scale for c in
                                    bernoulli_poly(k, k + 1, x).coeffs])


def route_c_printed(n: int, k: int):
    """The step-j reading (1)_{k-l,j} of route C as printed, whose integer
    terms the verifier compares, divided by k!."""
    from degsimsek.algebra import _over
    from degsimsek.simsek import _route_c_printed
    return _over(_route_c_printed(n, k), math.factorial(k))
