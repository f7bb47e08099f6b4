"""Exact arithmetic substrate: rationals, sparse (l, a) polynomials,
truncated formal power series, the type a series is returned in, and
integer rows, the form in which the number families sum series: a row's
reciprocal is here, its products are in the chains of `classical`.

All values are immutable after construction apart from the memo of
values a ParamPoly keeps for `evaluate`, and every operation is a pure
function, so everything here is safe to share across threads.  Series and
rows keep coefficients only up to an explicit truncation order; no
operation ever consults a coefficient beyond it.

A ParamPoly holds integer numerators over one positive denominator in
lowest terms, which arithmetic, ==, `evaluate` and `render` read; its
Fraction `terms`, which `substitute` reads, are built on each read.  The
fraction-free routes build their values from integer terms with `_over`.
The powers `evaluate` multiplies by are kept per point and top degrees, in
one table that every polynomial evaluated there shares.
"""

from __future__ import annotations

from fractions import Fraction
import math
import operator
import re


class SeriesStructureError(ValueError):
    """A series was asked for at an order above its own."""


class SeriesDomainError(ValueError):
    """A value was asked for outside its domain (e.g. the reciprocal of a
    series with zero constant term)."""


# The largest decimal exponent parse_rational reads, in absolute value:
# Fraction builds 10^e in full, so "1e999999999" would run until memory
# runs out, while 10^20000 takes about a millisecond.
MAX_DECIMAL_EXPONENT = 20000
_EXPONENT = re.compile(r"[eE][-+]?([\d_]+)\s*\Z")


def parse_rational(text: str) -> Fraction:
    """Parse the canonical 'p/q' (or plain 'p') rendering into a Fraction.
    Decimals such as '0.25' or '5e-3' are read too, with an exponent of at
    most MAX_DECIMAL_EXPONENT in absolute value."""
    exponent = _EXPONENT.search(text)
    if exponent:
        digits = exponent.group(1).replace("_", "").lstrip("0")
        if (len(digits) > len(str(MAX_DECIMAL_EXPONENT))
                or int(digits or "0") > MAX_DECIMAL_EXPONENT):
            raise ValueError(f"rational {text!r} has a decimal exponent "
                             f"above the cap of {MAX_DECIMAL_EXPONENT}")
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"malformed rational {text!r}") from exc


# ---------------------------------------------------------------------------
# Sparse polynomials in the two deformation parameters, written l and a.
# ---------------------------------------------------------------------------

class ParamPoly:
    """Polynomial in the parameters l and a with exact rational coefficients.

    A value is held in one integer form: `_nums`, a dict mapping
    (deg_l, deg_a) to a nonzero int, over one positive denominator `_den`,
    in lowest terms (the gcd of _den and all numerators is 1), so equal
    polynomials have equal forms.  `terms`, the same value as a dict
    mapping (deg_l, deg_a) to a nonzero Fraction, is built fresh on each
    read, so mutating it leaves the polynomial as it was; arithmetic, ==,
    `evaluate` and `render` read the integer form, `substitute` the terms.
    A value is built from terms or as `lam()` or `alpha()`; it adds,
    subtracts and multiplies with a ParamPoly, an int or a Fraction, which
    symbolic S2*'s Horner loop runs, and has no power.
    The canonical text form lists terms with deg_l descending and, within
    equal deg_l, deg_a ascending: "1*l^2 + 1*l + -1/2*l*a".

    A value is immutable after construction apart from its memo of point
    values, which `evaluate` fills.
    """

    __slots__ = ("_nums", "_den", "_values")

    def __init__(self, terms: dict | None = None):
        clean: dict[tuple[int, int], Fraction] = {}
        for key, c in (terms or {}).items():
            key, c = _degrees(key), Fraction(c)
            if c != 0:
                clean[key] = c
        # the lcm of reduced denominators leaves no common factor
        den = self._den = math.lcm(*(c.denominator for c in clean.values()))
        self._nums = {key: c.numerator * (den // c.denominator)
                      for key, c in clean.items()}

    @property
    def terms(self) -> dict:
        """The value as {(deg_l, deg_a): nonzero Fraction}, built on each
        read."""
        den = self._den
        return {key: Fraction(c, den) for key, c in self._nums.items()}

    # -- constructors -------------------------------------------------------

    @classmethod
    def lam(cls) -> "ParamPoly":
        return cls({(1, 0): Fraction(1)})

    @classmethod
    def alpha(cls) -> "ParamPoly":
        return cls({(0, 1): Fraction(1)})

    # -- arithmetic -----------------------------------------------------------

    @staticmethod
    def _coerce(other) -> "ParamPoly | None":
        if isinstance(other, ParamPoly):
            return other
        if isinstance(other, (int, Fraction)):
            return _over({(0, 0): other.numerator}, other.denominator)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        # over the lcm of the two denominators
        den = math.lcm(self._den, o._den)
        out = {key: c * (den // self._den) for key, c in self._nums.items()}
        scale = den // o._den
        for key, c in o._nums.items():
            out[key] = out.get(key, 0) + c * scale
        return _over(out, den)

    __radd__ = __add__

    def __neg__(self):
        return _over({key: -c for key, c in self._nums.items()}, self._den)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        out: dict[tuple[int, int], int] = {}
        right = o._nums.items()
        for (i1, j1), c1 in self._nums.items():
            for (i2, j2), c2 in right:
                key = (i1 + i2, j1 + j2)
                out[key] = out.get(key, 0) + c1 * c2
        return _over(out, self._den * o._den)

    __rmul__ = __mul__

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._den == o._den and self._nums == o._nums

    __hash__ = None

    # -- evaluation and substitution ----------------------------------------

    def evaluate(self, lam0, alpha0) -> Fraction:
        """Exact substitution (l, a) -> (lam0, alpha0); it respects + and *.

        With lam0 = p/q and alpha0 = r/s the integer form is homogenised
        over _den * q^I * s^J (I and J the top degrees) and summed in
        integers, each term c l^i a^j as c p^i q^(I-i) r^j s^(J-j) from the
        rows that every polynomial of top degrees (I, J) at the point
        shares (`_point_rows`); one Fraction is built at the end.  It is
        kept in a memo on the polynomial keyed by the point in lowest
        terms, (p, q, r, s), so equal points share one entry (hashing four
        ints is much cheaper than hashing two Fractions)."""
        try:  # a Fraction's slots, read without a property call each
            key = (lam0._numerator, lam0._denominator,
                   alpha0._numerator, alpha0._denominator)
        except AttributeError:  # an int, a float or a string: read exactly
            return self.evaluate(Fraction(lam0), Fraction(alpha0))
        try:
            values = self._values
        except AttributeError:
            values = self._values = {}
        value = values.get(key)
        if value is None:
            value = values[key] = self._evaluate(*key)
        return value

    def _evaluate(self, p: int, q: int, r: int, s: int) -> Fraction:
        nums, den = self._nums, self._den
        if not nums:
            return Fraction(0)
        l_row, a_row, scale = _point_rows(p, q, r, s, max(nums)[0],
                                          max(j for _, j in nums))
        total = 0
        for (i, j), c in nums.items():
            total += c * l_row[i] * a_row[j]
        return Fraction(total, den * scale)

    def substitute(self, lam=None, alpha=None) -> "ParamPoly":
        """Substitute rationals for either or both parameters, keeping the
        other symbolic."""
        lam = None if lam is None else Fraction(lam)
        alpha = None if alpha is None else Fraction(alpha)
        out: dict[tuple[int, int], Fraction] = {}
        for (i, j), c in self.terms.items():
            if lam is not None:
                c *= lam**i
                i = 0
            if alpha is not None:
                c *= alpha**j
                j = 0
            out[(i, j)] = out.get((i, j), 0) + c
        return ParamPoly(out)

    # -- canonical text ------------------------------------------------------

    def render(self) -> str:
        """The canonical text: each coefficient c/_den is reduced by one gcd
        and written as str(Fraction) writes it, "p" or "p/q" (with the same
        ValueError for an int above the interpreter's digit limit)."""
        nums, den = self._nums, self._den
        if not nums:
            return "0"
        parts = []
        for (i, j) in sorted(nums, key=lambda key: (-key[0], key[1])):
            c = nums[(i, j)]
            g = math.gcd(c, den)
            factors = [f"{c // g}" if g == den else f"{c // g}/{den // g}"]
            if i:
                factors.append("l" if i == 1 else f"l^{i}")
            if j:
                factors.append("a" if j == 1 else f"a^{j}")
            parts.append("*".join(factors))
        return " + ".join(parts)

    def __repr__(self):
        return f"ParamPoly({self.render()})"


def _degrees(key) -> tuple[int, int]:
    """A term key (deg_l, deg_a) as two ints; ValueError unless both are
    non-negative integers."""
    try:
        i, j = map(operator.index, key)
    except (TypeError, ValueError):
        i = j = -1
    if i < 0 or j < 0:
        raise ValueError(
            f"term degrees must be non-negative integers, not {key!r}")
    return i, j


def _powers(base: int, top: int) -> list[int]:
    """base^0 .. base^top (with 0^0 = 1)."""
    out = [1]
    for _ in range(top):
        out.append(out[-1] * base)
    return out


# (p, q, r, s, I, J) -> the rows `_point_rows` gives: the point's power
# table, in lowest terms like the memo of `evaluate`, one entry per top
# degrees evaluated there; values never change
_power_rows: dict[tuple[int, int, int, int, int, int], tuple] = {}


def _point_rows(p: int, q: int, r: int, s: int, top_i: int,
                top_j: int) -> tuple[list[int], list[int], int]:
    """(L, A, q^I s^J) with L[i] = p^i q^(I-i) and A[j] = r^j s^(J-j) for
    the top degrees I = top_i, J = top_j: a polynomial sum_ij c_ij l^i a^j
    at lam = p/q, alpha = r/s is sum_ij c_ij L[i] A[j] / (q^I s^J).  Made
    once per (point, I, J) and kept, so the polynomials of a phi_series
    row or a table share them."""
    key = (p, q, r, s, top_i, top_j)
    rows = _power_rows.get(key)
    if rows is None:
        p_pow, q_pow = _powers(p, top_i), _powers(q, top_i)
        r_pow, s_pow = _powers(r, top_j), _powers(s, top_j)
        rows = _power_rows[key] = (
            [a * b for a, b in zip(p_pow, reversed(q_pow))],
            [a * b for a, b in zip(r_pow, reversed(s_pow))],
            q_pow[top_i] * s_pow[top_j])
    return rows


# Integer terms {(deg_l, deg_a): c} of Z[l,a].  The fraction-free routes and
# identity checks sum k!-scaled values in these and build a ParamPoly once,
# when a value is returned or a mismatch is written out.

def _over(terms: dict, den: int) -> ParamPoly:
    """The polynomial with integer terms `terms`, divided by `den`
    (nonzero), brought to lowest terms with a positive denominator."""
    nums = {key: c for key, c in terms.items() if c}
    g = math.gcd(den, *nums.values())
    if den < 0:
        g = -g
    if g != 1:
        nums = {key: c // g for key, c in nums.items()}
        den //= g
    p = ParamPoly.__new__(ParamPoly)
    p._den = den
    p._nums = nums
    return p


def _combine(parts) -> dict:
    """sum of c * l^dl * a^da * terms over the (terms, c, dl, da) parts, as
    integer terms without zeros."""
    out: dict[tuple[int, int], int] = {}
    for terms, c, dl, da in parts:
        if not c:
            continue
        for (i, j), v in terms.items():
            key = (i + dl, j + da)
            out[key] = out.get(key, 0) + c * v
    return {key: v for key, v in out.items() if v}


def _rational(value) -> Fraction:
    """An int or a Fraction as a Fraction; TypeError for anything else."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"cannot read {type(value).__name__} as a rational")


def render_scalar(value) -> str:
    """Canonical text of a table/report cell: Rational or ParamPoly."""
    if isinstance(value, ParamPoly):
        return value.render()
    if isinstance(value, (int, Fraction)):
        return str(Fraction(value))
    raise TypeError(f"no canonical rendering for {type(value).__name__}")


# ---------------------------------------------------------------------------
# Truncated formal power series, the output type, and integer rows, the
# form the number families sum in.
# ---------------------------------------------------------------------------

class TruncSeries:
    """Formal power series in one named variable, truncated at a fixed
    order: the type in which the package returns a series.

    `coeffs` is a tuple of order+1 Fractions, or of ParamPoly values for
    route A's symbolic F_k, which `simsek.fk_series` holds with `_held`.
    A series truncates to a lower order, compares with == (series in
    different variables or of different orders are unequal) and renders;
    it has no arithmetic, so every operator raises TypeError.  The number
    families sum on integer rows instead (`_lowest`, `_reciprocal` and the
    product chains of `classical`), and route A on its own kernel
    (`simsek._route_a_product`); a series is built once, from the values.
    """

    __slots__ = ("var", "order", "coeffs")

    def __init__(self, var: str, order: int, coeffs):
        if order < 0:
            raise ValueError("truncation order must be non-negative")
        coeffs = [_rational(c) for c in coeffs][: order + 1]
        coeffs += [Fraction(0)] * (order + 1 - len(coeffs))
        self.var = var
        self.order = order
        self.coeffs = tuple(coeffs)

    @classmethod
    def _held(cls, var: str, order: int, coeffs: tuple) -> "TruncSeries":
        """The series with the order+1 coefficients `coeffs`, a tuple held
        as given without coercing them."""
        s = cls.__new__(cls)
        s.var = var
        s.order = order
        s.coeffs = coeffs
        return s

    def truncate(self, order: int) -> "TruncSeries":
        """The first order+1 coefficients, sliced without coercing them
        again; ValueError for a negative order, SeriesStructureError for
        one above the series' own."""
        if order < 0:
            raise ValueError("truncation order must be non-negative")
        if order > self.order:
            raise SeriesStructureError(
                f"cannot extend order {self.order} series to {order}")
        return TruncSeries._held(self.var, order, self.coeffs[: order + 1])

    def __eq__(self, other):
        if isinstance(other, TruncSeries):
            return (self.var == other.var and self.order == other.order
                    and self.coeffs == other.coeffs)
        try:
            scalar = _rational(other)
        except TypeError:
            return NotImplemented
        return self.coeffs[0] == scalar and not any(self.coeffs[1:])

    __hash__ = None

    # -- canonical text ------------------------------------------------------

    def render(self) -> str:
        return "[" + ", ".join(render_scalar(c) for c in self.coeffs) + "]"

    def __repr__(self):
        return f"TruncSeries({self.var!r}, N={self.order}, {self.render()})"


# A row is a truncated series with rational coefficients held as a tuple of
# integer numerators over one positive denominator, (nums, den), in lowest
# terms (the gcd of den and all numerators is 1), so equal series have equal
# rows; its order is len(nums) - 1.

def _lowest(nums, den: int) -> tuple[tuple[int, ...], int]:
    """The row nums/den (den != 0) in lowest terms with a positive
    denominator."""
    g = math.gcd(den, *nums)
    if den < 0:
        g = -g
    if g != 1:
        return tuple(c // g for c in nums), den // g
    return tuple(nums), den


def _reciprocal(nums, den: int, old=None) -> tuple[tuple[int, ...], int]:
    """The row of b with a b = 1 to the order of a = nums/den, which needs
    a_0 != 0, keeping the coefficients of `old` (the row of 1/a at a lower
    order, or None).  With 1/a = bs/D so far,
    b_m = -(1/a_0) sum_{j=1..m} a_j b_{m-j} is -sum_j nums[j] bs[m-j] over
    nums[0] D: each new coefficient multiplies the denominator by nums[0]."""
    n0 = nums[0]
    if n0 == 0:
        raise SeriesDomainError("reciprocal of a series with zero constant term")
    bs, d = ([den], n0) if old is None else (list(old[0]), old[1])
    for m in range(len(bs), len(nums)):
        total = sum(nums[j] * bs[m - j] for j in range(1, m + 1) if nums[j])
        bs = [c * n0 for c in bs]
        bs.append(-total)
        d *= n0
    return _lowest(bs, d)


def _point_key(*values) -> tuple[int, ...]:
    """The rationals `values` in lowest terms as one tuple of ints,
    (p, q, ...) for p/q, ...: the key of the chains kept per alpha or per
    point, so that equal values written any way (an int, a Fraction, or a
    float or a string, read exactly) share one chain."""
    try:
        return tuple(part for value in values
                     for part in (value.numerator, value.denominator))
    except AttributeError:  # a float or a string
        return _point_key(*map(Fraction, values))
