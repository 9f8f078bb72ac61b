"""Exact-arithmetic kernel: rational scalars, rational-coefficient
polynomials, and truncated bivariate power series.

Every coefficient in this module is a `fractions.Fraction`, so results are
exact by construction (lowest terms, positive denominator); nothing here ever
touches floating point.  The two container types are deliberately small:

* :class:`RationalPolynomial` — dense univariate polynomial with trimmed
  coefficients, used for Bernoulli-type and Stirling-type polynomials.
* :class:`BivariateSeries` — power series in two variables truncated at a
  total degree, used for the two-variable generating function whose
  coefficients are the Gregory-type constants.

The series division helpers are the only non-obvious algorithms: division by
a unit (nonzero constant term) runs a graded coefficient recursion, and
division by the antisymmetric factor (x - y) runs a diagonal recursion that
also certifies divisibility, refusing loudly when any diagonal sum fails to
vanish.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Iterable, Iterator, Tuple, Union

Rational = Fraction
RationalLike = Union[Fraction, int]

#: Degree reported for the zero polynomial.
NEG_INFINITY = float("-inf")


def rat(value: RationalLike) -> Fraction:
    """Coerce an integer (or Fraction) to an exact Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected an exact rational, got {type(value).__name__}")


def falling_factorial(x: RationalLike, n: int) -> Fraction:
    """Falling factorial (x)_n = x (x-1) ... (x-n+1), with (x)_0 = 1."""
    if n < 0:
        raise ValueError(f"falling factorial needs n >= 0, got n={n}")
    out = Fraction(1)
    for t in range(n):
        out *= x - t
    return out


class RationalPolynomial:
    """Dense univariate polynomial over the rationals.

    Coefficients are stored lowest degree first with trailing zeros trimmed,
    so equal polynomials always compare and hash equal.  Instances are
    immutable; arithmetic returns new objects.  The degree of the zero
    polynomial is minus infinity (:data:`NEG_INFINITY`).
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Iterable[RationalLike] = ()):
        cs = [rat(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self._coeffs: Tuple[Fraction, ...] = tuple(cs)

    # -- constructors -----------------------------------------------------

    @classmethod
    def zero(cls) -> "RationalPolynomial":
        return cls()

    @classmethod
    def one(cls) -> "RationalPolynomial":
        return cls((1,))

    @classmethod
    def variable(cls) -> "RationalPolynomial":
        """The monic degree-1 monomial."""
        return cls((0, 1))

    @classmethod
    def constant(cls, c: RationalLike) -> "RationalPolynomial":
        return cls((c,))

    @classmethod
    def monomial(cls, degree: int, coeff: RationalLike = 1) -> "RationalPolynomial":
        if degree < 0:
            raise ValueError(f"monomial degree must be >= 0, got {degree}")
        return cls((0,) * degree + (coeff,))

    # -- inspection ---------------------------------------------------------

    @property
    def coeffs(self) -> Tuple[Fraction, ...]:
        """Coefficients, lowest degree first, trailing zeros trimmed."""
        return self._coeffs

    @property
    def degree(self):
        """Degree of the polynomial; minus infinity for the zero polynomial."""
        return len(self._coeffs) - 1 if self._coeffs else NEG_INFINITY

    def coefficient(self, k: int) -> Fraction:
        """Coefficient of the degree-k monomial (zero beyond the degree)."""
        if k < 0:
            raise ValueError(f"coefficient index must be >= 0, got {k}")
        return self._coeffs[k] if k < len(self._coeffs) else Fraction(0)

    def is_zero(self) -> bool:
        return not self._coeffs

    # -- arithmetic -----------------------------------------------------------

    def __add__(self, other):
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self._coeffs, other._coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for k, c in enumerate(b):
            out[k] += c
        return RationalPolynomial(out)

    __radd__ = __add__

    def __neg__(self):
        return RationalPolynomial(tuple(-c for c in self._coeffs))

    def __sub__(self, other):
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return RationalPolynomial(tuple(c * other for c in self._coeffs))
        if not isinstance(other, RationalPolynomial):
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return RationalPolynomial()
        out = [Fraction(0)] * (len(self._coeffs) + len(other._coeffs) - 1)
        for i, a in enumerate(self._coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other._coeffs):
                out[i + j] += a * b
        return RationalPolynomial(out)

    __rmul__ = __mul__

    def evaluate(self, x: RationalLike) -> Fraction:
        """Value at a rational point, by Horner's rule."""
        acc = Fraction(0)
        for c in reversed(self._coeffs):
            acc = acc * x + c
        return acc

    __call__ = evaluate

    def compose(self, inner: "RationalPolynomial") -> "RationalPolynomial":
        """Substitute another polynomial for the variable."""
        acc = RationalPolynomial()
        for c in reversed(self._coeffs):
            acc = acc * inner + RationalPolynomial.constant(c)
        return acc

    # -- protocol bits ----------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = RationalPolynomial((other,))
        if not isinstance(other, RationalPolynomial):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self):
        return hash(self._coeffs)

    def __bool__(self):
        return bool(self._coeffs)

    def __repr__(self):
        return f"RationalPolynomial({list(self._coeffs)!r})"

    def to_string(self, var: str = "x") -> str:
        """Human-readable rendering, highest degree first."""
        if not self._coeffs:
            return "0"
        parts = []
        for k in range(len(self._coeffs) - 1, -1, -1):
            c = self._coeffs[k]
            if c == 0:
                continue
            if k == 0:
                body = str(abs(c))
            else:
                mag = abs(c)
                head = "" if mag == 1 else f"{mag}*"
                body = f"{head}{var}" if k == 1 else f"{head}{var}^{k}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)

    def __str__(self):
        return self.to_string()


def _as_poly(value):
    if isinstance(value, RationalPolynomial):
        return value
    if isinstance(value, (int, Fraction)):
        return RationalPolynomial((value,))
    return NotImplemented


# ---------------------------------------------------------------------------
# Truncated bivariate power series
# ---------------------------------------------------------------------------

_Key = Tuple[int, int]


class BivariateSeries:
    """Power series in two variables, truncated at a total degree.

    A series of order N knows exactly the coefficients of the monomials
    x^i y^j with i + j <= N.  Coefficients beyond the order are *unknown*,
    not zero, which is why binary operations insist on equal orders instead
    of silently mixing precisions.  Storage is sparse: only nonzero
    coefficients are kept.
    """

    __slots__ = ("_order", "_coeffs")

    def __init__(self, order: int, coeffs: Dict[_Key, RationalLike] | None = None):
        if order < 0:
            raise ValueError(f"truncation order must be >= 0, got {order}")
        self._order = order
        table: Dict[_Key, Fraction] = {}
        if coeffs:
            for (i, j), c in coeffs.items():
                if i < 0 or j < 0:
                    raise ValueError(f"negative exponent pair {(i, j)}")
                if i + j > order:
                    continue
                c = rat(c)
                if c != 0:
                    table[(i, j)] = c
        self._coeffs = table

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, order: int) -> "BivariateSeries":
        return cls(order)

    @classmethod
    def constant(cls, value: RationalLike, order: int) -> "BivariateSeries":
        return cls(order, {(0, 0): value})

    @classmethod
    def monomial(cls, i: int, j: int, order: int, coeff: RationalLike = 1) -> "BivariateSeries":
        return cls(order, {(i, j): coeff})

    # -- inspection ----------------------------------------------------------

    @property
    def order(self) -> int:
        """Total-degree truncation order."""
        return self._order

    def coefficient(self, i: int, j: int) -> Fraction:
        """Coefficient of x^i y^j; raises if the pair is beyond the order."""
        if i < 0 or j < 0:
            raise ValueError(f"negative exponent pair {(i, j)}")
        if i + j > self._order:
            raise ValueError(
                f"coefficient ({i},{j}) lies beyond truncation order {self._order}"
            )
        return self._coeffs.get((i, j), Fraction(0))

    def terms(self) -> Iterator[Tuple[int, int, Fraction]]:
        """Iterate (i, j, coefficient) over nonzero terms, graded order."""
        for (i, j) in sorted(self._coeffs, key=lambda k: (k[0] + k[1], k[0])):
            yield i, j, self._coeffs[(i, j)]

    def truncate(self, order: int) -> "BivariateSeries":
        """Forget coefficients above a (smaller or equal) order."""
        if order > self._order:
            raise ValueError(
                f"cannot extend a series of order {self._order} to order {order}"
            )
        return BivariateSeries(order, self._coeffs)

    # -- linear arithmetic ------------------------------------------------------

    def _check_order(self, other: "BivariateSeries", opname: str) -> None:
        if self._order != other._order:
            raise ValueError(
                f"{opname} needs equal truncation orders, got {self._order} and {other._order}"
            )

    def __add__(self, other):
        if not isinstance(other, BivariateSeries):
            return NotImplemented
        self._check_order(other, "series addition")
        out = dict(self._coeffs)
        for key, c in other._coeffs.items():
            out[key] = out.get(key, Fraction(0)) + c
        return BivariateSeries(self._order, out)

    def __neg__(self):
        return BivariateSeries(self._order, {k: -c for k, c in self._coeffs.items()})

    def __sub__(self, other):
        if not isinstance(other, BivariateSeries):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return BivariateSeries(
                self._order, {k: c * other for k, c in self._coeffs.items()}
            )
        if isinstance(other, BivariateSeries):
            return series_mul(self, other)
        return NotImplemented

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, BivariateSeries):
            return NotImplemented
        return self._order == other._order and self._coeffs == other._coeffs

    def __hash__(self):
        return hash((self._order, frozenset(self._coeffs.items())))

    def __repr__(self):
        inside = ", ".join(f"({i},{j}): {c}" for i, j, c in self.terms())
        return f"BivariateSeries(order={self._order}, {{{inside}}})"


def series_log_one_plus(var: str, order: int) -> BivariateSeries:
    """log(1 + t) as a series in one of the two variables ('x' or 'y')."""
    if var not in ("x", "y"):
        raise ValueError(f"variable must be 'x' or 'y', got {var!r}")
    if order < 1:
        raise ValueError(f"order must be >= 1 for a log series, got {order}")
    coeffs: Dict[_Key, Fraction] = {}
    for k in range(1, order + 1):
        c = Fraction((-1) ** (k + 1), k)
        coeffs[(k, 0) if var == "x" else (0, k)] = c
    return BivariateSeries(order, coeffs)


def series_mul(a: BivariateSeries, b: BivariateSeries) -> BivariateSeries:
    """Cauchy product of two series of equal truncation orders."""
    a._check_order(b, "series multiplication")
    order = a.order
    out: Dict[_Key, Fraction] = {}
    for (i, j), ca in a._coeffs.items():
        for (k, m), cb in b._coeffs.items():
            if i + k + j + m > order:
                continue
            key = (i + k, j + m)
            out[key] = out.get(key, Fraction(0)) + ca * cb
    return BivariateSeries(order, out)


def series_div_unit(num: BivariateSeries, den: BivariateSeries) -> BivariateSeries:
    """Divide by a series with a nonzero constant term.

    The quotient q satisfies q * den == num up to the common truncation
    order; coefficients are found by a graded recursion (total degree, then
    lexicographic within a degree).
    """
    num._check_order(den, "series division")
    d0 = den.coefficient(0, 0)
    if d0 == 0:
        raise ValueError("series division needs a unit denominator (nonzero constant term)")
    order = num.order
    q: Dict[_Key, Fraction] = {}
    for total in range(order + 1):
        for i in range(total, -1, -1):
            j = total - i
            acc = num.coefficient(i, j)
            # subtract the already-known part of the product q * den
            for (a, b), qc in q.items():
                if a <= i and b <= j and (a, b) != (i, j):
                    dc = den._coeffs.get((i - a, j - b))
                    if dc is not None:
                        acc -= qc * dc
            if acc != 0:
                q[(i, j)] = acc / d0
    return BivariateSeries(order, q)


def series_div_xy_difference(s: BivariateSeries) -> BivariateSeries:
    """Divide a series by (x - y), certifying divisibility.

    A series is divisible by (x - y) exactly when each of its diagonal sums
    sum_{i+j=D} c_{i,j} vanishes (equivalently, it vanishes on the diagonal
    x = y).  The quotient has truncation order one less than the input.  If
    some diagonal sum is nonzero, a ValueError reports the first offending
    total degree and the residue.
    """
    if s.order < 1:
        raise ValueError(f"division by (x - y) needs order >= 1, got {s.order}")
    out: Dict[_Key, Fraction] = {}
    for total in range(s.order):  # quotient diagonal degree
        # Relation: c_{i,j} = q_{i-1,j} - q_{i,j-1}; walk the diagonal from
        # the pure-x end, then the leftover certifies divisibility.
        prev = Fraction(0)  # q_{total+1-t, t-1} from the previous step
        for t in range(total + 1):
            qc = s.coefficient(total + 1 - t, t) + prev
            if qc != 0:
                out[(total - t, t)] = qc
            prev = qc
        residue = s.coefficient(0, total + 1) + prev
        if residue != 0:
            raise ValueError(
                "series is not divisible by (x - y): diagonal sum at total degree "
                f"{total + 1} leaves residue {residue}"
            )
    return BivariateSeries(s.order - 1, out)
