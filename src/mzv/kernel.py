"""Exact-arithmetic kernel: the integer Horner rule, a read-only polynomial
value, and a dense quotient table of bivariate power series.

Every coefficient in this module is a `fractions.Fraction` (lowest terms,
positive denominator), and nothing here touches floating point.  No route
adds or multiplies polynomials: each reads a coefficient tuple, as integer
numerators over one denominator, through :func:`horner`.  So the two
container types are deliberately small:

* :class:`RationalPolynomial` — an immutable dense univariate polynomial
  with trimmed coefficients, the value type of the Bernoulli-type and
  Stirling-type polynomials.  It is built from its coefficients, then read,
  compared, evaluated and printed; it has no arithmetic.
* :class:`BivariateSeries` — the quotient of two power series in two
  variables, stored as one list per total degree and grown in place, used
  for the two-variable generating function whose coefficients are the
  Gregory-type constants.

The one non-obvious algorithm is the division in :class:`BivariateSeries`:
by a graded unit (one constant per diagonal), with a prefix sum per diagonal.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate
from math import lcm
from typing import Callable, Iterable, List, Sequence, Tuple, Union

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


def horner(coeffs: Sequence[int], p: int, q: int = 1) -> int:
    """q^d P(p/q) for P = sum_k coeffs[k] Y^k, d = len(coeffs) - 1; all ints, q > 0."""
    acc, qk = 0, 1
    for c in reversed(coeffs):
        acc = acc * p + c * qk
        qk *= q
    return acc


class RationalPolynomial:
    """Dense univariate polynomial over the rationals, as a read-only value.

    Coefficients are stored lowest degree first with trailing zeros trimmed,
    so equal polynomials always compare and hash equal.  Instances are
    immutable and have no arithmetic.  The degree of the zero polynomial is
    minus infinity (:data:`NEG_INFINITY`).
    """

    __slots__ = ("_coeffs", "_scaled")

    def __init__(self, coeffs: Iterable[RationalLike] = ()):
        cs = [rat(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self._coeffs: Tuple[Fraction, ...] = tuple(cs)
        self._scaled = None  # see scaled

    @classmethod
    def monomial(cls, degree: int) -> "RationalPolynomial":
        """The monic monomial Y^degree."""
        if degree < 0:
            raise ValueError(f"monomial degree must be >= 0, got {degree}")
        return cls((0,) * degree + (1,))

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

    def scaled(self) -> Tuple[int, Tuple[int, ...]]:
        """(den, nums) with coeffs[k] = nums[k] / den, den the lcm of the
        coefficient denominators; built once per instance."""
        if self._scaled is None:
            cs = self._coeffs
            den = lcm(*(c.denominator for c in cs))
            self._scaled = (den, tuple(c.numerator * (den // c.denominator) for c in cs))
        return self._scaled

    def evaluate(self, x: RationalLike) -> Fraction:
        """Value at a rational point, by :func:`horner` on integer numerators."""
        x = rat(x)
        (den, nums), q = self.scaled(), x.denominator
        return Fraction(horner(nums, x.numerator, q), den * q ** max(len(nums) - 1, 0))

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


# ---------------------------------------------------------------------------
# Dense graded quotient of bivariate power series
# ---------------------------------------------------------------------------


class BivariateSeries:
    """The quotient of two power series in x and y, as a dense table of
    diagonals that grows in place.

    ``diagonals(t)`` returns the total-degree-t diagonals of the numerator
    and of the denominator, entry i the coefficient of x^i y^(t-i).  The
    denominator must be a graded unit: a nonzero constant d_0, and on each
    diagonal s one constant d_s.  Then the quotient q satisfies
    q_{i,j} = (n_{i,j} - sum_{s>=1} d_s sum_{a+b=s} q_{i-a,j-b}) / d_0, and the
    inner sum is a contiguous segment of diagonal t - s, read from its prefix
    sums.  Diagonal t needs only lower diagonals and costs O(t^2), so growing
    to order N costs O(N^3) and never recomputes a diagonal.

    The table knows exactly the coefficients of x^i y^j with i + j <= order;
    reading beyond the order raises.
    """

    __slots__ = ("_source", "_units", "_diagonals", "_prefix")

    def __init__(
        self,
        diagonals: Callable[[int], Tuple[List[Fraction], List[Fraction]]],
        order: int = 0,
    ):
        self._source = diagonals
        self._units: List[Fraction] = []  # d_0, d_1, ...
        self._diagonals: List[List[Fraction]] = []
        # _prefix[t][k]: sum of the first k entries of diagonal t
        self._prefix: List[List[Fraction]] = []
        self.grow(order)

    @property
    def order(self) -> int:
        """Total-degree truncation order."""
        return len(self._diagonals) - 1

    def grow(self, order: int) -> None:
        """Append diagonals until the table reaches total degree ``order``."""
        if order < 0:
            raise ValueError(f"truncation order must be >= 0, got {order}")
        units, prefix = self._units, self._prefix
        for t in range(len(self._diagonals), order + 1):
            num, den = self._source(t)
            if any(c != den[0] for c in den):
                raise ValueError(f"divisor diagonal at total degree {t} is not constant")
            if t == 0 and den[0] == 0:
                raise ValueError("division needs a unit divisor (nonzero constant term)")
            units.append(den[0])
            row = []
            for i, acc in enumerate(num):
                for s in range(1, t + 1):
                    p = prefix[t - s]
                    acc -= units[s] * (p[min(i, t - s) + 1] - p[max(0, i - s)])
                row.append(acc / units[0])
            self._diagonals.append(row)
            prefix.append(list(accumulate(row, initial=Fraction(0))))

    def coefficient(self, i: int, j: int) -> Fraction:
        """Coefficient of x^i y^j; raises if the pair is beyond the order."""
        if i < 0 or j < 0:
            raise ValueError(f"negative exponent pair {(i, j)}")
        if i + j >= len(self._diagonals):
            raise ValueError(
                f"coefficient ({i},{j}) lies beyond truncation order {self.order}"
            )
        return self._diagonals[i + j][i]
