"""Exact arithmetic in the Eisenstein integers E = Z[w], w a primitive cube root of 1.

Elements are stored as a + b*w with arbitrary-precision integer a, b and
multiplication reduced by w^2 = -1 - w.  The element theta = w - wbar = 1 + 2w
squares to -3 and generates the unique prime over 3; reduction modulo theta
identifies E/(theta) with F_3 via a + b*w -> (a + b) mod 3.
"""

from __future__ import annotations

from fractions import Fraction


class EisensteinInt:
    """a + b*w with integer a, b; immutable and hashable."""

    __slots__ = ("a", "b")

    def __init__(self, a, b=0):
        self.a = a
        self.b = b

    def __repr__(self):
        if self.b == 0:
            return f"E({self.a})"
        return f"E({self.a},{self.b})"

    def __str__(self):
        if self.b == 0:
            return str(self.a)
        if self.a == 0:
            return f"{self.b}w"
        return f"{self.a}{self.b:+}w"

    def __eq__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self.a == other.a and self.b == other.b

    def __hash__(self):
        return hash((self.a, self.b))

    def __bool__(self):
        return self.a != 0 or self.b != 0

    def __add__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return EisensteinInt(self.a + other.a, self.b + other.b)

    __radd__ = __add__

    def __neg__(self):
        return EisensteinInt(-self.a, -self.b)

    def __sub__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return EisensteinInt(self.a - other.a, self.b - other.b)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        # (a1 + b1 w)(a2 + b2 w), w^2 = -1 - w
        a1, b1, a2, b2 = self.a, self.b, other.a, other.b
        t = b1 * b2
        return EisensteinInt(a1 * a2 - t, a1 * b2 + b1 * a2 - t)

    __rmul__ = __mul__

    def __pow__(self, k):
        if k < 0:
            inv = self.unit_inverse()
            return inv ** (-k)
        out = ONE
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def conj(self):
        """a + b*w -> (a - b) - b*w."""
        return EisensteinInt(self.a - self.b, -self.b)

    def norm(self):
        """a^2 - a*b + b^2 >= 0, multiplicative."""
        return self.a * self.a - self.a * self.b + self.b * self.b

    def is_unit(self):
        return self.norm() == 1

    def unit_inverse(self):
        if not self.is_unit():
            raise ZeroDivisionError(f"{self} is not a unit of E")
        return self.conj()

    def divmod(self, other):
        """Euclidean division: q, r with self = q*other + r, norm(r) < norm(other); other is an E or an int."""
        other = to_e(other)
        if not other:
            raise ZeroDivisionError("division by zero in E")
        n = other.norm()
        num = self * other.conj()
        q = EisensteinInt(_round_div(num.a, n), _round_div(num.b, n))
        r = self - q * other
        return q, r

    def __floordiv__(self, other):
        return self.divmod(other)[0]

    def __mod__(self, other):
        return self.divmod(other)[1]

    def exact_div(self, other):
        """Quotient self/other, raising if other does not divide self."""
        q, r = self.divmod(other)
        if r:
            raise ValueError(f"{other} does not divide {self} in E")
        return q

    def canonical_unit(self):
        """The unique unit u with u*x of argument in [0, pi/3), i.e. 0 <= b < a.

        Fixed so gcd outputs and normal forms are deterministic.
        """
        for u in UNITS:
            y = u * self
            if 0 <= y.b < y.a:
                return u
        raise ValueError("zero has no canonical associate")

    def canonical_associate(self):
        """canonical_unit() * x, and 0 for x = 0."""
        return self.canonical_unit() * self if self else self

    def to_json(self):
        return [self.a, self.b]

    @staticmethod
    def from_json(data):
        if not isinstance(data, list) or len(data) != 2:
            raise ValueError(f"an Eisenstein integer is a pair [a, b] for a + b w, got {data!r}")
        a, b = data
        if type(a) is not int or type(b) is not int:
            raise ValueError(f"coordinates of an Eisenstein integer must be integers, got {data!r}")
        return EisensteinInt(a, b)


def _coerce(x):
    if isinstance(x, EisensteinInt):
        return x
    if isinstance(x, int):
        return EisensteinInt(x, 0)
    return None


def to_e(x):
    """x as an EisensteinInt; an int is taken as x + 0 w, and anything else raises TypeError."""
    y = _coerce(x)
    if y is None:
        raise TypeError(f"expected an Eisenstein integer, got {x!r}")
    return y


def _round_div(p, q):
    """Nearest integer to p/q (q > 0), ties toward +infinity."""
    return (2 * p + q) // (2 * q)


E = EisensteinInt
ZERO = E(0)
ONE = E(1)
OMEGA = E(0, 1)
OMEGA_BAR = E(-1, -1)
THETA = E(1, 2)  # w - wbar = sqrt(-3)
UNITS = (ONE, -ONE, OMEGA, -OMEGA, OMEGA_BAR, -OMEGA_BAR)

# Sixth roots of unity as powers of zeta6 = -wbar (a primitive sixth root).
ZETA6 = -OMEGA_BAR
SIXTH_ROOTS = tuple(ZETA6 ** k for k in range(6))


def e_gcd(*xs):
    """Generator of the ideal (x_1, ..., x_k), as a canonical associate; zero entries are skipped."""
    g = ZERO
    for x in xs:
        y = to_e(x)
        while y:
            g, y = y, g % y
    if not g:
        raise ValueError("the gcd of zeros is undefined")
    return g.canonical_associate()


def is_associate(x, y):
    x, y = to_e(x), to_e(y)
    if not x or not y:
        return (not x) and (not y)
    return x.canonical_associate() == y.canonical_associate()


def reduce_mod_theta(x):
    """The residue map E -> E/(theta) = F_3, a ring homomorphism; w |-> 1."""
    x = to_e(x)
    return (x.a + x.b) % 3


class QOmega:
    """Element a + b*w of the fraction field Q(w), with Fraction coefficients."""

    __slots__ = ("a", "b")

    def __init__(self, a, b=0):
        self.a = Fraction(a)
        self.b = Fraction(b)

    def __repr__(self):
        return f"QOmega({self.a},{self.b})"

    def __eq__(self, other):
        other = _coerce_q(other)
        if other is None:
            return NotImplemented
        return self.a == other.a and self.b == other.b

    def __hash__(self):
        return hash((self.a, self.b, "qw"))

    def __bool__(self):
        return bool(self.a) or bool(self.b)

    def __add__(self, other):
        other = _coerce_q(other)
        if other is None:
            return NotImplemented
        return QOmega(self.a + other.a, self.b + other.b)

    __radd__ = __add__

    def __neg__(self):
        return QOmega(-self.a, -self.b)

    def __sub__(self, other):
        other = _coerce_q(other)
        if other is None:
            return NotImplemented
        return QOmega(self.a - other.a, self.b - other.b)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = _coerce_q(other)
        if other is None:
            return NotImplemented
        t = self.b * other.b
        return QOmega(self.a * other.a - t, self.a * other.b + self.b * other.a - t)

    __rmul__ = __mul__

    def conj(self):
        return QOmega(self.a - self.b, -self.b)

    def norm(self):
        return self.a * self.a - self.a * self.b + self.b * self.b

    def inverse(self):
        n = self.norm()
        if not n:
            raise ZeroDivisionError("division by zero in Q(w)")
        c = self.conj()
        return QOmega(c.a / n, c.b / n)

    def __truediv__(self, other):
        other = _coerce_q(other)
        return self * other.inverse()

    def __rtruediv__(self, other):
        inv = self.inverse()
        return inv if other == 1 else _coerce_q(other) * inv

    def denominator(self):
        import math

        return math.lcm(self.a.denominator, self.b.denominator)


def _coerce_q(x):
    if isinstance(x, QOmega):
        return x
    if isinstance(x, EisensteinInt):
        return QOmega(x.a, x.b)
    if isinstance(x, (int, Fraction)):
        return QOmega(x, 0)
    return None

