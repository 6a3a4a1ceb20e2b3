"""Exact coefficient fields: the rationals and prime fields GF(p)."""

import re
from fractions import Fraction

# The one coefficient grammar: an integer or p/q, with an optional sign.
# Fraction alone would expand the exponent of a string such as "1e400000".
COEFFICIENT = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


def _fraction(value):
    if isinstance(value, str) and not COEFFICIENT.fullmatch(value):
        raise ValueError("not an integer or p/q: %r" % (value,))
    return Fraction(value)


# Miller-Rabin with the first twelve primes as bases is exact below this
# bound (Sorenson and Webster 2015)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_LIMIT = 318665857834031151167461


def _is_prime(n):
    """Deterministic Miller-Rabin test; raises ValueError at or above
    _MR_LIMIT, where these bases no longer decide primality."""
    if n >= _MR_LIMIT:
        raise ValueError("modulus %d is too large; moduli below %d are "
                         "supported" % (n, _MR_LIMIT))
    if n < 2:
        return False
    for a in _MR_BASES:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class RationalField:
    """The field of rational numbers. QQ(value) is a plain int when value
    is integral and a fractions.Fraction otherwise, so integer coefficients
    cost native int arithmetic. Sums and products of the two stay exact;
    a product of two Fractions may be an integral Fraction, which compares
    and prints like the int. inv is the only division, so no scalar
    becomes a float."""

    characteristic = 0
    zero = 0
    one = 1

    def __call__(self, value):
        if type(value) is int:
            return value
        value = _fraction(value)
        return value.numerator if value.denominator == 1 else value

    def inv(self, x):
        """Multiplicative inverse; ZeroDivisionError on zero."""
        if not x:
            raise ZeroDivisionError("division by zero in Q")
        x = Fraction(1, x)
        return x.numerator if x.denominator == 1 else x

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("rational")

    def __repr__(self):
        return "QQ"

    def to_json(self):
        return {"type": "rational"}


class PrimeField:
    """The prime field GF(p). Its elements are plain ints in range(p),
    reduced mod p where they are stored (free_algebra.axpy)."""

    zero = 0
    one = 1

    def __init__(self, p):
        if not _is_prime(p):
            raise ValueError("modulus %r is not prime" % (p,))
        self.p = self.characteristic = p

    def inv(self, x):
        """Multiplicative inverse; ZeroDivisionError on zero."""
        if not x % self.p:
            raise ZeroDivisionError("division by zero in GF(%d)" % self.p)
        return pow(x, -1, self.p)

    def __call__(self, value):
        if isinstance(value, int):
            return value % self.p
        value = _fraction(value)
        return value.numerator * self.inv(value.denominator) % self.p

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("prime", self.p))

    def __repr__(self):
        return "GF(%d)" % self.p

    def to_json(self):
        return {"type": "prime", "p": self.p}


QQ = RationalField()


def GF(p):
    return PrimeField(p)


def field_from_json(data):
    """Build a field from its JSON description {"type": ...}."""
    if data is None:
        return QQ
    if not isinstance(data, dict):
        raise ValueError('field must be an object, such as '
                         '{"type": "rational"}')
    kind = data.get("type")
    if kind == "rational":
        return QQ
    if kind == "prime":
        p = data.get("p")
        if isinstance(p, bool) or not isinstance(p, int):
            raise ValueError("prime field modulus p must be an integer, "
                             "got %r" % (p,))
        return PrimeField(p)
    raise ValueError("unknown field type %r" % (kind,))
