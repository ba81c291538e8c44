"""Rational and integer cochains with cup products and fiber slant.

Values are fractions.Fraction throughout; whether a cochain is integral is
read from its values (`is_integer_valued`), never stored.  The cup product
uses front/back faces on the ordered vertex lists, so it is strictly
associative and natural exactly for weakly monotone simplicial maps.
"""

from __future__ import annotations

from fractions import Fraction

from diffchar.simplicial import ProductComplex, ez


class DegreeUnderflow(ValueError):
    """Fiber slant asked to produce a cochain of negative degree."""


def _coerce(x):
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"cochain values must be int or Fraction, got {type(x)!r}")


class Cochain:
    """Simplicial cochain of a fixed degree with exact rational values."""

    __slots__ = ("complex", "degree", "values")

    def __init__(self, complex, degree, values=None, ring="Q"):
        """Check and store the nonzero values.

        `ring` is an input check only: "Z" rejects a non-integer value, "Q"
        accepts any.  Nothing of it is stored.
        """
        if ring not in ("Z", "Q"):
            raise ValueError("ring must be 'Z' or 'Q'")
        self.complex = complex
        self.degree = degree
        clean = {}
        for s, x in (values or {}).items():
            s = tuple(s)
            x = _coerce(x)
            if len(s) - 1 != degree:
                raise ValueError(f"simplex {s} does not have degree {degree}")
            if not complex.has_simplex(s):
                raise ValueError(f"simplex {s} is not in the complex")
            if ring == "Z" and x.denominator != 1:
                raise ValueError(f"integer cochain with non-integer value {x}")
            if x != 0:
                clean[s] = x
        self.values = clean

    @classmethod
    def from_vector(cls, complex, degree, vec, ring="Q"):
        basis = complex.simplices(degree)
        if len(vec) != len(basis):
            raise ValueError("vector length does not match simplex count")
        return cls(complex, degree, dict(zip(basis, vec)), ring)

    def value(self, s):
        return self.values.get(tuple(s), Fraction(0))

    def to_vector(self):
        return [self.values.get(s, Fraction(0)) for s in self.complex.simplices(self.degree)]

    def is_zero(self):
        return not self.values

    def is_integer_valued(self):
        return all(x.denominator == 1 for x in self.values.values())

    def __eq__(self, other):
        return (
            isinstance(other, Cochain)
            and self.complex == other.complex
            and self.degree == other.degree
            and self.values == other.values
        )

    def __add__(self, other):
        self._check_compatible(other)
        out = dict(self.values)
        for s, x in other.values.items():
            out[s] = out.get(s, Fraction(0)) + x
        return Cochain(self.complex, self.degree, out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return Cochain(self.complex, self.degree, {s: -x for s, x in self.values.items()})

    def scale(self, a):
        a = _coerce(a)
        return Cochain(self.complex, self.degree, {s: a * x for s, x in self.values.items()})

    def _check_compatible(self, other):
        if self.complex != other.complex or self.degree != other.degree:
            raise ValueError("cochains live on different complexes or degrees")

    def __repr__(self):
        terms = " + ".join(f"{x}*{list(s)}" for s, x in sorted(self.values.items()))
        return f"Cochain(deg {self.degree}: {terms or '0'})"


def zero_cochain(complex, degree):
    return Cochain(complex, degree, {})


def coboundary(a):
    """(da)(s) = a(boundary of s)."""
    out = {}
    for s in a.complex.simplices(a.degree + 1):
        total = Fraction(0)
        for i in range(len(s)):
            face = s[:i] + s[i + 1 :]
            v = a.values.get(face)
            if v is not None:
                total += -v if i % 2 else v
        if total != 0:
            out[s] = total
    return Cochain(a.complex, a.degree + 1, out)


def cup(a, b):
    """Front/back cup product; strictly associative with Leibniz rule."""
    if a.complex != b.complex:
        raise ValueError("cup product of cochains on different complexes")
    p, q = a.degree, b.degree
    out = {}
    for s in a.complex.simplices(p + q):
        front = a.values.get(s[: p + 1])
        if front is None:
            continue
        back = b.values.get(s[p:])
        if back is None:
            continue
        x = front * back
        if x != 0:
            out[s] = x
    return Cochain(a.complex, p + q, out)


def cup_1(a, b):
    """Steenrod's degree-lowering product, diagnostic use only.

    The sign convention is the one pinned by the coboundary identity
    d(a u1 b) = da u1 b + (-1)^p a u1 db + (-1)^{pq} a u b - b u a,
    which the test suite checks on random cochains.  For closed inputs the
    commutativity defect a u b - (-1)^{pq} b u a is -d(b u1 a).
    """
    if a.complex != b.complex:
        raise ValueError("cup_1 of cochains on different complexes")
    p, q = a.degree, b.degree
    if p < 1 or q < 1:
        return zero_cochain(a.complex, p + q - 1)
    out = {}
    for s in a.complex.simplices(p + q - 1):
        total = Fraction(0)
        for i in range(p):
            j = i + q
            left = s[: i + 1] + s[j:]
            mid = s[i : j + 1]
            va = a.values.get(left)
            if va is None:
                continue
            vb = b.values.get(mid)
            if vb is None:
                continue
            sign = -1 if ((p - i) * (q + 1)) % 2 else 1
            total += sign * va * vb
        if total != 0:
            out[s] = total
    return Cochain(a.complex, p + q - 1, out)


def pair(a, c):
    """Kronecker pairing of a cochain with a chain of the same degree."""
    if a.complex != c.complex:
        raise ValueError("pairing across different complexes")
    if a.degree != c.degree:
        raise ValueError(
            f"pairing degree mismatch: cochain {a.degree}, chain {c.degree}"
        )
    total = Fraction(0)
    for s, n in c.coeffs.items():
        v = a.values.get(s)
        if v is not None:
            total += n * v
    return total


def pullback(phi, a):
    """Cochain pullback along a simplicial map, dual to the chain pushforward."""
    if a.complex != phi.target:
        raise ValueError("cochain does not live on the map's target")
    out = {}
    for s in phi.source.simplices(a.degree):
        sign, image = phi.push_simplex(s)
        if sign == 0:
            continue
        v = a.values.get(image)
        if v is not None and v != 0:
            out[s] = sign * v
    return Cochain(phi.source, a.degree, out)


def slant_fiber(b, fiber_chain):
    """Integrate a cochain on a staircase product over a chain in the fiber.

    For b of degree k on K x F and a fiber chain of degree n, the result is
    the degree k-n cochain c -> b(EZ(c @ fiber_chain)) on K.
    """
    product = b.complex
    if not isinstance(product, ProductComplex):
        raise TypeError("slant_fiber needs a cochain on a ProductComplex")
    if fiber_chain.complex != product.right:
        raise ValueError("fiber chain does not live on the right factor")
    m = b.degree - fiber_chain.degree
    if m < 0:
        raise DegreeUnderflow(
            f"cochain degree {b.degree} below fiber degree {fiber_chain.degree}"
        )
    base = product.left
    out = {}
    for s in base.simplices(m):
        v = pair(b, ez(base.chain(m, {s: 1}), fiber_chain, product))
        if v != 0:
            out[s] = v
    return Cochain(base, m, out)


def has_integral_periods(a):
    """Integer pairing with every cycle in the cochain's degree."""
    periods = a.complex.splitting(a.degree).periods(a.to_vector())
    return all(Fraction(p).denominator == 1 for p in periods)


def is_closed(a):
    return coboundary(a).is_zero()
