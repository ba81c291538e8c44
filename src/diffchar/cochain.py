"""Rational and integer cochains with cup products and fiber slant.

Each value is the exact number it is: an int, or a Fraction where the input
or the arithmetic made one; `_coerce`, where values enter, alone decides
this, and makes every integral value an int, so that solves against integer
factorizations run in int arithmetic.  Whether a cochain is integral is read
from its values (`is_integer_valued`), never stored.  The cup product uses
front/back faces on the ordered vertex lists, so it is strictly associative
and natural exactly for weakly monotone simplicial maps.

Cochains are checked where they enter: `Cochain(...)` and
`io.cochain_from_json` check every simplex and value, `Cochain.from_vector`
coerces each value (and with ring "Z" runs the full check).  Every operation
here builds its result from checked cochains through the trusted
`Cochain._of`, which checks nothing and only drops zeros; the arithmetic is
the one of `simplicial.LinearCombination`, shared with chains.
"""

from __future__ import annotations

from fractions import Fraction

from diffchar.simplicial import Chain, LinearCombination, ProductComplex, ez


def _coerce(x):
    if isinstance(x, Fraction):
        return int(x) if x.denominator == 1 else x
    if isinstance(x, int):
        return int(x)
    raise TypeError(f"cochain values must be int or Fraction, got {type(x)!r}")


class Cochain(LinearCombination):
    """Simplicial cochain of a fixed degree with exact rational values.

    `coeffs` maps each simplex to its nonzero int or Fraction value.  The
    constructor checks every simplex and value, for input; the operations
    below build their results unchecked through `Cochain._of`.
    """

    __slots__ = ("complex", "degree")
    _space = ("complex", "degree")
    _mismatch = "cochains live on different complexes or degrees"

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
        self.coeffs = clean

    @classmethod
    def from_vector(cls, complex, degree, vec, ring="Q"):
        """The cochain with these values on the degree's simplices, in order.

        The simplices come from the basis, so only the values are checked;
        ring "Z" runs the constructor's full check.
        """
        basis = complex.simplices(degree)
        if len(vec) != len(basis):
            raise ValueError("vector length does not match simplex count")
        if ring != "Q":
            return cls(complex, degree, dict(zip(basis, vec)), ring)
        return cls._of(complex, degree, {s: _coerce(x) for s, x in zip(basis, vec)})

    def coerced(self):
        """The same cochain with every value through `_coerce`: an integral
        Fraction the arithmetic left becomes an int."""
        return Cochain._of(self.complex, self.degree,
                           {s: _coerce(x) for s, x in self.coeffs.items()})

    def value(self, s):
        return self.coeffs.get(tuple(s), 0)

    def is_integer_valued(self):
        return all(x.denominator == 1 for x in self.coeffs.values())

    def scale(self, a):
        a = _coerce(a)
        return Cochain._of(self.complex, self.degree, {s: a * x for s, x in self.coeffs.items()})

    def __repr__(self):
        terms = " + ".join(f"{x}*{list(s)}" for s, x in sorted(self.coeffs.items()))
        return f"Cochain(deg {self.degree}: {terms or '0'})"


def zero_cochain(complex, degree):
    return Cochain._of(complex, degree, {})


def coboundary(a):
    """(da)(s) = a(boundary of s): the rows of d_{k+1} summed over a's support."""
    K, k = a.complex, a.degree
    rows = K._coface_rows(k + 1)
    totals = {}
    for s, v in a.coeffs.items():
        for j, sign in rows[K.index_of(s)].items():
            w = v if sign > 0 else -v
            t = totals.get(j)
            totals[j] = w if t is None else t + w
    cofaces = K.simplices(k + 1)
    return Cochain._of(K, k + 1, {cofaces[j]: totals[j] for j in sorted(totals)})


def cup(a, b):
    """Front/back cup product; strictly associative with Leibniz rule."""
    if a.complex != b.complex:
        raise ValueError("cup product of cochains on different complexes")
    p, q = a.degree, b.degree
    out = {}
    for s in a.complex.simplices(p + q):
        front = a.coeffs.get(s[: p + 1])
        if front is None:
            continue
        back = b.coeffs.get(s[p:])
        if back is None:
            continue
        out[s] = front * back
    return Cochain._of(a.complex, p + q, out)


def cup_1(a, b):
    """Steenrod's degree-lowering product, diagnostic use only.

    The sign convention is the one pinned by the coboundary identity
    d(a u1 b) = da u1 b + (-1)^p a u1 db + (-1)^{p+q-1} a u b
    + (-1)^{p+q+pq} b u a, which the test suite checks on random cochains.
    For closed inputs the commutativity defect a u b - (-1)^{pq} b u a is
    (-1)^{p+q+pq} d(b u1 a): -d(b u1 a) unless p and q are both even.
    """
    if a.complex != b.complex:
        raise ValueError("cup_1 of cochains on different complexes")
    p, q = a.degree, b.degree
    if p < 1 or q < 1:
        return zero_cochain(a.complex, p + q - 1)
    out = {}
    for s in a.complex.simplices(p + q - 1):
        total = 0
        for i in range(p):
            j = i + q
            left = s[: i + 1] + s[j:]
            mid = s[i : j + 1]
            va = a.coeffs.get(left)
            if va is None:
                continue
            vb = b.coeffs.get(mid)
            if vb is None:
                continue
            sign = -1 if ((p - i) * (q + 1)) % 2 else 1
            total += sign * va * vb
        out[s] = total
    return Cochain._of(a.complex, p + q - 1, out)


def pair(a, c):
    """Kronecker pairing of a cochain with a chain of the same degree."""
    if a.complex != c.complex:
        raise ValueError("pairing across different complexes")
    if a.degree != c.degree:
        raise ValueError(
            f"pairing degree mismatch: cochain {a.degree}, chain {c.degree}"
        )
    total = 0
    for s, n in c.coeffs.items():
        v = a.coeffs.get(s)
        if v is not None:
            total += n * v
    return total


def pullback(phi, a):
    """Cochain pullback along a simplicial map, dual to the chain pushforward:
    (phi^* a)(s) = sign * a(image) from the map's push table; a collapsed
    image (None) carries no value."""
    if a.complex != phi.target:
        raise ValueError("cochain does not live on the map's target")
    out = {}
    for s, (sign, image) in zip(phi.source.simplices(a.degree), phi.push_table(a.degree)):
        v = a.coeffs.get(image)
        if v is not None:
            out[s] = sign * v
    return Cochain._of(phi.source, a.degree, out)


def slant_fiber(b, fiber_chain, product=None):
    """Integrate a cochain on a staircase product over a chain in the fiber.

    For b of degree k on K x F and a fiber chain of degree n, the result is
    the degree k-n cochain c -> b(EZ(c @ fiber_chain)) on K, the zero cochain
    when k < n, since K has no simplices of negative degree.  The product
    defaults to b's complex, which may be a plain complex equal to point x F.
    """
    product = b.complex if product is None else product
    if not isinstance(product, ProductComplex):
        raise TypeError("slant_fiber needs a cochain on a ProductComplex")
    if fiber_chain.complex != product.right:
        raise ValueError("fiber chain does not live on the right factor")
    m = b.degree - fiber_chain.degree
    base = product.left
    out = {}
    for s in base.simplices(m):
        out[s] = pair(b, ez(Chain._of(base, m, {s: 1}), fiber_chain, product))
    return Cochain._of(base, m, out)


def has_integral_periods(a):
    """Integer pairing with every cycle in the cochain's degree."""
    return a.complex.splitting(a.degree).integral_periods(a.to_vector())


def is_closed(a):
    return coboundary(a).is_zero()
