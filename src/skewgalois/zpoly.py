"""Exact arithmetic for integer polynomials: resultants, discriminants,
and Sturm-sequence real root counting.

Coefficient lists are ascending with Python ints (no overflow).  The
resultant runs the subresultant polynomial remainder sequence (Collins
1967; Brown and Traub 1971), whose exact divisions keep every coefficient
the size of a Sylvester minor; the discriminant is built on it.  The Sturm
chain strips positive content at every step to keep the integers small
while preserving all signs.
"""

from __future__ import annotations

import math


def zdegree(f: list[int]) -> int:
    return len(f) - 1


def znormalize(f: list[int]) -> list[int]:
    f = list(f)
    while f and f[-1] == 0:
        f.pop()
    return f


def zadd(f: list[int], g: list[int]) -> list[int]:
    n = max(len(f), len(g))
    out = [0] * n
    for i, c in enumerate(f):
        out[i] += c
    for i, c in enumerate(g):
        out[i] += c
    return znormalize(out)


def zmul(f: list[int], g: list[int]) -> list[int]:
    if not f or not g:
        return []
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] += a * b
    return znormalize(out)


def zeval(f: list[int], x: int) -> int:
    y = 0
    for c in reversed(f):
        y = y * x + c
    return y


def zderivative(f: list[int]) -> list[int]:
    return znormalize([i * c for i, c in enumerate(f)][1:])


def zcontent(f: list[int]) -> int:
    g = 0
    for c in f:
        g = math.gcd(g, c)
    return g or 1


def zprimitive(f: list[int]) -> list[int]:
    """Divide out the positive content (sign-preserving)."""
    c = zcontent(f)
    return [a // c for a in f]


def reduce_mod(f: list[int], m: int) -> list[int]:
    return [c % m for c in f]


def _pseudo_rem(f: list[int], g: list[int]) -> list[int]:
    """Pseudo-remainder lc(g)^(deg f - deg g + 1) * f mod g, exact over Z."""
    f = list(f)
    d = len(g) - 1
    lg = g[-1]
    e = len(f) - len(g) + 1
    while len(f) - 1 >= d and f:
        c = f[-1]
        k = len(f) - 1 - d
        f = [lg * a for a in f]
        for i, b in enumerate(g):
            f[k + i] -= c * b
        f = znormalize(f)
        e -= 1
    if e > 0:
        f = [lg**e * a for a in f]
    return f


def resultant(f: list[int], g: list[int]) -> int:
    """Resultant of two integer polynomials by the subresultant PRS.

    Cohen, *A Course in Computational Algebraic Number Theory*, Algorithm
    3.3.7 (Collins 1967; Brown and Traub 1971): after stripping contents,
    each pseudo-remainder is divided exactly by g * h^delta, so every
    intermediate coefficient stays a subresultant (a minor of the Sylvester
    matrix) instead of growing exponentially.  The sign s tracks the
    (-1)^(deg A * deg B) swaps, and t = a^deg B * b^deg A restores the
    stripped contents a and b.
    """
    A, B = znormalize(f), znormalize(g)
    if not A or not B:
        return 0
    a, b = zcontent(A), zcontent(B)
    t = a ** zdegree(B) * b ** zdegree(A)
    A = [c // a for c in A]
    B = [c // b for c in B]
    s = 1
    if zdegree(A) < zdegree(B):
        A, B = B, A
        if zdegree(A) % 2 and zdegree(B) % 2:
            s = -1
    gg = hh = 1
    while zdegree(B) > 0:
        delta = zdegree(A) - zdegree(B)
        if zdegree(A) % 2 and zdegree(B) % 2:
            s = -s
        R = _pseudo_rem(A, B)
        if not R:
            return 0  # a common factor of positive degree
        div = gg * hh**delta
        A, B = B, [c // div for c in R]
        gg = A[-1]
        hh = gg**delta // hh ** (delta - 1) if delta else hh
    d = zdegree(A)
    return s * t * (B[0] ** d // hh ** (d - 1) if d else 1)


def discriminant(f: list[int]) -> int:
    """disc(f) = (-1)^(n(n-1)/2) resultant(f, f') / lc(f)."""
    f = znormalize(f)
    n = zdegree(f)
    if n < 1:
        raise ValueError("discriminant needs degree >= 1")
    if n == 1:
        return 1
    r = resultant(f, zderivative(f))
    sign = -1 if (n * (n - 1) // 2) % 2 else 1
    q, rem = divmod(sign * r, f[-1])
    if rem:
        raise AssertionError("discriminant division was not exact")
    return q


def sturm_chain(f: list[int]) -> list[list[int]]:
    """Sturm sequence of a squarefree integer polynomial, content-stripped."""
    f = zprimitive(znormalize(f))
    chain = [f, zprimitive(zderivative(f))]
    while zdegree(chain[-1]) > 0:
        r = _pseudo_rem(chain[-2], chain[-1])
        if not r:
            break
        # force the sign convention s_{i+1} = -rem(s_{i-1}, s_i):
        # pseudo-division multiplied by lc^e, which may flip signs when lc < 0
        lg = chain[-1][-1]
        e = len(chain[-2]) - len(chain[-1]) + 1
        if lg < 0 and e % 2:
            r = [-c for c in r]
        chain.append(zprimitive([-c for c in r]))
    return chain


def _sign_changes(values: list[int]) -> int:
    signs = [v for v in values if v != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if (a > 0) != (b > 0))


def count_real_roots(f: list[int]) -> int:
    """Number of distinct real roots of f, by Sturm's theorem over (-inf, inf)."""
    f = znormalize(f)
    if zdegree(f) < 1:
        return 0
    # deflate repeated roots so the chain is a genuine Sturm sequence
    g = _int_gcd_poly(f, zderivative(f))
    if zdegree(g) > 0:
        f = _exact_div(f, g)
    chain = sturm_chain(f)
    at_minus = []
    at_plus = []
    for s in chain:
        lc = s[-1]
        deg = zdegree(s)
        at_plus.append(lc)
        at_minus.append(lc if deg % 2 == 0 else -lc)
    return _sign_changes(at_minus) - _sign_changes(at_plus)


def _chain_signs_at(chain: list[list[int]], x: int) -> list[int]:
    return [zeval(s, x) for s in chain]


def count_real_roots_between(f: list[int], a: int, b: int) -> int:
    """Distinct real roots of f in the half-open interval (a, b]."""
    f = znormalize(f)
    if zdegree(f) < 1 or a >= b:
        return 0
    g = _int_gcd_poly(f, zderivative(f))
    if zdegree(g) > 0:
        f = _exact_div(f, g)
    chain = sturm_chain(f)
    va = _sign_changes(_chain_signs_at(chain, a))
    vb = _sign_changes(_chain_signs_at(chain, b))
    return va - vb


def integer_roots_monic(f: list[int]) -> list[int]:
    """All integer roots of a monic integer polynomial.

    Rational roots of a monic integer polynomial are integers; they are
    found by Sturm bisection down to unit-width intervals, so huge
    coefficients are fine (no divisor enumeration).
    """
    f = znormalize(f)
    if not f or f[-1] != 1:
        raise ValueError("expects a monic polynomial")
    if zdegree(f) < 1:
        return []
    work = f
    g = _int_gcd_poly(work, zderivative(work))
    if zdegree(g) > 0:
        work = _exact_div(work, g)
    chain = sturm_chain(work)
    bound = 1 + max(abs(c) for c in f)
    roots: list[int] = []

    def count(lo: int, hi: int) -> int:
        return _sign_changes(_chain_signs_at(chain, lo)) - _sign_changes(
            _chain_signs_at(chain, hi)
        )

    def search(lo: int, hi: int):
        # integer roots of f in (lo, hi]
        if count(lo, hi) == 0:
            return
        if hi - lo == 1:
            if zeval(f, hi) == 0:
                roots.append(hi)
            return
        mid = (lo + hi) // 2
        search(lo, mid)
        search(mid, hi)

    if zeval(f, -bound) == 0:
        roots.append(-bound)
    search(-bound, bound)
    return sorted(roots)


def _int_gcd_poly(f: list[int], g: list[int]) -> list[int]:
    """Primitive gcd of integer polynomials (via pseudo-remainders)."""
    a, b = zprimitive(znormalize(f)), zprimitive(znormalize(g))
    if not a:
        return b
    if not b:
        return a
    if zdegree(a) < zdegree(b):
        a, b = b, a
    while b:
        r = zprimitive(_pseudo_rem(a, b))
        a, b = b, r
        if not b:
            break
        if zdegree(b) < 0:
            break
    if a and a[-1] < 0:
        a = [-c for c in a]
    return a


def _exact_div(f: list[int], g: list[int]) -> list[int]:
    """Exact division of integer polynomials (raises if not exact)."""
    from fractions import Fraction

    f = [Fraction(c) for c in znormalize(f)]
    g = znormalize(g)
    q: list = [Fraction(0)] * (len(f) - len(g) + 1)
    while len(f) >= len(g) and any(f):
        c = f[-1] / g[-1]
        k = len(f) - len(g)
        q[k] = c
        for i, b in enumerate(g):
            f[k + i] -= c * b
        while f and f[-1] == 0:
            f.pop()
    if any(f):
        raise AssertionError("division not exact")
    out = []
    for c in q:
        if c.denominator != 1:
            raise AssertionError("division not exact over Z")
        out.append(int(c))
    return znormalize(out)
