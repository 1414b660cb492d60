"""Exact arithmetic for integer polynomials: resultants, discriminants,
and Sturm-sequence real root counting.

Coefficient lists are ascending with Python ints (no overflow).  The
resultant runs the subresultant polynomial remainder sequence (Collins
1967; Brown and Traub 1971), whose exact divisions keep every coefficient
the size of a Sylvester minor; the discriminant is built on it.  The Sturm
chain is the signed remainder sequence of f and f' itself, with no
deflation of repeated roots: Sturm's theorem counts distinct real roots
without a squarefree hypothesis, so real and integer root counts both run
on this one chain.  It strips positive content at every step to keep the
integers small while preserving all signs.
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
    """Signed remainder sequence of f and f', content-stripped.

    f need not be squarefree: the chain ends at a multiple of gcd(f, f'),
    and every member is a multiple of it, so at any point that is not a
    root of f the sign variations equal those of the deflated chain
    (Basu, Pollack and Roy, *Algorithms in Real Algebraic Geometry*, ch. 2).
    """
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
    chain = sturm_chain(f)
    at_plus = [s[-1] for s in chain]
    at_minus = [-s[-1] if zdegree(s) % 2 else s[-1] for s in chain]
    return _sign_changes(at_minus) - _sign_changes(at_plus)


def integer_roots_monic(f: list[int]) -> list[int]:
    """All integer roots of a monic integer polynomial.

    Rational roots of a monic integer polynomial are integers; they are
    found by Sturm bisection down to unit-width intervals, so huge
    coefficients are fine (no divisor enumeration).  The interval ends are
    half-integers t + 1/2, which are never roots: they are read as the odd
    points 2t + 1 on the chain of F(y) = 2^n f(y/2).
    """
    f = znormalize(f)
    if not f or f[-1] != 1:
        raise ValueError("expects a monic polynomial")
    n = zdegree(f)
    if n < 1:
        return []
    chain = sturm_chain([c << (n - i) for i, c in enumerate(f)])

    def variations(t: int) -> int:
        return _sign_changes([zeval(s, 2 * t + 1) for s in chain])

    # every root lies in (-bound, bound), so in (-bound - 1/2, bound + 1/2]
    bound = 1 + max(abs(c) for c in f)
    roots: list[int] = []
    # integer roots of f in (lo + 1/2, hi + 1/2]
    stack = [(-bound - 1, variations(-bound - 1), bound, variations(bound))]
    while stack:
        lo, v_lo, hi, v_hi = stack.pop()
        if v_lo == v_hi:
            continue
        if hi - lo == 1:
            if zeval(f, hi) == 0:
                roots.append(hi)
            continue
        mid = (lo + hi) // 2
        v_mid = variations(mid)
        stack += [(lo, v_lo, mid, v_mid), (mid, v_mid, hi, v_hi)]
    return sorted(roots)
