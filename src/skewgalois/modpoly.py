"""Polynomials over Z/p, and the library's one F_p[x] arithmetic.

At the interface a polynomial is an ascending list of ints in [0, p), the
zero polynomial the empty list.  Inside, it is one int whose slot i, _w bits
and whole bytes wide, holds coefficient i (Kronecker substitution), so one
int product is a polynomial product.  QuotientRing(p, n) has the slot layout
for up to 2n coefficients, built once per (p, n), and divides on it; with a
monic modulus m of degree n it is F_p[x]/(m), whose reduction folds the high
slots back through a table of x^(n+i) mod m.  ffield.FqField is that ring
for the least irreducible m.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import compress
from operator import lshift, mul

from .zarith import is_prime

# Products a packed slot has room for on top of a canonical value (see
# _layout), so that sums of them are reduced once
_ACC_TERMS = 64


def normalize(f: list[int], p: int) -> list[int]:
    f = [c % p for c in f]
    while f and f[-1] == 0:
        f.pop()
    return f


def degree(f: list[int]) -> int:
    """Degree, with deg 0 = -1 for the zero polynomial."""
    return len(f) - 1


def derivative(f: list[int], p: int) -> list[int]:
    return normalize([(i * c) % p for i, c in enumerate(f)][1:], p)


# -- packed slots ---------------------------------------------------------------


@lru_cache(maxsize=None)
def _layout(p: int, n: int) -> tuple:
    """The slot layout of QuotientRing(p, n), in the order __init__ unpacks it."""
    # With canonical slots in [0, p - 1], a product of two polynomials of
    # degree below n puts at most n (p - 1)^2 in a slot, and one with (p - 1)
    # times such a product at most n (p - 1)^3.  A slot holds a canonical
    # value, _ACC_TERMS such products and the n - 1 folded high slots of a
    # reduction without carrying into the next; and 2^(w-1) >= p, which
    # slotwise addition needs.  w is that bound rounded up to whole bytes, so
    # a canonical slot below 256 is one byte of the int.
    bound = (p - 1) + _ACC_TERMS * n * (p - 1) ** 3 + (n - 1) * (p - 1) ** 2
    w = -(-max(bound, 2 * p).bit_length() // 8) * 8
    shifts = tuple(range(0, w * n, w))
    mask = (1 << w) - 1
    ones = sum(1 << s for s in shifts)
    if p == 2:  # a slot mod 2 is its lowest bit
        divp = sum(1 << s for s in range(0, 2 * w * n, w))
    else:
        # t // p = t M >> K for every t < 2^w, with K = w + len(p) and
        # M = ceil(2^K / p), since t M / 2^K exceeds t / p by less than
        # t p / (p 2^K) < 1 / p.  t M < 2^(2w+1), so the products of every
        # third slot, 3w bits apart, do not overlap; the masks pick out slots
        # 0, 3, 6, ..., then 1, 4, ..., then 2, 5, ..., of 2n slots
        k = w + p.bit_length()
        divp = (-(-(1 << k) // p), k,
                *(sum(mask << s for s in range(w * j, 2 * w * n, 3 * w)) for j in range(3)))
    return w, w // 8, n * w // 8, shifts, mask, (1 << w * n) - 1, ones, ones << w - 1, divp


class QuotientRing:
    """Packed polynomials over F_p with up to 2n coefficients; after
    _set_fold(m), for a monic m of degree n, the ring F_p[x]/(m)."""

    __slots__ = ("p", "n", "_fold", "_w", "_step", "_nbytes", "_shifts", "_mask",
                 "_low", "_ones", "_top", "_divp")

    def __init__(self, p: int, n: int):
        self.p = p
        self.n = n
        (self._w, self._step, self._nbytes, self._shifts, self._mask, self._low,
         self._ones, self._top, self._divp) = _layout(p, n)

    def _set_fold(self, m: int) -> None:
        """Make this F_p[x]/(m) for a packed monic m of degree n: _fold[i] is
        x^(n+i) mod m, x times the one before with its slot n folded back."""
        p, w, n, low = self.p, self._w, self.n, self._low
        fold = [self._canon((p - 1) * (m & low))] if n > 1 else []  # x^n = -(m - x^n)
        for _ in range(n - 2):
            v = fold[-1] << w
            fold.append(self._canon((v & low) + (v >> w * n) * fold[0]))
        self._fold = tuple(fold)

    def _digits(self, idx: int) -> list[int]:
        """The n base-p digits of idx, least significant first."""
        p, out = self.p, []
        for _ in range(self.n):
            idx, c = divmod(idx, p)
            out.append(c)
        return out

    def _pack(self, digits) -> int:
        """The packed value whose slot i holds digits[i], for digits below p;
        _read inverted."""
        if self.p < 256:
            buf = bytearray(len(digits) * self._step)
            buf[::self._step] = digits
            return int.from_bytes(buf, "little")
        w = self._w
        return sum(map(lshift, digits, range(0, w * len(digits), w)))

    def _read(self, v: int):
        """The n slots of a canonical packed value below x^n: for p < 256
        every (w/8)-th byte of it, the lowest byte of each slot."""
        if self.p < 256:
            return v.to_bytes(self._nbytes, "little")[::self._step]
        mask = self._mask
        return [v >> s & mask for s in self._shifts]

    def _combine(self, v: int, cols: tuple) -> int:
        """The sum of cols[i] times slot i of a canonical v, unreduced."""
        digits = self._read(v)
        return sum(compress(cols, digits)) if self.p == 2 else sum(map(mul, digits, cols))

    def _canon(self, acc: int) -> int:
        """Each of the (at most 2n) slots of acc taken mod p: slot t loses
        p (t // p), with t // p found for every third slot at once by one
        multiply (see _layout)."""
        if self.p == 2:
            return acc & self._divp
        m, k, g0, g1, g2 = self._divp
        return acc - self.p * ((acc & g0) * m >> k & g0 | (acc & g1) * m >> k & g1
                               | (acc & g2) * m >> k & g2)

    def _deg(self, v: int) -> int:
        """The degree of a canonical packed value, -1 for zero."""
        return (v.bit_length() - 1) // self._w

    # -- in F_p[x] -------------------------------------------------------------

    def _divmod(self, a: int, b: int) -> tuple[int, int]:
        """Canonical quotient and remainder of a by a canonical nonzero b.
        A step adds (p - c) x^k b, which cancels the top slot mod p for the
        quotient digit c; a slot takes at most deg b + 1 such terms, each
        below p^2, so only the remainder is reduced."""
        p, w, mask = self.p, self._w, self._mask
        top = w * self._deg(b)
        inv = pow(b >> top, -1, p)
        q = 0
        for s in range((a.bit_length() - 1) // w * w - top, -1, -w):
            c = (a >> s + top & mask) * inv % p
            if c:
                q |= c << s
                a += (p - c) * b << s
        return q, self._canon(a & (1 << top) - 1)

    def _monic(self, a: int) -> int:
        """Canonical a times the inverse of its leading coefficient."""
        lead = a >> self._w * self._deg(a) if a else 1
        return a if lead == 1 else self._canon(a * pow(lead, -1, self.p))

    def _gcd(self, a: int, b: int) -> int:
        """The monic gcd of canonical a and b, 0 when both are 0."""
        while b:
            a, b = b, self._divmod(a, b)[1]
        return self._monic(a)

    # -- in F_p[x]/(m) -----------------------------------------------------------

    def _reduce(self, v: int) -> int:
        """The canonical packed form of a sum of packed products: its slots
        n to 2n - 2, taken mod p, fold back as multiples of x^(n+i)."""
        high = self._canon(v >> self._w * self.n)
        return self._canon((v & self._low) + self._combine(high, self._fold))

    def _pow(self, a: int, e: int) -> int:
        """a^e for e >= 0, by square-and-multiply."""
        r = 1
        while e:
            if e & 1:
                r = self._reduce(r * a)
            e >>= 1
            if e:
                a = self._reduce(a * a)
        return r


def _ring(f: list[int], p: int) -> tuple[QuotientRing, int]:
    """F_p[x]/(f) for f of degree >= 1, and f made monic, packed."""
    R = QuotientRing(p, len(f) - 1)
    m = R._monic(R._pack(f))
    R._set_fold(m)
    return R, m


def is_squarefree(f: list[int], p: int) -> bool:
    f = normalize(f, p)
    if degree(f) <= 0:
        return bool(f)
    R = QuotientRing(p, len(f))
    return R._gcd(R._pack(f), R._pack(derivative(f, p))) == 1


def is_irreducible(f: list[int], p: int) -> bool:
    """Ben-Or's irreducibility test for a monic polynomial.

    A reducible f of degree n has an irreducible factor of some degree
    d <= n/2, which divides x^(p^d) - x; so f is irreducible iff
    gcd(x^(p^d) - x, f) = 1 for every d <= n/2.  The d run upward, with
    x^(p^d) = (x^(p^(d-1)))^p mod f, so most reducible f stop at a small d.
    """
    f = normalize(f, p)
    n = degree(f)
    if n <= 0:
        return False
    if n == 1:
        return True
    if f[-1] != 1:
        raise ValueError("irreducibility test expects a monic polynomial")
    R, m = _ring(f, p)
    h = x = 1 << R._w
    for _ in range(n // 2):
        h = R._pow(h, p)
        if R._gcd(m, R._canon(h + (p - 1) * x)) != 1:
            return False
    return True


def _monic_from_index(idx: int, n: int, p: int) -> list[int]:
    # Non-leading coefficients read off as base-p digits of idx.
    return QuotientRing(p, n)._digits(idx) + [1]


def least_irreducible(p: int, n: int) -> list[int]:
    """Lexicographically least monic irreducible of degree n over F_p.

    Candidates are ordered by the integer whose base-p digits are the
    non-leading coefficients (constant term least significant).  The
    search runs once per (p, n); each call returns a fresh list.
    """
    return _monic_from_index(_least_irreducible_index(p, n), n, p)


@lru_cache(maxsize=None)
def _least_irreducible_index(p: int, n: int) -> int:
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if n < 1:
        raise ValueError("degree must be >= 1")
    for idx in range(p**n):
        if is_irreducible(_monic_from_index(idx, n, p), p):
            return idx
    raise AssertionError("unreachable: irreducibles of every degree exist")


def ddf_pattern(f: list[int], p: int) -> list[int]:
    """Factorization degree pattern of a squarefree monic f via distinct-degree
    factorization: returns the sorted list of irreducible-factor degrees."""
    f = normalize(f, p)
    if degree(f) < 1:
        return []
    if not is_squarefree(f, p):
        raise ValueError("distinct-degree pattern requires a squarefree polynomial")
    R, m = _ring(f, p)
    pattern: list[int] = []
    d = 1
    # h = x^(p^d) mod f, updated incrementally; m, f with the factors of
    # degree below d divided out, divides f, so gcd(h - x, m) is read mod f
    h = x = 1 << R._w
    while R._deg(m) >= 2 * d:
        h = R._pow(h, p)
        g = R._gcd(m, R._canon(h + (p - 1) * x))
        if g != 1:
            pattern.extend([d] * (R._deg(g) // d))
            m = R._divmod(m, g)[0]
        d += 1
    if R._deg(m) > 0:
        pattern.append(R._deg(m))
    return sorted(pattern)


def roots_mod_p(f: list[int], p: int) -> list[int]:
    """Distinct roots of f mod p, sorted ascending: ffield.roots_in_field
    over F_p, the library's one equal-degree splitter for every p, with no
    residue scan.  The zero polynomial is a ValueError."""
    from .ffield import make_field, roots_in_field  # ffield builds on this module

    return [r.index() for r in roots_in_field(f, make_field(p, 1))]
