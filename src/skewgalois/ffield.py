"""Finite fields F_{p^n}, their subfield lattice, and their automorphism
groups as explicit cyclic groups of Frobenius powers.

A field is determined by (p, n); its modulus, the least irreducible monic
polynomial of degree n over F_p, is searched for, with its tier's tables,
once, when the first element is made.  An element is one int; its vector
over Z/p is only the input and output form, and no field coerces another's
elements.  Automorphisms are Frobenius powers, so Gal(L/K) and restriction
depend only on the degrees, and check_subfield is the one subfield test;
an explicit SubfieldEmbedding is built only on request.

The field's order fixes once what the int is, as the subclass (tier) the
field becomes; no operation tests the tier.  Up to the log-table limit (a
_LogField) it is the discrete log to a generator g (-1 for zero): products
and powers are integer operations on logs, a sum is one lookup in Zech's
logarithms zech[d] = log(1 + g^d), and frob^k multiplies a log by p^k mod
(q - 1).  Past it (a _PackedField) it is the packed vector of modpoly's
QuotientRing: a product is one int product and its _reduce, frob^k a
cached F_p-linear map, and sums work slotwise.  Each tier also supplies
the steps of orepoly's row kernels (RowSteps), which run by FqField's rule.

A polynomial's JSON coefficients convert once per polynomial, by the tier,
both ways (_vs_of, _coeff_lists).  For p < 256 a list of coefficient
lists, each of at most n digits in 0..p-1, is checked all at once; bare
ints, FqElems, digits out of range, longer lists and p >= 256 take _v_of,
one coefficient at a time.  A log-tier field reads digits off two tables,
for the low and the high half of an index's digits: O(sqrt q) entries.
"""

from __future__ import annotations

import math
from collections import namedtuple
from functools import lru_cache, reduce
from itertools import chain, compress, repeat
from operator import add, mul, pos, xor
from struct import unpack_from

from . import modpoly
from .zarith import factorize, is_prime

_LOG_TABLE_MAX = 1 << 15  # |F| up to which log/Zech tables are built

# Largest field order a descriptor may name.  The search for the least
# irreducible modulus grows without bound in n, if slowly: 4-6 ms at 2^64,
# 1.4-2 ms at 3^40 and 50 ms at 2^128 (Python 3.11, 2 shared CPUs).
FIELD_ORDER_MAX = 1 << 64

# The layout and steps of orepoly's row kernels, built on a field's first
# row call (_row_steps).  A row packs a polynomial into one int, coefficient
# j in the s-bit slot j.  layout(size) gives low, with the low w bits of
# each of size slots set (the low half for odd-p packed fields, which have
# one slice), and the settle of such a row; slice i of a row is
# (row >> w i) & low, digit i of every coefficient.  row and unrow take
# element ints to a row and the first size slots of a settled row back, and
# unkeys takes quotient keys to element ints.  twist(row, k, count, low)
# gives, for each m < count, the slices of frob^(k m) of the row.
# columns(v, k, negate) gives, for each v_l (-v_l with negate), the columns
# that the slices of frob^(k l) of a row are multiplied by for v_l times
# that, None for zero.  divide(t, k, count, low, b, s1) gives, for a row b of
# settled top slot t and each m < count, the d of quotient(t', d, j) for
# j = k m mod n and the slices of b and of the cofactor row s1 twisted by
# frob^j (() for s1 None); quotient gives the key c of a top slot t' over
# frob^j(t) and the columns of -c at power j, or None for t' = 0.
RowSteps = namedtuple("RowSteps", "s layout row unrow twist columns divide quotient unkeys")


def _canon_slots(p: int, w: int, slots: int):
    """The canon of row ints of up to slots w-bit slots, for odd p: every
    slot mod p, by modpoly._layout's one multiply for every third slot."""
    k = w + p.bit_length()
    m = -(-(1 << k) // p)
    g0 = int.from_bytes(((1 << w) - 1).to_bytes(3 * w // 8, "little") * -(-slots // 3), "little")
    g1, g2 = g0 << w, g0 << 2 * w

    def canon(row):
        return row - p * ((row & g0) * m >> k & g0 | (row & g1) * m >> k & g1
                          | (row & g2) * m >> k & g2)
    return canon


class FqField(modpoly.QuotientRing):
    """The field F_{p^n}: the modpoly.QuotientRing F_p[x]/(modulus) for the
    least irreducible monic modulus of degree n.  Its order fixes its tier,
    the subclass holding the arithmetic on element ints (_add, _neg, _mul,
    _inv, _power, _frob), the Ore kernels' vector steps (_twist, _addmul,
    _settle), the conversions of coefficient lists (_vec_vs, _coeff_lists)
    and the row steps (_row_steps).  A new field is _Unfinished.

    The Ore kernels run on rows when the operand they scale (g in f*g, the
    divisor, the chain's second input) has at least _row_min coefficients:
    1 for p = 2; for odd p, 8 max(n, 3) in the log tier for n <= 5, 8 for
    packed elements of up to 30 bytes and 24 up to 36 bytes; infinite
    otherwise, where a term's row work, growing as n^2, costs more than the
    lists' (orepoly's docstring records the crossovers)."""

    # the slots of both tiers, so that a field can change its class
    __slots__ = ("modulus", "order", "_powers", "_hash", "_zero_v", "_one_v",
                 "_q1", "_minus_one", "_log", "_antilog", "_zech", "_frob_cols",
                 "_xlogs", "_halves", "_row_min", "_rsteps", "_norm_inv")

    def __init__(self, p: int, n: int):
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        if n < 1:
            raise ValueError("extension degree must be >= 1")
        super().__init__(p, n)
        self.order = p**n
        self._powers = tuple(p**i for i in range(n))
        self._hash = hash((p, n))
        self.__class__ = _Unfinished

    # -- identity ---------------------------------------------------------

    def __eq__(self, other) -> bool:
        """A field is determined by p and n: its modulus is a function of them."""
        if self is other:
            return True
        return isinstance(other, FqField) and self.p == other.p and self.n == other.n

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"FqField({self.p}^{self.n})"

    def descriptor(self) -> str:
        return f"{self.p}^{self.n}"

    # -- element constructors ----------------------------------------------

    def element(self, coeffs) -> "FqElem":
        """An element given as an element of this field, an int (taken mod
        p) or a coefficient vector over Z/p (reduced mod the modulus)."""
        return FqElem(self, self._v_of(coeffs))

    def zero(self) -> "FqElem":
        return self.element(0)

    def one(self) -> "FqElem":
        return self.element(1)

    def gen(self) -> "FqElem":
        """The class of x (for n = 1 this is 1, the only generator needed)."""
        return self.from_index(self.p if self.n > 1 else 1)

    def elements(self):
        """All field elements in index order (base-p digits ascending)."""
        for idx in range(self.order):
            yield self.from_index(idx)

    def from_index(self, idx: int) -> "FqElem":
        """The element whose coefficients are the base-p digits of idx."""
        return FqElem(self, self._index_v(idx))

    def _v_of(self, coeffs) -> int:
        """The int of an element in any form that element() takes."""
        if isinstance(coeffs, FqElem):
            if coeffs.field is not self and coeffs.field != self:
                raise ValueError("element belongs to a different field")
            return coeffs.v
        p = self.p
        if isinstance(coeffs, int):
            vec = [coeffs % p]
        else:
            vec = [c % p for c in coeffs]
            if len(vec) > self.n:
                vec = self._read(self._divmod(self._pack(vec), self._pack(self.modulus))[1])
        return self._vec_vs((vec,))[0]

    def _vs_of(self, coeffs) -> list[int]:
        """The ints of a list of elements in the forms element() takes: by the
        tier's _vec_vs when one check passes for the whole list (see the
        module docstring), else by _v_of one element at a time."""
        if not isinstance(coeffs, (list, tuple)):
            coeffs = list(coeffs)  # read twice below
        try:
            whole = (self.p < 256 and max(map(len, coeffs), default=0) <= self.n
                     and not bytes(chain.from_iterable(coeffs)).translate(None, bytes(range(self.p))))
        except (TypeError, ValueError):  # an entry with no len, a digit not an int or past 255
            whole = False
        return self._vec_vs(coeffs) if whole else [self._v_of(c) for c in coeffs]

    def _coeffs(self, v: int) -> tuple:
        return tuple(self._coeff_lists((v,))[0])


class _Unfinished(FqField):
    """A field before its first element, with no modulus and no tables.
    Python reaches __getattr__ only for what it lacks, its tier's methods
    and the slots that finishing sets; the first such read finishes the
    field once and makes it an instance of its tier.  The hook lives on this
    class alone because CPython 3.11 does not specialise attribute reads on
    a class with __getattr__, and arithmetic reads slots on every operation."""

    __slots__ = ()

    def __getattr__(self, name):
        tier = _LogField if self.order <= _LOG_TABLE_MAX else _PackedField
        if not hasattr(tier, name):
            raise AttributeError(name)
        self.__class__ = tier
        self.modulus = tuple(modpoly.least_irreducible(self.p, self.n))
        self._set_fold(self._pack(self.modulus))
        self._finish()
        return getattr(self, name)


class _LogField(FqField):
    """A field of order up to _LOG_TABLE_MAX, whose element ints are
    discrete logs to a generator g, -1 for zero."""

    __slots__ = ()

    def _finish(self) -> None:
        """Build the tables.  For the generator g: _antilog[k] is the index
        of g^k for 0 <= k < q - 1, followed by 0 (the index of zero), so
        that _antilog[-1] is zero; _log[_antilog[k]] = k, with -1 as the log
        of zero; _zech[d] = log(1 + g^d), -1 where 1 + g^d = 0."""
        p, q1 = self.p, self.order - 1
        self._zero_v, self._one_v, self._q1 = -1, 0, q1
        self._minus_one = q1 // 2 if p != 2 else 0  # -1 = g^((q - 1) / 2)
        g = self._find_generator()
        if self.n == 1:
            antilog, x = [], 1
            for _ in range(q1):
                antilog.append(x)
                x = x * g % p
        else:
            antilog = self._powers_of(g)
        antilog.append(0)
        log = [-1] * self.order
        for k, t in zip(range(q1), antilog):
            log[t] = k
        # adding 1 raises the constant coefficient, the lowest base-p digit
        self._zech = [log[t - t % p + (t + 1) % p] for t in antilog[:q1]]
        self._antilog = antilog
        self._log = log
        if self.n > 1:  # the digits of i mod p^h, then of i div p^h
            h = self.n // 2
            self._halves = tuple([self._digits(i)[:k] for i in range(p**k)] for k in (h, self.n - h))
        # _row_min as FqField's docstring states it; rows read the logs of
        # frob^j(x^i) = x^(i p^j), an n by n table
        self._row_min = 1 if p == 2 else 8 * max(self.n, 3) if self.n <= 5 else math.inf
        self._rsteps = None
        xlogs = [log[e] for e in self._powers]  # x^i has index p^i
        self._xlogs = tuple(tuple(x * e % q1 for x in xlogs) for e in self._powers)

    def _powers_of(self, g: int) -> list[int]:
        """The indices of g^k for 0 <= k < q - 1, for n >= 2.

        x -> x*g is F_p-linear, so its value at the index l + p^h u (h = n/2,
        l < p^h) is the sum of two tabled values, at the low digits l and at
        the high digits u.  The tables hold narrow packed slots, s bits wide
        with room for a sum of two canonical values, and the next l and u are
        read off the low and the high slots of that sum through one table."""
        p, n, w = self.p, self.n, self._w
        h = n // 2
        s = (2 * p - 1).bit_length()  # 2^(s-1) >= p, as slotwise addition needs
        units = tuple(1 << s * i for i in range(n))
        ones = sum(units)
        top = ones << s - 1
        cols, col = [self._combine(g, units)], g  # narrow column i: x^i * g
        for _ in range(n - 1):
            col = self._reduce(col << w)
            cols.append(self._combine(col, units))

        # x*g at the indices of the low h digits, and of the high n - h
        low, high = [0], [0]
        for i, col in enumerate(cols):
            out = low if i < h else high
            block = out
            for _ in range(p - 1):  # block + col, slotwise mod p as in _add
                block = [t - p * ((t + top - p * ones & top) >> s - 1)
                         for t in [v + col for v in block]]
                out += block
        # read[t] is the number whose base-p digits are the lowest n - h
        # slots of t mod p; it serves both halves, since h <= n - h.  Slot
        # values past 2p - 2 never occur.
        digit = [d % p for d in range(2 * p - 1)] + [0] * ((1 << s) - 2 * p + 1)
        read = [0]
        for i in range(n - h):
            read = [v + d * p**i for d in digit for v in read]
        ph, mask, sh = p**h, (1 << s * h) - 1, s * h
        antilog, l, u = [], 1, 0
        for _ in range(self._q1):
            antilog.append(l + ph * u)
            t = low[l] + high[u]
            l, u = read[t & mask], read[t >> sh]
        return antilog

    def _find_generator(self) -> int:
        """The packed form of the least-index element of order q - 1."""
        p, q1 = self.p, self._q1
        prime_parts = [q1 // f for f, _ in factorize(q1)] if q1 > 1 else []
        # a constant has order dividing p - 1, so for n > 1 the search
        # starts at x, index p
        for idx in range(p if self.n > 1 else 1, self.order):
            cand = self._pack(self._digits(idx))
            if all(self._pow(cand, e) != 1 for e in prime_parts):
                return cand
        raise AssertionError("multiplicative group of a finite field is cyclic")

    def _vec_vs(self, vecs) -> list[int]:
        """The logs of coefficient lists of at most n digits below p."""
        log, powers = self._log, self._powers
        return [log[sum(map(mul, c, powers))] for c in vecs]

    def _index_v(self, idx: int) -> int:
        return self._log[idx % self.order]

    def _coeff_lists(self, vs) -> list[list[int]]:
        """The length-n coefficient lists of the logs vs, each read off its
        index as two halves of digits (see _finish)."""
        idx = map(self._antilog.__getitem__, vs)
        if self.n == 1:
            return [[i] for i in idx]
        lo, hi = self._halves
        ph = len(lo)
        return [lo[i % ph] + hi[i // ph] for i in idx]

    def _index(self, v: int) -> int:
        return self._antilog[v]

    def _add(self, a: int, b: int) -> int:
        if a < 0 or b < 0:
            return b if a < 0 else a
        z = self._zech[(b - a) % self._q1]
        return (a + z) % self._q1 if z >= 0 else -1

    def _neg(self, a: int) -> int:
        return a if a < 0 else (a + self._minus_one) % self._q1

    def _mul(self, a: int, b: int) -> int:
        return -1 if a < 0 or b < 0 else (a + b) % self._q1

    def _inv(self, a: int) -> int:
        return -a % self._q1

    def _power(self, a: int, e: int) -> int:
        """a^e for nonzero a and any integer e."""
        return a * e % self._q1

    def _frob(self, k: int, a: int) -> int:
        """x -> x^(p^k) for 0 <= k < n: the log times p^k."""
        return a * self._powers[k] % self._q1 if a >= 0 else -1

    # -- the Ore kernels' steps: on lists, then on rows (see RowSteps) --------

    def _twist(self, j: int, g) -> list[int]:
        """frob^j of every int in g (g itself when j = 0 mod n)."""
        j %= self.n
        if j == 0:
            return g
        e, q1 = self._powers[j], self._q1
        return [b * e % q1 if b >= 0 else -1 for b in g]

    def _addmul(self, acc: list, start: int, c: int, terms, negate: bool = False) -> None:
        """acc[start + j] += g^c terms[j], or -= with negate, for nonzero
        g^c: adding g^t to g^x gives g^(x + zech[t - x]), or zero where
        that entry is -1."""
        q1, zech = self._q1, self._zech
        if negate:
            c += self._minus_one
        for j, b in enumerate(terms, start):
            if b >= 0:
                x = acc[j]
                if x < 0:
                    acc[j] = (c + b) % q1
                else:
                    z = zech[(c + b - x) % q1]
                    acc[j] = (x + z) % q1 if z >= 0 else -1

    def _settle(self, acc):
        """A sum of logs is final as it is made, in a list or alone."""
        return acc

    _settle_v = _settle

    def _row_steps(self) -> RowSteps:
        """The row steps (see RowSteps), built on the first row call: w-bit
        sub-slot i of slot j holds base-p digit i of coefficient j's index,
        and a key is a log.  The columns of g^c frob^j, the row digits of
        g^c frob^j(x^i), sit in a column table at c + _xlogs[j][i], so twist
        leaves the slices as they are.  row joins the logs' columns; a slot
        times the reader's constant has its index in the low 16 bits.  For
        p = 2, w = 1, s = 16 and a slot is its index; for odd p, w has room
        for a digit plus _ACC_TERMS products of n (p - 1)^2, in whole bytes
        (16 bits for F_3 to F_7^5, 24 for F_31^3 to F_257, 40 for F_32749),
        and s = n w.  Each table is as long as _log."""
        if self._rsteps is not None:
            return self._rsteps
        p, n, q1, antilog, log = self.p, self.n, self._q1, self._antilog, self._log
        if p == 2:
            w, s, cols, index, at, canon = 1, 16, antilog, 1, 0, None
        else:
            bound = p - 1 + modpoly._ACC_TERMS * n * (p - 1) ** 2
            w = -(-bound.bit_length() // 8) * 8
            s, at, cols, canon = n * w, w * (n - 1), antilog, _canon_slots(p, w, n)
            if n > 1:
                lo, hi = self._halves
                h, ph = len(lo[0]), len(lo)
                low = [sum(d << w * i for i, d in enumerate(ds)) for ds in lo]
                high = [sum(d << w * i for i, d in enumerate(ds, h)) for ds in hi]
                cols = [low[a % ph] + high[a // ph] for a in antilog]
            index = sum(p**i << w * (n - 1 - i) for i in range(n))
        slot, xlogs, neg, powers = s // 8, self._xlogs, self._minus_one, self._powers
        slots, shifts = [c.to_bytes(slot, "little") for c in cols], range(0, n * w, w)
        unit, reader = ((1 << w) - 1).to_bytes(slot, "little"), f"H{slot - 2}x"

        def layout(size):
            return int.from_bytes(unit * size, "little"), (
                pos if p == 2 else _canon_slots(p, w, n * size))

        def twist(row, k, count, low):  # the columns carry the power of the twist
            return [[row >> x & low for x in shifts]] * count

        def divide(t, k, count, low, b, s1):
            return [(log[t * index >> at & 0xFFFF], [b >> x & low for x in shifts],
                     () if s1 is None else [s1 >> x & low for x in shifts])] * count

        def columns(v, k, negate):  # -g^a is g^(a + neg)
            if negate:
                v = [a + neg if a >= 0 else -1 for a in v]
            return [[cols[(a + x) % q1] for x in xlogs[k * l % n]] if a >= 0 else None
                    for l, a in enumerate(v)]

        def quotient(t, d, j):  # d is the log of the divisor's lead
            c = log[t] if p == 2 else log[canon(t) * index >> at & 0xFFFF]
            if c < 0:
                return None
            c = (c - d * powers[j]) % q1
            x = c + neg
            return c, [cols[(x + y) % q1] for y in xlogs[j]]

        def row(v):
            return int.from_bytes(b"".join(map(slots.__getitem__, v)), "little")

        def unrow(row, size):  # each index is below 2^15
            out = (row * index >> at).to_bytes((size + 1) * slot, "little")
            return list(map(log.__getitem__, unpack_from("<" + reader * size, out)))
        self._rsteps = RowSteps(s, layout, row, unrow, twist, columns, divide, quotient, list)
        return self._rsteps


class _PackedField(FqField):
    """A field past the log-table limit, whose element ints are packed
    coefficient vectors (see modpoly.QuotientRing)."""

    __slots__ = ()

    def _finish(self) -> None:
        self._zero_v, self._one_v = 0, 1
        self._frob_cols: dict[int, tuple] = {}
        nb = self._nbytes  # _row_min as FqField's docstring states it
        self._row_min = 1 if self.p == 2 else 8 if nb <= 30 else 24 if nb <= 36 else math.inf
        self._rsteps = self._norm_inv = None

    def _vec_vs(self, vecs) -> list[int]:
        return list(map(self._pack, vecs))

    def _index_v(self, idx: int) -> int:
        idx %= self.order
        # a constant is its own packed form
        return idx if idx < self.p else self._pack(self._digits(idx))

    def _coeff_lists(self, vs) -> list[list[int]]:
        return list(map(list, map(self._read, vs)))

    def _index(self, v: int) -> int:
        return self._combine(v, self._powers)

    def _add(self, a: int, b: int) -> int:
        # slotwise: slot i of t + 2^(w-1) - p has its top bit set iff t_i >= p
        p, t = self.p, a + b
        return t - p * ((t + self._top - p * self._ones & self._top) >> self._w - 1)

    def _neg(self, a: int) -> int:
        if self.p == 2:
            return a
        # p in each nonzero slot, minus a: slot i of a + 2^(w-1) - 1 has its
        # top bit set iff a_i != 0
        return self.p * ((a + self._top - self._ones & self._top) >> self._w - 1) - a

    def _mul(self, a: int, b: int) -> int:
        return self._reduce(a * b)

    def _inv(self, a: int) -> int:
        """The inverse of a nonzero packed value: for p = 2 by the extended
        Euclidean algorithm; for odd p by Itoh and Tsujii over F_(p^d), d the
        largest proper divisor of n with p^d <= 256 (or 1): a^-1 is
        N^-1 a^(r-1) for r = (q - 1) / (p^d - 1) and the norm N = a^r, with
        N^-1 kept per norm in _norm_inv beside d for d > 1, since that power
        costs more than the 2 log2(n / d) Frobenius maps it saves."""
        if a == 1:  # as for the leading coefficient of a monic divisor
            return 1
        p, n = self.p, self.n
        if p == 2:  # the rows' inverse, on the compact int of a one-slot row
            R = self._row_steps()
            return R.unrow(_binary_inverse(R.row([a]), self._compact_modulus()), 1)[0]
        if n == 1:
            return pow(a, p - 2, p)
        if self._norm_inv is None:
            self._norm_inv = max((e for e in range(1, n) if n % e == 0 and p**e <= 256),
                                 default=1), {}
        d, inverses = self._norm_inv
        # b = a^(1 + p^d + ... + p^(d(k-1))) along the binary digits of
        # n/d - 1, by b_2k = b_k frob^(dk)(b_k) and b_(k+1) = a frob^d(b_k)
        b, k = a, 1
        for bit in bin(n // d - 1)[3:]:
            b, k = self._reduce(b * self._frob(d * k, b)), 2 * k
            if bit == "1":
                b, k = self._reduce(a * self._frob(d, b)), k + 1
        c = self._frob(d, b)  # a^(p^d + ... + p^(n-d)) = a^(r-1)
        norm = self._reduce(a * c)
        if d == 1:  # a constant, its own packed form
            return self._canon(c * pow(norm, p - 2, p))
        if norm not in inverses:
            inverses[norm] = self._pow(norm, p**d - 2)
        return self._reduce(c * inverses[norm])

    def _power(self, a: int, e: int) -> int:
        """a^e for nonzero a and any integer e."""
        return self._pow(a, e) if e >= 0 else self._pow(self._inv(a), -e)

    def _frob(self, k: int, a: int) -> int:
        """x -> x^(p^k) as a matrix-vector product over F_p, with the
        matrix's packed columns cached per k."""
        cols = self._frob_cols.get(k) or self._frob_columns(k)
        return self._canon(self._combine(a, cols))

    def _frob_columns(self, k: int) -> tuple:
        """The packed columns of frob^k, cached: column i is the image of
        x^i, that is y^i for y = x^(p^k)."""
        y, cols = self._pow(1 << self._w, self.p**k), [1]
        for _ in range(self.n - 1):
            cols.append(self._reduce(cols[-1] * y))
        cols = self._frob_cols[k] = tuple(cols)
        return cols

    # -- the Ore kernels' steps: on lists, then on rows (see RowSteps) --------

    def _twist(self, j: int, g) -> list[int]:
        """frob^j of every int in g (g itself when j = 0 mod n)."""
        j %= self.n
        if j == 0:
            return g
        frob = self._frob
        return [frob(j, b) if b else 0 for b in g]

    def _addmul(self, acc: list, start: int, c: int, terms, negate: bool = False) -> None:
        """acc[start + j] += c terms[j], or -= with negate, as unreduced int
        products; -c is (p - 1) c.  A slot has room for _ACC_TERMS such
        products on top of a canonical value (see modpoly), so a caller
        settles acc before it takes more."""
        if negate:
            c *= self.p - 1
        end = start + len(terms)
        acc[start:end] = map(add, acc[start:end], map(c.__mul__, terms))

    def _settle(self, acc: list) -> list:
        return list(map(self._reduce, acc))

    _settle_v = modpoly.QuotientRing._reduce

    def _row_steps(self) -> RowSteps:
        """The row steps (see RowSteps), built on the first row call."""
        if self._rsteps is None:
            self._rsteps = self._bit_rows() if self.p == 2 else self._super_rows()
        return self._rsteps

    def _bit_rows(self) -> RowSteps:
        """The row steps for p = 2: slot j holds coefficient j's n F_2 digits,
        bit i that of x^i, and a key is that compact int.  twist takes n slice
        products with the compact columns of frob^j(x^i) per power, and the
        columns of c are c x^i.  divide gives per power the columns of frob^j
        of the lead's inverse, whose XOR over a slot's digits is a quotient.
        row reads the digit bytes of the coefficients by int(., 2)."""
        n, nb, step = self.n, self._nbytes, self._step
        modulus, top, fmt = self._compact_modulus(), 1 << n - 1, f"0{n}b"

        def bits(v):  # of elements v, most significant first, as b"01"
            return _join(reversed(v), nb, "big")[step - 1::step].translate(_TO_01)

        def keys(v):
            b = bits(v)
            return [int(b[i - n:i], 2) for i in range(len(b), 0, -n)]

        @lru_cache(maxsize=None)
        def frob(j):
            return keys(self._frob_cols.get(j) or self._frob_columns(j))

        def twist(row, k, count, low):
            out = [[row >> i & low for i in range(n)]]
            for m in range(1, count):  # k m is not 0 mod n below the period
                t = reduce(xor, map(mul, out[0], frob(k * m % n)))
                out.append([t >> i & low for i in range(n)])
            return out[:count]

        def times_x(c):  # the columns c x^i
            out = [c]
            for _ in range(n - 1):
                c = c << 1 ^ modulus if c & top else c << 1
                out.append(c)
            return out

        def columns(v, k, negate):
            return [times_x(c) if c else None for c in keys(v)]

        def divide(t, k, count, low, b, s1):
            inv = _binary_inverse(t, modulus)
            d = format(inv, fmt).encode().translate(_FROM_01)[::-1]  # its bits, lowest first
            inverses = [times_x(reduce(xor, compress(frob(k * m % n), d)) if m else inv)[::-1]
                        for m in range(count)]
            return list(zip(inverses, twist(b, k, count, low),
                            repeat(()) if s1 is None else twist(s1, k, count, low)))

        def quotient(t, d, j):
            c = reduce(xor, compress(d, format(t, fmt).encode().translate(_FROM_01)), 0)
            return (c, times_x(c)) if c else None

        def layout(size):
            return ((1 << n * size) - 1) // ((1 << n) - 1), pos

        def row(v):
            return int(bits(v) or b"0", 2)

        def elements(b):  # of b"01" digits, most significant first
            buf = bytearray(len(b) // n * nb)
            buf[step - 1::step] = b.translate(_FROM_01)
            return _split(buf, nb, nb, "big")[::-1]

        def unkeys(cs):
            return elements("".join(map(format, reversed(cs), repeat(fmt))).encode())

        def unrow(row, size):
            return elements(format(row, f"0{n * size}b").encode()) if size else []
        return RowSteps(n, layout, row, unrow, twist, columns, divide, quotient, unkeys)

    def _super_rows(self) -> RowSteps:
        """The row steps for odd p: slot j, s = 2 n w bits wide (a
        super-slot), holds coefficient j's packed int in its low half, and a
        key is that int.  c times a row is one int product, each c g_j in its
        own super-slot, which has room for _ACC_TERMS of them, so the one
        column is c, or (p - 1) c (compare the skew product of Caruso and Le
        Borgne, ISSAC 2017).  A settle folds every high half H, mod p, back
        as H (x^n mod m), one product a round, two at most (x^n mod m has
        degree <= 3 on rows); twist and divide map by frob^j once per power."""
        p, n, w, nb, reduce_ = self.p, self.n, self._w, self._nbytes, self._reduce
        s, sb, xn = 2 * n * w, 2 * nb, self._fold[0] if n > 1 else 0
        half = b"\xff" * nb + bytes(nb)  # the low n slots of a super-slot
        lowest = half[:w // 8] + bytes(sb - w // 8)  # its slot 0

        def layout(size):
            low, canon = int.from_bytes(half * size, "little"), shape(size)[1]

            def settle(row):  # a round adds n - 1 products to a slot, as _reduce
                high, row = canon(row >> n * w & low), row & low
                while True:
                    row = canon(row + high * xn)
                    high = row >> n * w & low
                    if not high:
                        return row
                    row &= low
            return low, settle

        @lru_cache(maxsize=1)
        def shape(size):  # slot 0 of each super-slot, and the canon of size super-slots
            return int.from_bytes(lowest * size, "little"), _canon_slots(p, w, 2 * n * size)

        def twist(row, k, count, low):
            out = [[row & low]]
            if count > 1:
                slot0, canon = shape(-(-low.bit_length() // s))
                slices = [row >> x & slot0 for x in range(0, n * w, w)]
                for j in (k * m % n for m in range(1, count)):
                    cols = self._frob_cols.get(j) or self._frob_columns(j)
                    out.append([canon(sum(map(mul, slices, cols)))])
            return out

        def columns(v, k, negate):
            c = p - 1 if negate else 1
            return [[a * c] if a else None for a in v]

        def divide(t, k, count, low, b, s1):
            inv = self._inv(t)
            leads = [inv, *(self._frob(k * m % n, inv) for m in range(1, count))]
            return list(zip(leads, twist(b, k, count, low),
                            repeat(()) if s1 is None else twist(s1, k, count, low)))

        def quotient(t, d, j):
            t = reduce_(t)
            return (c := reduce_(t * d), [c * (p - 1)]) if t else None

        def row(v):
            return int.from_bytes(_join(v, sb, "little"), "little")

        def unrow(row, size):
            return _split(row.to_bytes(size * sb, "little"), nb, sb, "little")
        return RowSteps(s, layout, row, unrow, twist, columns, divide, quotient, list)

    def _compact_modulus(self) -> int:
        """The modulus with bit i its coefficient of x^i."""
        return int(bytes(self.modulus[::-1]).translate(_TO_01), 2)


_TO_01, _FROM_01 = bytes.maketrans(b"\0\1", b"01"), bytes.maketrans(b"01", b"\0\1")


def _join(vs, width: int, order: str) -> bytes:
    """The ints vs, each as width bytes in the byte order given, joined."""
    return b"".join(map(int.to_bytes, vs, repeat(width), repeat(order)))


def _split(b, width: int, stride: int, order: str) -> list[int]:
    """The ints of the first width bytes of every stride bytes of b."""
    return [int.from_bytes(b[i:i + width], order) for i in range(0, len(b), stride)]


def _binary_inverse(a: int, m: int) -> int:
    """The inverse of a nonzero a mod an irreducible m, compact polynomials
    over F_2 with deg a < deg m: u = a g1 and v = a g2 mod m until u = 1."""
    u, v, g1, g2 = a, m, 1, 0
    while u != 1:
        j = u.bit_length() - v.bit_length()
        if j < 0:
            u, v, g1, g2, j = v, u, g2, g1, -j
        u ^= v << j
        g1 ^= g2 << j
    return g1


class FqElem:
    """An element of an FqField, held as one int (see the module docstring);
    the coefficient tuple `coeffs` is derived from it on request.  Every
    operation is one call of the field's tier (_add, _neg, _mul, _inv,
    _power), the same functions OrePoly applies to its coefficient ints."""

    __slots__ = ("field", "v")

    def __init__(self, field: FqField, v: int):
        self.field = field
        self.v = v

    @property
    def coeffs(self) -> tuple:
        """The reduced length-n coefficient vector, ascending."""
        return self.field._coeffs(self.v)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FqElem)
            and self.v == other.v
            and (self.field is other.field or self.field == other.field)
        )

    def __hash__(self) -> int:
        return hash((self.field._hash, self.v))

    def __repr__(self) -> str:
        return f"FqElem({self.field.descriptor()}, {list(self.coeffs)})"

    def is_zero(self) -> bool:
        return self.v == self.field._zero_v

    def index(self) -> int:
        return self.field._index(self.v)

    def _check(self, other: "FqElem"):
        if not isinstance(other, FqElem) or (
            other.field is not self.field and other.field != self.field
        ):
            raise ValueError("operands belong to different fields")

    def __add__(self, other: "FqElem") -> "FqElem":
        self._check(other)
        return FqElem(self.field, self.field._add(self.v, other.v))

    def __neg__(self) -> "FqElem":
        return FqElem(self.field, self.field._neg(self.v))

    def __sub__(self, other: "FqElem") -> "FqElem":
        return self + (-other)

    def __mul__(self, other: "FqElem") -> "FqElem":
        self._check(other)
        return FqElem(self.field, self.field._mul(self.v, other.v))

    def inverse(self) -> "FqElem":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        return FqElem(self.field, self.field._inv(self.v))

    def __truediv__(self, other: "FqElem") -> "FqElem":
        return self * other.inverse()

    def __pow__(self, e: int) -> "FqElem":
        F = self.field
        if self.is_zero():
            if e < 0:
                raise ZeroDivisionError("inverse of zero")
            return F.one() if e == 0 else F.zero()
        return FqElem(F, F._power(self.v, e))

    def to_json(self) -> list[int]:
        return list(self.coeffs)


class FieldAut:
    """A field automorphism x -> x^(p^k), i.e. the k-th Frobenius power,
    applied as the field's _frob on the int of an element."""

    __slots__ = ("field", "k")

    def __init__(self, field: FqField, k: int):
        self.field = field
        self.k = k % field.n

    @property
    def order(self) -> int:
        return self.field.n // math.gcd(self.field.n, self.k)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FieldAut)
            and self.k == other.k
            and (self.field is other.field or self.field == other.field)
        )

    def __hash__(self) -> int:
        return hash((self.field._hash, "frob", self.k))

    def __repr__(self) -> str:
        return f"FieldAut({self.field.descriptor()}, frob^{self.k})"

    def __call__(self, x: FqElem) -> FqElem:
        if x.field != self.field:
            raise ValueError("element belongs to a different field")
        if self.k == 0:
            return x
        return FqElem(self.field, self.field._frob(self.k, x.v))

    def compose(self, other: "FieldAut") -> "FieldAut":
        """self after other; exponents add mod n."""
        if other.field != self.field:
            raise ValueError("automorphisms of different fields")
        return FieldAut(self.field, self.k + other.k)

    def inverse_aut(self) -> "FieldAut":
        return FieldAut(self.field, -self.k)

    def is_identity(self) -> bool:
        return self.k == 0

    def to_json(self) -> dict:
        return {"frob": self.k}


class SubfieldEmbedding:
    """An explicit ring embedding of a small field into a big one, recorded
    by the image of the small field's generator."""

    __slots__ = ("small", "big", "image_of_gen")

    def __init__(self, small: FqField, big: FqField, image_of_gen: FqElem):
        check_subfield(small, big)
        if image_of_gen.field != big:
            raise ValueError("generator image must live in the big field")
        # the image must be a root of the small field's modulus
        val = _eval_in_big(list(small.modulus), image_of_gen)
        if not val.is_zero():
            raise ValueError("generator image is not a root of the small modulus")
        self.small = small
        self.big = big
        self.image_of_gen = image_of_gen
        self._spot_check()

    def _spot_check(self):
        # ring-homomorphism sanity on a deterministic sample of pairs
        sample = [self.small.from_index(i % self.small.order) for i in (0, 1, 2, 3, 5, 7)]
        for a in sample:
            for b in sample:
                if self.map(a * b) != self.map(a) * self.map(b):
                    raise AssertionError("embedding failed multiplicativity check")
                if self.map(a + b) != self.map(a) + self.map(b):
                    raise AssertionError("embedding failed additivity check")

    @property
    def degree(self) -> int:
        """[big : small]."""
        return self.big.n // self.small.n

    def map(self, x: FqElem) -> FqElem:
        if x.field != self.small:
            raise ValueError("element not in the small field")
        return _eval_in_big(list(x.coeffs), self.image_of_gen)

    def image_set(self) -> set:
        return {self.map(e) for e in self.small.elements()}

    def __repr__(self) -> str:
        return f"SubfieldEmbedding({self.small.descriptor()} -> {self.big.descriptor()})"


def _eval_in_big(coeffs: list[int], at: FqElem) -> FqElem:
    big = at.field
    acc = big.zero()
    for c in reversed(coeffs):
        acc = acc * at + big.element(c)
    return acc


# -- public operations ------------------------------------------------------


@lru_cache(maxsize=None)
def make_field(p: int, n: int) -> FqField:
    """The field F_{p^n}, one object per (p, n).  Its modulus, the least
    irreducible monic polynomial of degree n, is found on first use."""
    return FqField(p, n)


def parse_descriptor(desc: str) -> tuple[int, int]:
    """Parse a field descriptor "p^n" (plain "p" means n = 1); the order
    p^n may be at most FIELD_ORDER_MAX."""
    if "^" in desc:
        ps, ns = desc.split("^", 1)
    else:
        ps, ns = desc, "1"
    p, n = int(ps), int(ns)
    if p < 2 or n < 1:
        raise ValueError(f"bad field descriptor {desc!r}")
    # n > 64 is past the cap for every p >= 2; test it before forming p^n
    if n > 64 or p**n > FIELD_ORDER_MAX:
        raise ValueError(f"field order {desc} exceeds the cap 2^64")
    return p, n


def field_from_descriptor(desc: str) -> FqField:
    return make_field(*parse_descriptor(desc))


def frobenius(F: FqField, k: int) -> FieldAut:
    """The automorphism x -> x^(p^k); its order is n / gcd(n, k)."""
    return FieldAut(F, k)


def check_subfield(K: FqField, L: FqField) -> None:
    """Raise ValueError unless K is a subfield of L: the same characteristic
    and a degree dividing L's.  A subfield of a finite field is determined
    by its degree alone, so no embedding needs to be built to decide it."""
    if K.p != L.p or L.n % K.n:
        raise ValueError("no embedding: degree or characteristic mismatch")


def embed_subfield(small: FqField, big: FqField) -> SubfieldEmbedding:
    """Canonical embedding: the generator maps to the least root of the
    small modulus in the big field (lexicographic on coefficient vectors)."""
    check_subfield(small, big)
    if small == big:
        # the canonical root of the field's own modulus: the class of x,
        # which for a prime field (modulus x) is 0
        image = big.gen() if big.n > 1 else big.zero()
        return SubfieldEmbedding(small, big, image)
    roots = roots_in_field(list(small.modulus), big)
    if not roots:
        raise AssertionError("modulus of a subfield degree must split")
    best = min(roots, key=lambda r: r.coeffs[::-1])
    return SubfieldEmbedding(small, big, best)


def galois_group(L: FqField, K: FqField) -> list[FieldAut]:
    """Gal(L/K) as Frobenius powers; the first element listed is the
    canonical generator Frob^[K:prime field] (the relative Frobenius)."""
    check_subfield(K, L)
    m = K.n
    return [FieldAut(L, m * j) for j in range(1, L.n // m + 1)]


def restrict_aut(a: FieldAut, K: FqField) -> FieldAut:
    """Restriction to the subfield K: the Frobenius exponent reduced
    mod [K : prime field]."""
    check_subfield(K, a.field)
    return FieldAut(K, a.k % K.n)


# -- root finding over an extension field ------------------------------------


def roots_in_field(f_mod_p: list[int], L: FqField) -> list["FqElem"]:
    """All roots in L of a polynomial with prime-field coefficients, sorted
    by their reversed coefficient vectors; the zero polynomial is a
    ValueError.  Every field, however small, runs the library's one root
    finder, with no element scan: orepoly.untwisted_roots in L[y]."""
    from .orepoly import OreRing, untwisted_roots  # orepoly builds on this module

    if not any(c % L.p for c in f_mod_p):
        raise ValueError("zero polynomial")
    return untwisted_roots(OreRing(L, FieldAut(L, 0)).poly(f_mod_p))
