"""Finite fields F_{p^n}, their subfield lattice, and their automorphism
groups as explicit cyclic groups of Frobenius powers.

A field is determined by (p, n).  Its modulus is the least irreducible
monic polynomial of degree n over F_p (modpoly.least_irreducible), found
the first time element arithmetic needs it, so code that reads only the
degrees never runs the search.

An element is one int; its coefficient vector over Z/p, relative to the
field's modulus, is only the input and output form.  There is no implicit
coercion between fields.  Automorphisms are Frobenius powers, so Gal(L/K)
and the restriction of an automorphism of L to a subfield K depend only on
the degrees, and check_subfield is the one test that K is a subfield of L.
An explicit SubfieldEmbedding (the image of K's generator, found as a root
of K's modulus in L) is built only on request, by embed_subfield.

Up to the log-table limit the int is the discrete log to a generator g (-1
for zero): products, inverses and powers are integer operations on logs, a
sum is one lookup in Zech's logarithms zech[d] = log(1 + g^d), and frob^k
multiplies a log by p^k mod (q - 1).  Past the limit the int packs the
coefficients into slots of _w bits, a whole number of bytes (Kronecker
substitution): one int product holds the 2n - 1 coefficients of the
polynomial product, unreduced, and a reduction folds the high ones back
modulo the modulus and takes each slot mod p.  No step loops over the slots
in Python: for odd p one multiply by a fixed-point 1/p divides every third
slot by p at once, and for p < 256 the digits of a canonical value are
every (_w/8)-th byte of int.to_bytes, and a coefficient vector is packed
by int.from_bytes.  Frobenius powers are F_p-linear maps applied as cached
packed columns; sums and negation work slotwise on the int.  An inverse is
Itoh and Tsujii's: for r = (q - 1) / (p - 1), a^(r-1) takes about
2 log2(n) Frobenius maps and products, and the norm a^r is a constant,
inverted in F_p.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import compress
from operator import lshift, mul

from . import modpoly
from .zarith import factorize, is_prime

_LOG_TABLE_MAX = 1 << 15  # |F| up to which log/Zech tables are built

# Largest field order a descriptor may name.  The search for the least
# irreducible modulus grows without bound in n: 0.2 s at 2^64 and 0.03 s
# at 3^40, but 8 s at 2^128.
FIELD_ORDER_MAX = 1 << 64

# Products a packed slot has room for on top of a canonical value (see the
# slot width in FqField), so that sums of them are reduced once
_ACC_TERMS = 64


class FqField:
    """The field F_{p^n} presented as F_p[x]/(modulus), for the least
    irreducible monic modulus of degree n."""

    __slots__ = (
        "p", "n", "modulus", "order", "_log", "_antilog", "_zech", "_q1",
        "_zero_v", "_frob_cols", "_w", "_step", "_nbytes", "_shifts", "_powers",
        "_mask", "_low", "_fold", "_ones", "_top", "_divp", "_hash",
    )

    def __init__(self, p: int, n: int):
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        if n < 1:
            raise ValueError("extension degree must be >= 1")
        self.p = p
        self.n = n
        self.order = p**n
        self._q1 = self.order - 1
        self._log = self._antilog = self._zech = None  # built on first use
        self._zero_v = -1 if self.order <= _LOG_TABLE_MAX else 0
        self._frob_cols: dict[int, tuple] = {}
        # With canonical slots in [0, p - 1], a product of two packed values
        # puts at most n (p - 1)^2 in a slot, and one with (p - 1) times a
        # packed value at most n (p - 1)^3.  A slot holds a canonical value,
        # _ACC_TERMS such products and the n - 1 folded high slots of a
        # reduction without carrying into the next; and 2^(w-1) >= p, which
        # slotwise addition needs.  w is that bound rounded up to whole
        # bytes, so a canonical slot below 256 is one byte of the int.
        bound = (p - 1) + _ACC_TERMS * n * (p - 1) ** 3 + (n - 1) * (p - 1) ** 2
        w = self._w = -(-max(bound, 2 * p).bit_length() // 8) * 8
        self._step = w // 8
        self._nbytes = n * self._step
        self._shifts = tuple(range(0, w * n, w))
        self._powers = tuple(p**i for i in range(n))
        self._mask = (1 << w) - 1
        self._low = (1 << w * n) - 1
        self._ones = sum(1 << s for s in self._shifts)
        self._top = self._ones << w - 1
        # _canon's division by p: t // p = t M >> K for every t < 2^w, with
        # K = w + len(p) and M = ceil(2^K / p), since t M / 2^K exceeds t / p
        # by less than t p / (p 2^K) < 1 / p.  t M < 2^(2w+1), so the
        # products of every third slot, 3w bits apart, do not overlap; the
        # masks pick out slots 0, 3, 6, ..., then 1, 4, ..., then 2, 5, ...
        k = w + p.bit_length()
        self._divp = (-(-(1 << k) // p), k,
                      *(sum(self._mask << s for s in self._shifts[j::3]) for j in range(3)))
        self._hash = hash((p, n))
        self.__class__ = _Unsearched  # modulus and _fold stay unset until read

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

    # -- the int of an element ---------------------------------------------

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
                vec = modpoly.divmod_poly(vec, list(self.modulus), p)[1]
        if self._ensure_log_tables():
            return self._log[sum(map(mul, vec, self._powers))]
        return self._pack(vec)

    def _index_v(self, idx: int) -> int:
        """The int of the element whose coefficients are the base-p digits
        of idx."""
        idx %= self.order
        if self._ensure_log_tables():
            return self._log[idx]
        # a constant is its own packed form
        return idx if idx < self.p else self._pack(self._digits(idx))

    def _digits(self, idx: int) -> list[int]:
        """The n base-p digits of idx, least significant first."""
        p, out = self.p, []
        for _ in range(self.n):
            idx, c = divmod(idx, p)
            out.append(c)
        return out

    def _coeffs(self, v: int) -> tuple:
        if self._log is not None:
            return tuple(self._digits(self._antilog[v]))
        return tuple(self._read(v))

    def _index(self, v: int) -> int:
        return self._antilog[v] if self._log is not None else self._combine(v, self._powers)

    # -- arithmetic on the ints of elements, one branch per tier -----------

    def _add(self, a: int, b: int) -> int:
        if self._log is not None:
            if a < 0 or b < 0:
                return b if a < 0 else a
            z = self._zech[(b - a) % self._q1]
            return (a + z) % self._q1 if z >= 0 else -1
        # slotwise: slot i of t + 2^(w-1) - p has its top bit set iff t_i >= p
        p, t = self.p, a + b
        return t - p * ((t + self._top - p * self._ones & self._top) >> self._w - 1)

    def _neg(self, a: int) -> int:
        if self.p == 2 or a == self._zero_v:
            return a
        if self._log is not None:  # -1 = g^((q - 1) / 2)
            return (a + self._q1 // 2) % self._q1
        # p in each nonzero slot, minus a: slot i of a + 2^(w-1) - 1 has its
        # top bit set iff a_i != 0
        return self.p * ((a + self._top - self._ones & self._top) >> self._w - 1) - a

    def _mul(self, a: int, b: int) -> int:
        if self._log is not None:
            return -1 if a < 0 or b < 0 else (a + b) % self._q1
        return self._reduce(a * b)

    # -- packed arithmetic (every field; the elements' own past the limit) --

    def _pack(self, digits) -> int:
        """The packed value whose slot i holds digits[i], for digits below p
        (at most n of them); _read inverted."""
        if self.p < 256:
            buf = bytearray(len(digits) * self._step)
            buf[::self._step] = digits
            return int.from_bytes(buf, "little")
        w = self._w
        return sum(map(lshift, digits, range(0, w * len(digits), w)))

    def _read(self, v: int):
        """The n slots of a canonical packed value: for p < 256 every
        (w/8)-th byte of it, the lowest byte of each slot."""
        if self.p < 256:
            return v.to_bytes(self._nbytes, "little")[::self._step]
        mask = self._mask
        return [v >> s & mask for s in self._shifts]

    def _combine(self, v: int, cols: tuple) -> int:
        """The sum of cols[i] times slot i of a canonical v, unreduced."""
        digits = self._read(v)
        return sum(compress(cols, digits)) if self.p == 2 else sum(map(mul, digits, cols))

    def _canon(self, acc: int) -> int:
        """Each of the n slots of acc taken mod p: slot t loses p (t // p),
        with t // p found for every third slot at once by one multiply (see
        _divp in __init__)."""
        if self.p == 2:
            return acc & self._ones
        m, k, g0, g1, g2 = self._divp
        return acc - self.p * ((acc & g0) * m >> k & g0 | (acc & g1) * m >> k & g1
                               | (acc & g2) * m >> k & g2)

    def _reduce(self, v: int) -> int:
        """The canonical packed form of a sum of packed products: its slots
        n to 2n - 2, taken mod p, fold back as multiples of x^(n+i)."""
        high = self._canon(v >> self._w * self.n)
        return self._canon((v & self._low) + self._combine(high, self._fold))

    def _pow(self, a: int, e: int) -> int:
        if e < 0:
            a, e = self._inv(a), -e
        r = 1
        while e:
            if e & 1:
                r = self._reduce(r * a)
            e >>= 1
            if e:
                a = self._reduce(a * a)
        return r

    def _inv(self, a: int) -> int:
        """The inverse of a nonzero packed value, by Itoh and Tsujii: with
        r = (q - 1) / (p - 1), a^(r-1) is a Frobenius image and the norm
        N(a) = a^r lies in F_p*, so a^-1 = N(a)^-1 a^(r-1).  That costs
        about 2 log2(n) Frobenius maps and products."""
        if a == 1:  # as for the leading coefficient of a monic divisor
            return 1
        p = self.p
        if self.n == 1:
            return pow(a, p - 2, p)
        # b = a^(1 + p + ... + p^(k-1)) along the binary digits of n - 1,
        # by b_2k = b_k frob^k(b_k) and b_(k+1) = a frob(b_k)
        b, k = a, 1
        for bit in bin(self.n - 1)[3:]:
            b, k = self._reduce(b * self._frob(k, b)), 2 * k
            if bit == "1":
                b, k = self._reduce(a * self._frob(1, b)), k + 1
        c = self._frob(1, b)  # a^(p + ... + p^(n-1)) = a^(r-1)
        norm = self._reduce(a * c)  # a constant, its own packed form
        return self._canon(c * pow(norm, p - 2, p))

    def _frob(self, k: int, a: int) -> int:
        """x -> x^(p^k) on a packed value, as a matrix-vector product over
        F_p with the matrix's packed columns cached per k."""
        cols = self._frob_cols.get(k)
        if cols is None:
            # column i is the image of x^i, that is y^i for y = x^(p^k)
            y, cols = self._pow(1 << self._w, self.p**k), [1]
            for _ in range(self.n - 1):
                cols.append(self._reduce(cols[-1] * y))
            cols = self._frob_cols[k] = tuple(cols)
        return self._canon(self._combine(a, cols))

    # -- log tables ----------------------------------------------------------

    def _ensure_log_tables(self) -> bool:
        """Build the log tier's tables on first use; False past the limit.

        For the generator g: _antilog[k] is the index of g^k for
        0 <= k < q - 1, followed by 0 (the index of zero), so that
        _antilog[-1] is zero; _log[_antilog[k]] = k, with -1 as the log of
        zero; _zech[d] = log(1 + g^d), -1 where 1 + g^d = 0.
        """
        if self._log is not None:
            return True
        if self.order > _LOG_TABLE_MAX:
            return False
        p, q1, g = self.p, self._q1, self._find_generator()
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
        return True

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


class _Unsearched(FqField):
    """An FqField whose modulus has not been read yet.  Python reaches
    __getattr__ only for the unset modulus and _fold slots; the first read
    of either searches for the modulus, sets both and turns the field into
    a plain FqField.  The hook lives on this subclass because CPython 3.11
    does not specialise attribute reads on a class with __getattr__ (about
    2.6x the time of a slot read), and arithmetic reads the field's slots
    on every operation."""

    __slots__ = ()

    def __getattr__(self, name):
        if name not in ("modulus", "_fold"):
            raise AttributeError(name)
        p, n = self.p, self.n
        self.modulus = modulus = tuple(modpoly.least_irreducible(p, n))
        # _fold[i] is x^(n+i) mod the modulus, packed
        self._fold = tuple(self._pack(modpoly.divmod_poly([0] * i + [1], modulus, p)[1])
                           for i in range(n, 2 * n - 1))
        self.__class__ = FqField
        return getattr(self, name)


class FqElem:
    """An element of an FqField, held as one int: its discrete log (-1 for
    zero) up to the log-table limit, its packed coefficient vector past it.
    The coefficient tuple `coeffs` is derived from the int on request.
    Sums, negation and products are the field's _add, _neg and _mul on the
    ints, the same functions OrePoly applies to its coefficient ints."""

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
        F = self.field
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        if F._log is not None:
            return FqElem(F, -self.v % F._q1)
        return FqElem(F, F._inv(self.v))

    def __truediv__(self, other: "FqElem") -> "FqElem":
        return self * other.inverse()

    def __pow__(self, e: int) -> "FqElem":
        F = self.field
        if self.is_zero():
            if e < 0:
                raise ZeroDivisionError("inverse of zero")
            return F.one() if e == 0 else F.zero()
        if F._log is not None:
            return FqElem(F, self.v * e % F._q1)
        return FqElem(F, F._pow(self.v, e))

    def to_json(self) -> list[int]:
        return list(self.coeffs)


class FieldAut:
    """A field automorphism x -> x^(p^k), i.e. the k-th Frobenius power.

    On a log-tier element it multiplies the log by p^k modulo q - 1; past
    the log-table limit it applies the field's cached F_p-linear matrix for
    frob^k to the packed int, as one sum of packed columns reduced
    slotwise mod p.
    """

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
        F = self.field
        if F._log is not None:
            return x if x.v < 0 else FqElem(F, x.v * F.p**self.k % F._q1)
        return FqElem(F, F._frob(self.k, x.v))

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
    """All roots in L of a polynomial with prime-field coefficients.

    Used to construct subfield embeddings; small fields scan, large ones
    run deterministic equal-degree splitting in L[y], the twisted ring with
    the identity twist.
    """
    from .orepoly import OreRing, untwisted_roots  # orepoly builds on this module

    if not any(c % L.p for c in f_mod_p):
        raise ValueError("zero polynomial")
    if L.order <= 4096:
        return [x for x in L.elements() if _eval_in_big(f_mod_p, x).is_zero()]
    return untwisted_roots(OreRing(L, FieldAut(L, 0)).poly(f_mod_p))
