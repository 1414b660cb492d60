"""Finite fields F_{p^n} with explicit moduli, their subfield lattice, and
their automorphism groups as explicit cyclic groups of Frobenius powers.

Elements are length-n coefficient vectors over Z/p relative to the field's
modulus.  Cross-field movement always goes through an explicit
SubfieldEmbedding; there is no implicit coercion, so restriction maps are
ordinary values that can be composed and tested.

Arithmetic has two tiers.  A field of order up to the log-table limit
lazily builds, for a generator g, log and antilog tables and Zech's
logarithms zech[d] = log(1 + g^d), so products, inverses, powers and sums
of nonzero elements are integer operations on logs, and the Frobenius
power x -> x^(p^k) multiplies a log by p^k mod (q - 1).  Past the limit,
multiplication and inversion work on polynomials modulo the field's
modulus, so towers like F_{3^32} stay usable, and frob^k is an F_p-linear
map applied as a cached n-by-n matrix over F_p.
"""

from __future__ import annotations

import math
from functools import lru_cache
from operator import mul

from . import modpoly
from .zarith import factorize, is_prime

_LOG_TABLE_MAX = 1 << 15  # |F| up to which log/Zech tables are built


class FqField:
    """The field F_{p^n} presented as F_p[x]/(modulus)."""

    __slots__ = (
        "p", "n", "modulus", "order", "_log", "_antilog", "_zech",
        "_frob_cols", "_slot_shifts", "_slot_mask", "_hash",
    )

    def __init__(self, p: int, n: int, modulus: list[int]):
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        if n < 1:
            raise ValueError("extension degree must be >= 1")
        modulus = modpoly.normalize(modulus, p)
        if modpoly.degree(modulus) != n or modulus[-1] != 1:
            raise ValueError("modulus must be monic of the stated degree")
        if not modpoly.is_irreducible(modulus, p):
            raise ValueError("modulus is reducible")
        self.p = p
        self.n = n
        self.modulus = tuple(modulus)
        self.order = p**n
        self._log: dict | None = None
        self._antilog: list | None = None
        self._zech: list | None = None
        self._frob_cols: dict[int, tuple] = {}
        # a matrix column packs its n coordinates into one int, a slot per
        # coordinate wide enough to hold a sum of n products (p-1)^2
        width = (n * (p - 1) ** 2).bit_length()
        self._slot_shifts = tuple(width * j for j in range(n))
        self._slot_mask = (1 << width) - 1
        self._hash = hash((p, n, self.modulus))

    # -- identity ---------------------------------------------------------

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        return (
            isinstance(other, FqField)
            and self.p == other.p
            and self.n == other.n
            and self.modulus == other.modulus
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"FqField({self.p}^{self.n})"

    def descriptor(self) -> str:
        return f"{self.p}^{self.n}"

    # -- element constructors ----------------------------------------------

    def element(self, coeffs) -> "FqElem":
        if isinstance(coeffs, FqElem):
            if coeffs.field != self:
                raise ValueError("element belongs to a different field")
            return coeffs
        if isinstance(coeffs, int):
            vec = [coeffs % self.p] + [0] * (self.n - 1)
            return FqElem(self, tuple(vec))
        vec = [c % self.p for c in coeffs]
        if len(vec) > self.n:
            vec = modpoly.divmod_poly(vec, list(self.modulus), self.p)[1]
        vec = vec + [0] * (self.n - len(vec))
        return FqElem(self, tuple(vec))

    def zero(self) -> "FqElem":
        return self.element(0)

    def one(self) -> "FqElem":
        return self.element(1)

    def gen(self) -> "FqElem":
        """The class of x (for n = 1 this is 1, the only generator needed)."""
        if self.n == 1:
            return self.one()
        return self.element([0, 1])

    def elements(self):
        """All field elements in index order (base-p digits ascending)."""
        for idx in range(self.order):
            vec = []
            k = idx
            for _ in range(self.n):
                vec.append(k % self.p)
                k //= self.p
            yield FqElem(self, tuple(vec))

    def from_index(self, idx: int) -> "FqElem":
        vec = []
        for _ in range(self.n):
            vec.append(idx % self.p)
            idx //= self.p
        return FqElem(self, tuple(vec))

    # -- raw coefficient arithmetic -----------------------------------------

    def _raw_mul(self, a: tuple, b: tuple) -> tuple:
        prod = modpoly.mul(list(a), list(b), self.p)
        rem = modpoly.divmod_poly(prod, list(self.modulus), self.p)[1]
        return tuple(rem + [0] * (self.n - len(rem)))

    def _raw_pow(self, a: tuple, e: int) -> tuple:
        if e < 0:
            return self._raw_pow(self._raw_inv(a), -e)
        result = self.one().coeffs
        base = a
        while e:
            if e & 1:
                result = self._raw_mul(result, base)
            base = self._raw_mul(base, base)
            e >>= 1
        return result

    def _raw_inv(self, a: tuple) -> tuple:
        if not any(a):
            raise ZeroDivisionError("inverse of zero")
        # extended Euclid in F_p[x] against the modulus
        p = self.p
        r0, r1 = list(self.modulus), modpoly.normalize(list(a), p)
        s0, s1 = [], [1]
        while r1:
            q, r = modpoly.divmod_poly(r0, r1, p)
            r0, r1 = r1, r
            s0, s1 = s1, modpoly.sub(s0, modpoly.mul(q, s1, p), p)
        inv_c = pow(r0[0], -1, p)
        s0 = modpoly.scalar_mul(inv_c, s0, p)
        return tuple(s0 + [0] * (self.n - len(s0)))

    # -- caches ------------------------------------------------------------

    def _ensure_log_tables(self) -> bool:
        """Build the log tier's tables on first use; False past the limit.

        For the generator g: _antilog[k] = g^k for 0 <= k < q - 1, followed
        by zero, so that _antilog[-1] is zero; _log inverts it, with -1 as
        the log of zero; _zech[d] = log(1 + g^d), -1 where 1 + g^d = 0.
        """
        if self._log is not None:
            return True
        if self.order > _LOG_TABLE_MAX:
            return False
        q1 = self.order - 1
        # x -> x*g is F_p-linear: column i of its matrix is x^i * g
        cols = self._packed_columns(self._find_generator(), self.gen().coeffs)
        antilog = [self.one().coeffs]
        for _ in range(q1 - 1):
            antilog.append(self._apply_columns(cols, antilog[-1]))
        zero = self.zero().coeffs
        antilog.append(zero)
        log = {t: k for k, t in enumerate(antilog)}
        log[zero] = -1
        p = self.p
        self._zech = [log[((t[0] + 1) % p,) + t[1:]] for t in antilog[:q1]]
        self._antilog = antilog
        self._log = log
        return True

    def _find_generator(self) -> tuple:
        q1 = self.order - 1
        prime_parts = [q1 // f for f, _ in factorize(q1)] if q1 > 1 else []
        for idx in range(1, self.order):
            cand = self.from_index(idx).coeffs
            if not any(cand):
                continue
            if all(self._raw_pow(cand, e) != self.one().coeffs for e in prime_parts):
                return cand
        raise AssertionError("multiplicative group of a finite field is cyclic")

    def _frobenius_linear(self, k: int, a: tuple) -> tuple:
        """x -> x^(p^k) on a coefficient vector, as a matrix-vector product
        over F_p with the matrix cached per k."""
        cols = self._frob_cols.get(k)
        if cols is None:
            # column i is the image of x^i, that is y^i for y = x^(p^k)
            y = self._raw_pow(self.gen().coeffs, self.p**k)
            cols = self._frob_cols[k] = self._packed_columns(self.one().coeffs, y)
        return self._apply_columns(cols, a)

    def _packed_columns(self, first: tuple, ratio: tuple) -> tuple:
        """The matrix whose column i is first * ratio^i, each column packed
        into one int (see _slot_shifts)."""
        cols, col = [], first
        for _ in range(self.n):
            cols.append(sum(c << s for c, s in zip(col, self._slot_shifts)))
            col = self._raw_mul(col, ratio)
        return tuple(cols)

    def _apply_columns(self, cols: tuple, a: tuple) -> tuple:
        """The product of a packed-column matrix with a coefficient vector."""
        acc = sum(map(mul, a, cols))
        p, mask = self.p, self._slot_mask
        return tuple([(acc >> s & mask) % p for s in self._slot_shifts])


class FqElem:
    """An element of an FqField: a reduced length-n coefficient vector."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: FqField, coeffs: tuple):
        self.field = field
        self.coeffs = coeffs

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FqElem)
            and self.coeffs == other.coeffs
            and (self.field is other.field or self.field == other.field)
        )

    def __hash__(self) -> int:
        return hash((self.field._hash, self.coeffs))

    def __repr__(self) -> str:
        return f"FqElem({self.field.descriptor()}, {list(self.coeffs)})"

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def index(self) -> int:
        idx = 0
        for c in reversed(self.coeffs):
            idx = idx * self.field.p + c
        return idx

    def _check(self, other: "FqElem"):
        if not isinstance(other, FqElem) or (
            other.field is not self.field and other.field != self.field
        ):
            raise ValueError("operands belong to different fields")

    def __add__(self, other: "FqElem") -> "FqElem":
        self._check(other)
        F = self.field
        if F._log is not None or F._ensure_log_tables():
            a, b = F._log[self.coeffs], F._log[other.coeffs]
            if a < 0 or b < 0:
                return other if a < 0 else self
            z = F._zech[(b - a) % (F.order - 1)]
            return FqElem(F, F._antilog[(a + z) % (F.order - 1) if z >= 0 else -1])
        p = F.p
        return FqElem(F, tuple([(a + b) % p for a, b in zip(self.coeffs, other.coeffs)]))

    def __neg__(self) -> "FqElem":
        p = self.field.p
        if p == 2:
            return self
        return FqElem(self.field, tuple([(-a) % p for a in self.coeffs]))

    def __sub__(self, other: "FqElem") -> "FqElem":
        return self + (-other)

    def __mul__(self, other: "FqElem") -> "FqElem":
        self._check(other)
        F = self.field
        if F._log is not None or F._ensure_log_tables():
            a, b = F._log[self.coeffs], F._log[other.coeffs]
            if a < 0 or b < 0:
                return F.zero()
            return FqElem(F, F._antilog[(a + b) % (F.order - 1)])
        return FqElem(F, F._raw_mul(self.coeffs, other.coeffs))

    def inverse(self) -> "FqElem":
        F = self.field
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        if F._log is not None or F._ensure_log_tables():
            return FqElem(F, F._antilog[-F._log[self.coeffs] % (F.order - 1)])
        return FqElem(F, F._raw_inv(self.coeffs))

    def __truediv__(self, other: "FqElem") -> "FqElem":
        return self * other.inverse()

    def __pow__(self, e: int) -> "FqElem":
        F = self.field
        if self.is_zero():
            if e < 0:
                raise ZeroDivisionError("inverse of zero")
            return F.one() if e == 0 else F.zero()
        if F._log is not None or F._ensure_log_tables():
            return FqElem(F, F._antilog[F._log[self.coeffs] * e % (F.order - 1)])
        return FqElem(F, F._raw_pow(self.coeffs, e))

    def to_json(self) -> list[int]:
        return list(self.coeffs)


class FieldAut:
    """A field automorphism x -> x^(p^k), i.e. the k-th Frobenius power.

    In the log tier it multiplies the log of x by p^k modulo q - 1; past
    the log-table limit, the field's cached F_p-linear matrix for frob^k
    maps the coefficient vector.
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
        if F._log is not None or F._ensure_log_tables():
            lg = F._log[x.coeffs]
            return x if lg < 0 else FqElem(F, F._antilog[lg * F.p**self.k % (F.order - 1)])
        return FqElem(F, F._frobenius_linear(self.k, x.coeffs))

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

    __slots__ = ("small", "big", "image_of_gen", "_map_cache")

    def __init__(self, small: FqField, big: FqField, image_of_gen: FqElem):
        if small.p != big.p:
            raise ValueError("subfield embedding requires equal characteristic")
        if big.n % small.n != 0:
            raise ValueError(
                f"degree {small.n} does not divide {big.n}: no embedding exists"
            )
        if image_of_gen.field != big:
            raise ValueError("generator image must live in the big field")
        # the image must be a root of the small field's modulus
        val = _eval_in_big(list(small.modulus), image_of_gen)
        if not val.is_zero():
            raise ValueError("generator image is not a root of the small modulus")
        self.small = small
        self.big = big
        self.image_of_gen = image_of_gen
        self._map_cache: dict = {}
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
        cached = self._map_cache.get(x.coeffs)
        if cached is not None:
            return cached
        y = _eval_in_big(list(x.coeffs), self.image_of_gen)
        if len(self._map_cache) < _LOG_TABLE_MAX:
            self._map_cache[x.coeffs] = y
        return y

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
def make_field(p: int, n: int, seed: int = 0) -> FqField:
    """Field with a deterministically chosen irreducible modulus.

    Seed 0 picks the lexicographically least irreducible monic polynomial;
    other seeds run a reproducible pseudorandom search.
    """
    modulus = modpoly.seeded_irreducible(p, n, seed)
    return FqField(p, n, modulus)


def parse_descriptor(desc: str) -> tuple[int, int]:
    """Parse a field descriptor "p^n" (plain "p" means n = 1)."""
    if "^" in desc:
        ps, ns = desc.split("^", 1)
    else:
        ps, ns = desc, "1"
    p, n = int(ps), int(ns)
    if p < 2 or n < 1:
        raise ValueError(f"bad field descriptor {desc!r}")
    return p, n


def field_from_descriptor(desc: str, seed: int = 0) -> FqField:
    p, n = parse_descriptor(desc)
    return make_field(p, n, seed)


def frobenius(F: FqField, k: int) -> FieldAut:
    """The automorphism x -> x^(p^k); its order is n / gcd(n, k)."""
    return FieldAut(F, k)


def embed_subfield(small: FqField, big: FqField) -> SubfieldEmbedding:
    """Canonical embedding: the generator maps to the least root of the
    small modulus in the big field (lexicographic on coefficient vectors)."""
    if small.p != big.p or big.n % small.n != 0:
        raise ValueError("no embedding: degree or characteristic mismatch")
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


def galois_group(L: FqField, emb: SubfieldEmbedding) -> list[FieldAut]:
    """Gal(L/K) as Frobenius powers; the first element listed is the
    canonical generator Frob^[K:prime field] (the relative Frobenius)."""
    if emb.big != L:
        raise ValueError("embedding does not target L")
    m = emb.small.n
    e = L.n // m
    return [FieldAut(L, m * j) for j in range(1, e + 1)]


def restrict_aut(a: FieldAut, emb: SubfieldEmbedding) -> FieldAut:
    """Restriction along the embedding: the Frobenius exponent reduced
    mod [K : prime field]."""
    if a.field != emb.big:
        raise ValueError("automorphism does not act on the big field")
    return FieldAut(emb.small, a.k % emb.small.n)


# -- root finding over an extension field ------------------------------------


def roots_in_field(f_mod_p: list[int], L: FqField) -> list["FqElem"]:
    """All roots in L of a polynomial with prime-field coefficients.

    Used to construct subfield embeddings; small fields scan, large ones
    run deterministic equal-degree splitting.
    """
    coeffs = _fp_normalize([L.element(c) for c in f_mod_p])
    if not coeffs:
        raise ValueError("zero polynomial")
    if L.order <= 4096:
        return [x for x in L.elements() if _poly_eval_elem(coeffs, x).is_zero()]
    # make monic, strip to the part that splits into linears over L
    lead_inv = coeffs[-1].inverse()
    coeffs = [c * lead_inv for c in coeffs]
    lin = _fp_linear_part(coeffs, L)
    return _fp_split_linear(lin, L)


def _poly_eval_elem(coeffs: list[FqElem], x: FqElem) -> FqElem:
    acc = x.field.zero()
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


# polynomial helpers over an FqField (ascending FqElem lists, [] = zero)


def _fp_normalize(f: list[FqElem]) -> list[FqElem]:
    f = list(f)
    while f and f[-1].is_zero():
        f.pop()
    return f


def _fp_sub(f: list[FqElem], g: list[FqElem], L: FqField) -> list[FqElem]:
    n = max(len(f), len(g))
    out = [L.zero()] * n
    for i, c in enumerate(f):
        out[i] = out[i] + c
    for i, c in enumerate(g):
        out[i] = out[i] - c
    return _fp_normalize(out)


def _fp_mul(f: list[FqElem], g: list[FqElem], L: FqField) -> list[FqElem]:
    if not f or not g:
        return []
    out = [L.zero()] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if not a.is_zero():
            for j, b in enumerate(g):
                out[i + j] = out[i + j] + a * b
    return _fp_normalize(out)


def _fp_divmod(f: list[FqElem], g: list[FqElem], L: FqField) -> tuple[list[FqElem], list[FqElem]]:
    if not g:
        raise ZeroDivisionError
    f = list(f)
    q = [L.zero()] * max(0, len(f) - len(g) + 1)
    ginv = g[-1].inverse()
    while len(f) >= len(g) and f:
        c = f[-1] * ginv
        k = len(f) - len(g)
        q[k] = c
        for i, b in enumerate(g):
            f[k + i] = f[k + i] - c * b
        f = _fp_normalize(f)
    return _fp_normalize(q), f


def _fp_gcd(f: list[FqElem], g: list[FqElem], L: FqField) -> list[FqElem]:
    a, b = _fp_normalize(f), _fp_normalize(g)
    while b:
        a, b = b, _fp_divmod(a, b, L)[1]
    if a:
        inv = a[-1].inverse()
        a = [c * inv for c in a]
    return a


def _fp_pow_mod(f: list[FqElem], e: int, m: list[FqElem], L: FqField) -> list[FqElem]:
    result = [L.one()]
    base = _fp_divmod(f, m, L)[1]
    while e:
        if e & 1:
            result = _fp_divmod(_fp_mul(result, base, L), m, L)[1]
        base = _fp_divmod(_fp_mul(base, base, L), m, L)[1]
        e >>= 1
    return result


def _fp_linear_part(f: list[FqElem], L: FqField) -> list[FqElem]:
    """gcd(f, y^|L| - y): the product of the distinct linear factors over L."""
    q = L.order
    yq = _fp_pow_mod([L.zero(), L.one()], q, f, L)
    diff = _fp_sub(yq, [L.zero(), L.one()], L)
    return _fp_gcd(diff, f, L)


def _fp_split_linear(f: list[FqElem], L: FqField) -> list[FqElem]:
    """Roots of a monic product of distinct linear factors, by deterministic
    equal-degree splitting (quadratic-residue gcds in odd characteristic,
    trace maps in characteristic 2)."""
    f = _fp_normalize(f)
    n = len(f) - 1
    if n <= 0:
        return []
    if n == 1:
        return [-f[0]]
    q = L.order
    if L.p == 2:
        # The trace functional c -> Tr(c*(r_i - r_j)) is F_2-linear and
        # nonzero for every root pair, so some basis monomial x^j with
        # j < [L : F_2] separates that pair.  Scan c = 1, x, x^2, ...
        c = L.one()
        for j in range(2 * L.n + 4):
            term = _fp_divmod([L.zero(), c], f, L)[1]
            acc = term
            for _ in range(L.n - 1):
                term = _fp_divmod(_fp_mul(term, term, L), f, L)[1]
                acc = _fp_sub(acc, term, L)  # char 2: subtraction is addition
            g = _fp_gcd(acc, f, L)
            if 0 < len(g) - 1 < n:
                return _merge_split(f, g, L)
            c = c * L.gen()
        raise AssertionError("trace splitting must succeed within the basis scan")
    idx = 1
    while True:
        c = L.from_index(idx % L.order)
        idx += 1
        h = _fp_pow_mod([c, L.one()], (q - 1) // 2, f, L)
        g = _fp_gcd(_fp_sub(h, [L.one()], L), f, L)
        if 0 < len(g) - 1 < n:
            return _merge_split(f, g, L)
        if idx > 4 * L.order + 64:
            raise AssertionError("equal-degree splitting failed to separate roots")


def _merge_split(f: list[FqElem], g: list[FqElem], L: FqField) -> list[FqElem]:
    rest = _fp_divmod(f, g, L)[0]
    return sorted(
        _fp_split_linear(g, L) + _fp_split_linear(rest, L),
        key=lambda r: r.coeffs[::-1],
    )
