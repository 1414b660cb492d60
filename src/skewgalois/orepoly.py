"""The twisted polynomial ring L[T, tau] over a finite field.

Multiplication follows the defining relation T*a = tau(a)*T, so the
coefficient of T^k in a product f*g is

    sum over l of  f_l * tau^l(g_{k-l}).

The ring has no zero divisors (degrees add on products) and both one-sided
divisions exist because tau is an automorphism.  Right division is the
primary primitive; the common-right-multiple witness for the Ore condition
is derived through the coefficientwise anti-isomorphism onto the ring
twisted by tau^{-1}.

A polynomial is stored as the tuple of its coefficients' ints (FqElem.v,
see ffield: logs up to the log-table limit, packed slots past it),
ascending; the zero polynomial has an empty tuple, so equality is
bit-exact.  FqElem objects are built only when a caller asks for `coeffs`.
The constructor and to_json convert the whole coefficient list in one call
of the base field's tier each way (FqField._vs_of and _coeff_lists).

Every operation works on the ints.  Sums and negation apply the base
field's _add and _neg coefficientwise.  Multiplication and right division
run their O(deg^2) loops in one pair of kernels, written once against the
vector steps of the base field's tier (see ffield), which was chosen when
the field was: logs and Zech lookups up to the log-table limit; past it,
sums of unreduced packed products, each reduced once when it is final.
The multiplication kernel also takes an optional minuend, so acc - q*b is
one kernel call.  The anti-involution and induced automorphisms twist the
ints.

The right gcd, the left lcm and the Ore witness run the extended right
Euclidean algorithm (Bronstein and Petkovsek, "An introduction to
pseudo-linear algebra", TCS 1996) as one chain on the ints, which calls
the division kernel and, for the cofactor s_(i+1) = s_(i-1) - q_i s_i, the
accumulating multiplication kernel once per step.  Only s is kept: the lcm
is s*f, and the witness divides that multiple by the second input on the
right, exactly.

Log-tier fields of characteristic 2, F_2 to F_2^15, run the product, the
division and the chain on bit rows instead, chosen once per field
(FqField._bit_rows): a polynomial packed into one int, 16 bits per
coefficient, on which a sum is one XOR and c * tau^l(row) is n bit slices
of the row, each times the index of one c * tau^l(x^i), so a term costs
2n operations on the whole row instead of one Zech lookup per coefficient
(the word-packed GF(2) vectors of M4RI: Albrecht, Bard and Hart, ACM TOMS
36(1), 2010).  The chain keeps its remainders and its cofactor as rows
from entry to exit.  Odd characteristic has no such XOR, so the odd-p log
fields and the packed tier keep the one list-kernel pair.
"""

from __future__ import annotations

from functools import reduce
from math import gcd
from operator import mul, xor

from .ffield import FieldAut, FqElem, FqField, check_subfield, field_from_descriptor
from .modpoly import _ACC_TERMS
from .zarith import is_int


class OreRing:
    """A handle for L[T, tau]: the base field plus the twist automorphism."""

    __slots__ = ("base", "twist", "_mirror")

    def __init__(self, base: FqField, twist: FieldAut):
        if twist.field != base:
            raise ValueError("twist must be an automorphism of the base field")
        self.base = base
        self.twist = twist
        self._mirror: OreRing | None = None

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        return (
            isinstance(other, OreRing)
            and self.base == other.base
            and self.twist == other.twist
        )

    def __hash__(self) -> int:
        return hash((self.base, self.twist))

    def __repr__(self) -> str:
        return f"OreRing({self.base.descriptor()}[T, frob^{self.twist.k}])"

    def is_commutative(self) -> bool:
        return self.twist.is_identity()

    # -- constructors -------------------------------------------------------

    def poly(self, coeffs) -> "OrePoly":
        return OrePoly(self, coeffs)

    def zero(self) -> "OrePoly":
        return OrePoly(self, ())

    def one(self) -> "OrePoly":
        return self.poly([1])

    def T(self) -> "OrePoly":
        return self.poly([0, 1])

    def scalar(self, a) -> "OrePoly":
        return self.poly([a])

    def monomial(self, a, k: int) -> "OrePoly":
        return OrePoly(self, [0] * k + [a])

    def mirror(self) -> "OreRing":
        """The ring twisted by tau^{-1}, built once; its mirror is this ring."""
        if self._mirror is None:
            self._mirror = OreRing(self.base, self.twist.inverse_aut())
            self._mirror._mirror = self
        return self._mirror


class OrePoly:
    """An element of L[T, tau] in canonical form (no trailing zeros).

    `v` is the tuple of the coefficients' ints, ascending; `coeffs` builds
    the FqElem of each on request.  The constructor takes the coefficients
    in any form the base field's element() accepts, and rejects an element
    of another field.
    """

    __slots__ = ("ring", "v")

    def __init__(self, ring: OreRing, coeffs):
        base = ring.base
        self.ring = ring
        self.v = _trim(base._vs_of(coeffs), base._zero_v)

    @property
    def coeffs(self) -> tuple:
        """The coefficients as FqElems, ascending."""
        F = self.ring.base
        return tuple([FqElem(F, x) for x in self.v])

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.v) - 1

    def is_zero(self) -> bool:
        return not self.v

    def leading(self) -> FqElem:
        if not self.v:
            raise ValueError("zero polynomial has no leading coefficient")
        return FqElem(self.ring.base, self.v[-1])

    def is_monic(self) -> bool:
        return bool(self.v) and self.leading() == self.ring.base.one()

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, OrePoly)
            and (self.ring is other.ring or self.ring == other.ring)
            and self.v == other.v
        )

    def __hash__(self) -> int:
        return hash((self.ring, self.v))

    def __repr__(self) -> str:
        if not self.v:
            return "OrePoly(0)"
        terms = []
        for i, c in enumerate(self.coeffs):
            if c.is_zero():
                continue
            terms.append(f"{list(c.coeffs)}*T^{i}")
        return "OrePoly(" + " + ".join(terms) + f" over {self.ring!r})"

    def _check(self, other: "OrePoly"):
        if not isinstance(other, OrePoly):
            raise TypeError("expected an OrePoly")
        if other.ring is not self.ring and other.ring != self.ring:
            raise ValueError("operands live in different twisted rings")

    def __add__(self, other: "OrePoly") -> "OrePoly":
        self._check(other)
        a, b = self.v, other.v
        if len(a) < len(b):
            a, b = b, a
        # map stops at the shorter b; the rest of a is copied
        out = [*map(self.ring.base._add, a, b), *a[len(b):]]
        return _from_ints(self.ring, out)

    def __neg__(self) -> "OrePoly":
        return _from_ints(self.ring, list(map(self.ring.base._neg, self.v)))

    def __sub__(self, other: "OrePoly") -> "OrePoly":
        return self + (-other)

    def __mul__(self, other: "OrePoly") -> "OrePoly":
        return ore_mul(self, other)

    def monic(self) -> "OrePoly":
        """Left-normalize by the inverse of the leading coefficient."""
        if self.is_zero():
            return self
        F, inv = self.ring.base, self.leading().inverse().v
        return _from_ints(self.ring, [F._mul(inv, x) for x in self.v])

    def to_json(self) -> dict:
        F = self.ring.base
        return {
            "base": F.descriptor(),
            "frob": self.ring.twist.k,
            "coeffs": F._coeff_lists(self.v),
        }


def _trim(v: list, zero: int) -> tuple:
    """v without its trailing zeros, as a tuple; pops them off v."""
    while v and v[-1] == zero:
        v.pop()
    return tuple(v)


def _from_ints(ring: OreRing, v: list) -> OrePoly:
    """The polynomial on the coefficient ints v of ring's base field, which
    are trusted: only trailing zeros are dropped.  v is a list of the
    caller's that it no longer uses."""
    f = OrePoly.__new__(OrePoly)
    f.ring = ring
    f.v = _trim(v, ring.base._zero_v)
    return f


class OreDivResult:
    """Quotient and remainder of a right division f = q*g + r."""

    __slots__ = ("quotient", "remainder")

    def __init__(self, quotient: OrePoly, remainder: OrePoly):
        self.quotient = quotient
        self.remainder = remainder

    def __iter__(self):
        yield self.quotient
        yield self.remainder

    def __repr__(self) -> str:
        return f"OreDivResult(q={self.quotient!r}, r={self.remainder!r})"


# -- ring operations ----------------------------------------------------------


def ore_mul(f: OrePoly, g: OrePoly) -> OrePoly:
    """Product in L[T, tau]: coefficient k is sum_l f_l * tau^l(g_{k-l})."""
    f._check(g)
    ring = f.ring
    if f.is_zero() or g.is_zero():
        return ring.zero()
    return _from_ints(ring, _mul(ring.base, ring.twist.k, f.v, g.v))


def ore_right_divmod(f: OrePoly, g: OrePoly) -> OreDivResult:
    """Right division: f = q*g + r with deg r < deg g; q and r are unique."""
    f._check(g)
    if g.is_zero():
        raise ZeroDivisionError("right division by the zero polynomial")
    ring = f.ring
    q, r = _right_divmod(ring.base, ring.twist.k, f.v, g.v)
    return OreDivResult(_from_ints(ring, q), _from_ints(ring, r))


def ore_left_divmod(f: OrePoly, g: OrePoly) -> OreDivResult:
    """Left division: f = g*q + r with deg r < deg g (tau invertible).

    The anti-isomorphism phi onto L[T, tau^{-1}] turns it into the right
    division phi(f) = phi(q)*phi(g) + phi(r) there.
    """
    f._check(g)
    if g.is_zero():
        raise ZeroDivisionError("left division by the zero polynomial")
    q, r = ore_right_divmod(anti_involution(f), anti_involution(g))
    return OreDivResult(anti_involution(q), anti_involution(r))


# -- kernels on the ints of the coefficients -----------------------------------
#
# With twist frob^k, tau^l is frob^(k l mod n), which depends only on l
# modulo the period n / gcd(n, k), the order of tau: each kernel twists one
# row of its right operand per distinct power.  The field's tier supplies
# the steps: _twist applies frob^j to a row, _addmul adds c times a row into
# an accumulator (unreduced in the packed tier, where a slot has room for
# _ACC_TERMS such rows), and _settle, or _settle_v for one int, makes the
# accumulated ints final.


def _mul(F: FqField, k: int, f, g, minus=None) -> list[int]:
    """f*g, or minus - f*g when a settled minus is given.  Rows are added
    into the output unsettled, and the output is settled once at the end
    and once per _ACC_TERMS rows of f before that."""
    if F._bit_rows:
        return _row_mul(F, k, f, g, minus)
    zero, addmul, settle = F._zero_v, F._addmul, F._settle
    period = F.n // gcd(F.n, k)
    twisted = [F._twist(k * l, g) for l in range(min(period, len(f)))]
    size = len(f) + len(g) - 1
    out = [zero] * size if minus is None else [*minus, *[zero] * (size - len(minus))]
    negate, rows = minus is not None, 0
    for l, a in enumerate(f):
        if a != zero:
            if rows == _ACC_TERMS:
                out, rows = settle(out), 0
            addmul(out, l, a, twisted[l % period], negate)
            rows += 1
    return settle(out)


def _right_divmod(F: FqField, k: int, f, g):
    """Quotient and remainder of f by g on the right.  Each step settles
    only the leading remainder coefficient; the remainder is settled at the
    end, and once per _ACC_TERMS steps before that."""
    if F._bit_rows:
        return _row_right_divmod(F, k, f, g)
    d, zero = len(g) - 1, F._zero_v
    addmul, settle, settle_v, mul = F._addmul, F._settle, F._settle_v, F._mul
    # tau^m of g_0 .. g_(d-1) and of g_d^{-1}, which is tau^m(g_d)^{-1}
    row = [*g]
    row[d] = F._inv(g[d])
    period = F.n // gcd(F.n, k)
    twisted = [F._twist(k * m, row) for m in range(min(period, len(f) - d))]
    r, q, added = list(f), [zero] * max(0, len(f) - d), 0
    while len(r) > d:
        top = settle_v(r[-1])
        if top == zero:
            r.pop()
            continue
        m = len(r) - 1 - d
        tg = twisted[m % period]
        q[m] = c = mul(top, tg[d])
        if added == _ACC_TERMS:
            r, added = settle(r), 0
        # r -= c T^m g: its top term cancels r's, which is dropped, so what
        # the inverse at the end of tg adds there is never read
        addmul(r, m, c, tg, True)
        r.pop()
        added += 1
    return q, settle(r)


def _euclid(f: OrePoly, g: OrePoly, cofactor: bool) -> tuple[tuple, list]:
    """The right Euclidean chain r_(i+1) = r_(i-1) - q_i r_i from r_0 = f
    and r_1 = g, on coefficient ints.  Returns the last nonzero remainder, a
    right gcd, and with cofactor the s_i of r_i = s_i f + t_i g at the zero
    remainder, for which s f = -t g is a least common left multiple.  Each
    step updates s_(i+1) = s_(i-1) - q_i s_i in one kernel call; t is never
    formed."""
    F, k = f.ring.base, f.ring.twist.k
    if F._bit_rows:
        return _row_euclid(F, k, f.v, g.v, cofactor)
    a, b, zero = f.v, g.v, F._zero_v
    s0, s1 = [F._one_v], []
    while b:
        q, r = _right_divmod(F, k, a, b)
        if cofactor:
            # q = 0 only at a first step with deg f < deg g; past the first,
            # deg s_i grows, so the leading term of q_i s_i never cancels
            s0, s1 = s1, _mul(F, k, q, s1, s0) if q and s1 else s0
        a, b = b, _trim(r, zero)
    return a, s1


# -- the kernels on bit rows, for p = 2 ------------------------------------------
#
# Over F_2 a sum is XOR, and c*b is F_2-linear in b.  A bit row (F._row)
# packs a polynomial into one int, coefficient j as its index in the 16-bit
# slot j, so a sum of polynomials is one XOR, exact with nothing to settle.
# With ones the int that has bit 0 of every slot set, slice i of a row,
# (row >> i) & ones, holds bit i of every coefficient, and
#
#     c * tau^l(row) = XOR over i of slice_i * index(c * frob^j(x^i))
#
# for frob^j = tau^l.  The n slices of a row are cut once and serve every
# multiplier and every twist, so each term of a product or a division is
# n small-int lookups and 2n operations on the whole row, however long.


def _ones(size: int) -> int:
    return int.from_bytes(b"\1\0" * size, "little")


def _slots(row: int) -> int:
    return row.bit_length() + 15 >> 4


def _slices(F: FqField, row: int, ones: int) -> list[int]:
    return [row >> i & ones for i in range(F.n)]


def _cols(F: FqField, c: int, j: int) -> list[int]:
    """The indices of c * frob^j(x^i), i < n, for the nonzero log c."""
    q1, antilog = F._q1, F._antilog
    return [antilog[(c + t) % q1] for t in F._xlogs[j]]


def _row_addmul(terms, slices) -> int:
    """The sum of c T^m * row over the terms (m, c, cols), cols those of c
    and the twist of T^m, for the slices of row."""
    out = 0
    for m, _, cols in terms:
        out ^= reduce(xor, map(mul, slices, cols)) << 16 * m
    return out


def _row_divide(F: FqField, k: int, r: int, b: int, ones: int) -> tuple[list, int]:
    """Right division of the row r by the nonzero row b: the terms (m, c,
    cols) of the quotient, c a nonzero log, and the remainder row.  Each
    step cancels the top coefficient of r exactly."""
    n, q1, log, powers = F.n, F._q1, F._log, F._powers
    d = _slots(b) - 1
    lead, slices, terms = log[b >> 16 * d], _slices(F, b, ones), []
    while (top := r.bit_length() - 1 >> 4) >= d:
        m = top - d
        j = k * m % n
        # c = r_top / frob^j(b_d)
        c = (log[r >> 16 * top] - lead * powers[j]) % q1
        cols = _cols(F, c, j)
        r ^= reduce(xor, map(mul, slices, cols)) << 16 * m
        terms.append((m, c, cols))
    return terms, r


def _row_mul(F: FqField, k: int, f, g, minus) -> list[int]:
    """_mul on bit rows; minus - f*g is minus + f*g."""
    terms = [(l, a, _cols(F, a, k * l % F.n)) for l, a in enumerate(f) if a >= 0]
    out = _row_addmul(terms, _slices(F, F._row(g), _ones(len(g))))
    size = len(f) + len(g) - 1
    if minus is not None:
        out ^= F._row(minus)
        size = max(size, len(minus))
    return F._unrow(out, size)


def _row_right_divmod(F: FqField, k: int, f, g):
    """_right_divmod on bit rows."""
    terms, r = _row_divide(F, k, F._row(f), F._row(g), _ones(len(g)))
    q = [F._zero_v] * max(0, len(f) - len(g) + 1)
    for m, c, _ in terms:
        q[m] = c
    return q, F._unrow(r, min(len(f), len(g) - 1))


def _row_euclid(F: FqField, k: int, f, g, cofactor: bool) -> tuple[list, list]:
    """_euclid on bit rows: the remainders and the cofactor stay rows from
    entry to exit."""
    ones = _ones(len(f) + len(g))
    a, b = F._row(f), F._row(g)
    s0, s1 = 1, 0  # the rows of 1 and 0
    while b:
        terms, r = _row_divide(F, k, a, b, ones)
        if cofactor:
            s0, s1 = s1, s0 ^ _row_addmul(terms, _slices(F, s1, ones))
        a, b = b, r
    return F._unrow(a, _slots(a)), F._unrow(s1, _slots(s1))


def ore_right_gcd(f: OrePoly, g: OrePoly) -> OrePoly:
    """Monic greatest common right divisor: the last nonzero remainder of
    the right Euclidean chain, run on coefficient ints with no cofactor."""
    if f.is_zero() and g.is_zero():
        raise ValueError("gcd of two zero polynomials is undefined")
    f._check(g)
    return _from_ints(f.ring, list(_euclid(f, g, False)[0])).monic()


def ore_left_lcm(f: OrePoly, g: OrePoly) -> OrePoly:
    """Monic least common left multiple m = u*f = v*g.

    The extended right Euclidean chain on coefficient ints keeps one
    cofactor s, the u of m up to a unit, and m is (s*f).monic(); so
    deg(lcm) = deg f + deg g - deg(right gcd).
    """
    if f.is_zero() or g.is_zero():
        raise ValueError("lcm witnesses need nonzero inputs")
    f._check(g)
    s = _from_ints(f.ring, _euclid(f, g, True)[1])
    return ore_mul(s, f).monic()


def ore_witness(x: OrePoly, y: OrePoly) -> tuple[OrePoly, OrePoly]:
    """Constructive right Ore condition: r, s with x*r = y*s != 0.

    In the mirror ring L[T, tau^{-1}], the extended right Euclidean chain on
    coefficient ints gives the cofactor u of the least common left multiple
    m = u*phi(x) of phi(x) and phi(y), and v is the right quotient of m by
    phi(y).  The coefficientwise anti-isomorphism phi carries u and v back
    to r and s, and the postcondition is re-verified by multiplication.
    """
    r, s, _ = _witness(x, y)
    return r, s


def _witness(x: OrePoly, y: OrePoly) -> tuple[OrePoly, OrePoly, OrePoly]:
    """ore_witness's r and s, with the common multiple x*r that its
    re-verification computed."""
    x._check(y)
    if x.is_zero() or y.is_zero():
        raise ValueError("Ore witnesses need nonzero inputs")
    fx, fy = anti_involution(x), anti_involution(y)
    u = _from_ints(fx.ring, _euclid(fx, fy, True)[1])
    v, _ = ore_right_divmod(ore_mul(u, fx), fy)
    r, s = anti_involution(u), anti_involution(v)
    left = ore_mul(x, r)
    if left != ore_mul(y, s) or left.is_zero():
        raise AssertionError("Ore witness failed its re-verification")
    return r, s, left


def untwisted_roots(f: OrePoly) -> list[FqElem]:
    """The roots in L of f in L[y] = L[T, id], sorted by their reversed
    coefficient vectors: the library's one root finder.  The product
    gcd(f, y^|L| - y) of the distinct linear factors of f is split by
    Cantor and Zassenhaus's equal-degree splitting (Math. Comp. 36, 1981)."""
    if not f.ring.is_commutative():
        raise ValueError("roots are taken in the untwisted ring")
    y, f = f.ring.T(), f.monic()
    return _split_linear(ore_right_gcd(_pow_mod(y, f.ring.base.order, f) - y, f))


def _pow_mod(b: OrePoly, e: int, m: OrePoly) -> OrePoly:
    result = m.ring.one()
    while e:
        if e & 1:
            result = ore_right_divmod(ore_mul(result, b), m).remainder
        b = ore_right_divmod(ore_mul(b, b), m).remainder
        e >>= 1
    return result


def _split_linear(f: OrePoly) -> list[FqElem]:
    """Roots of a monic product of distinct linear factors."""
    n, R = f.degree, f.ring
    L, q = R.base, R.base.order
    if n <= 1:
        return [-f.coeffs[0]] if n == 1 else []
    if L.p == 2:
        # The trace functional c -> Tr(c*(r_i - r_j)) is F_2-linear and
        # nonzero for every root pair, so some basis monomial x^j with
        # j < [L : F_2] separates that pair.  Scan c = 1, x, x^2, ...
        splitters = (_trace(R.monomial(L.gen() ** j, 1), f) for j in range(2 * L.n + 4))
    else:
        # (y + c)^((q-1)/2) - 1 vanishes at the roots r with r + c a square
        splitters = (_pow_mod(R.poly([L.from_index(i), 1]), (q - 1) // 2, f) - R.one()
                     for i in range(1, 4 * q + 65))
    for h in splitters:
        g = ore_right_gcd(h, f)
        if 0 < g.degree < n:
            return _merge_split(f, g)
    raise AssertionError("equal-degree splitting failed to separate roots")


def _trace(h: OrePoly, f: OrePoly) -> OrePoly:
    """h + h^2 + h^4 + ... + h^(2^(n-1)) mod f, for L = F_(2^n)."""
    term = acc = ore_right_divmod(h, f).remainder
    for _ in range(f.ring.base.n - 1):
        term = _pow_mod(term, 2, f)
        acc = acc + term
    return acc


def _merge_split(f: OrePoly, g: OrePoly) -> list[FqElem]:
    rest = ore_right_divmod(f, g).quotient
    return sorted(_split_linear(g) + _split_linear(rest), key=lambda r: r.coeffs[::-1])


def anti_involution(f: OrePoly) -> OrePoly:
    """The anti-isomorphism L[T, tau] -> L[T, tau^{-1}] fixing T.

    Sends sum a_i T^i to sum tau^{-i}(a_i) T^i and reverses products:
    phi(f*g) = phi(g)*phi(f).
    """
    ring, F = f.ring, f.ring.base
    out = list(f.v)
    # a_i and a_(i+n) take the same twist frob^(-k i)
    for i in range(min(F.n, len(out))):
        out[i::F.n] = F._twist(-ring.twist.k * i, out[i::F.n])
    return _from_ints(ring.mirror(), out)


class InducedRingAut:
    """The coefficientwise action of a base-field automorphism on L[T, tau].

    For rho commuting with tau the map sum a_i T^i -> sum rho(a_i) T^i is a
    ring automorphism fixing T; the handle supports application and a
    fixed-polynomial test.
    """

    __slots__ = ("ring", "rho")

    def __init__(self, ring: OreRing, rho: FieldAut):
        self.ring = ring
        self.rho = rho

    def apply(self, f: OrePoly) -> OrePoly:
        if f.ring != self.ring:
            raise ValueError("polynomial from a different ring")
        return _from_ints(self.ring, self.ring.base._twist(self.rho.k, list(f.v)))

    def __call__(self, f: OrePoly) -> OrePoly:
        return self.apply(f)

    def fixes(self, f: OrePoly) -> bool:
        return self.apply(f) == f


def induced_ring_aut(
    rho: FieldAut,
    ring: OreRing,
    fixed_subfield: FqField | None = None,
) -> InducedRingAut:
    """Lift rho in Aut(L) to the coefficientwise ring automorphism of L[T, tau].

    Aut(L) is abelian so rho always commutes with the twist; when a
    designated subfield K of L is supplied, rho must fix it pointwise.
    """
    if rho.field != ring.base:
        raise ValueError("rho must act on the ring's base field")
    if fixed_subfield is not None:
        check_subfield(fixed_subfield, ring.base)
        # rho = frob^k fixes F_{p^m} pointwise iff m divides k
        if rho.k % fixed_subfield.n != 0:
            raise ValueError("rho does not fix the designated subfield pointwise")
    return InducedRingAut(ring, rho)


def ore_poly_from_json(data: dict) -> OrePoly:
    """Inverse of OrePoly.to_json: the base field "p^n" is make_field(p, n),
    whose modulus is the least irreducible one; a malformed shape raises
    ValueError."""
    if not (isinstance(data, dict) and isinstance(data.get("base"), str)
            and is_int(data.get("frob")) and isinstance(data.get("coeffs"), list)
            # every coefficient an int or a list of ints, bools excluded; one
            # set of types is several times cheaper than is_int per entry
            and {type(x) for c in data["coeffs"]
                 for x in (c if type(c) is list else (c,))} <= {int}):
        raise ValueError('a twisted polynomial must be {"base": "p^n", "frob": k, '
                         '"coeffs": [...]} with integer coefficients')
    base = field_from_descriptor(data["base"])
    ring = OreRing(base, FieldAut(base, data["frob"]))
    return ring.poly(data["coeffs"])
