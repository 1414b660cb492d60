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

Fields run the product, the division and the chain on rows instead, with
the layout and steps the field supplies (ffield.RowSteps), when the
operand a kernel scales has at least _row_min coefficients (the rule is
FqField's).  A row packs a polynomial into one int; since c * tau^l(b) is
F_p-linear in b, it is n slices of the row, each times the digits of one
c * tau^l(x^i), so a term costs n whole-row products however long the row,
instead of one Zech lookup or packed product per coefficient (the
word-packed vectors of M4RI, Albrecht, Bard and Hart, ACM TOMS 36(1),
2010, sliced over larger fields as in Boothby and Bradshaw, "Bitslicing
and the Method of Four Russians over larger finite fields",
arXiv:0901.1413); an odd-p packed field keeps its packed element whole, in
one slice.  The chain keeps its remainders and its cofactor as rows from
entry to exit.  A term also pays for its columns, and a division step for
reading the top coefficient, so rows win only past some length, and later
the larger n is.  The rule's crossovers, measured in process (rows against
lists on random inputs, the median of three best-of-five timings, Python
3.11 on a shared 2-vCPU host): rows won every op from 24
coefficients on F_7^2, from 20 on F_251 and F_32749, from 32 on F_3,
F_3^3 and F_5^4 (at 24 the gcd took 1.02-1.06 times the lists' time,
every other op at most 0.96) and from 40 on F_7^5 (the gcd at 1.00); the
product from 8-16 everywhere.  On F_2^16, F_2^20 and F_2^64 rows ran
2.1-3.0 times as fast as lists in the product of 19 coefficients by 19
and 1.2-1.8 times in ore-large's chains (9 to 18 coefficients in the
second input), and lost (0.7-0.9) only on operands of at most 4
coefficients, or 9 in the F_2^64 gcd.  On the odd-p packed fields rows
won the product from 3 coefficients, every op from 5-6 on F_3^12, F_5^7,
F_7^9 and F_65537, from 8 on F_3^14, F_3^15, F_5^15 and near 2^64 (the
division at 0.99 there), from 8-16 on F_3^16, F_3^17 and F_7^12 and from
24 on F_3^18, and lost some op at every length up to 40 on F_3^19,
F_3^20 and F_7^14; on F_251^8 they won from 24, which the rule, by
element size, leaves to the lists.  At degree 1000 the F_2^14 witness fell
from 1.1-1.4 s to 0.14-0.20 s, the F_5^4 witness from 1.59 s to 0.37 s,
the F_2^16 and F_2^20 witnesses from 4.2 and 5.7 s to 0.26 and 0.22 s, and
the F_3^12 witness from 6.7-7.8 s to 1.9-3.0 s.
"""

from __future__ import annotations

from functools import partial, reduce
from itertools import chain
from math import gcd
from operator import add, mul, xor

from .ffield import FieldAut, FqElem, FqField, check_subfield, field_from_descriptor
from .modpoly import _ACC_TERMS
from .zarith import all_ints, is_int


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
    if len(g) >= F._row_min:
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
    if len(g) >= F._row_min:
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
    if len(g.v) >= F._row_min:
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


# -- the kernels on rows ---------------------------------------------------------
#
# The field's RowSteps (see ffield) give the layout, the conversions, the
# twist, the columns and the division steps.  Since frob^j is F_p-linear,
#
#     c * tau^l(row) = sum over i of slice_i * (the row digits of c * frob^j(x^i))
#
# for frob^j = tau^l, or of c * x^i where twist has mapped the slices by
# frob^j: each product puts at most (p - 1)^2 in a sub-slot of the slot it
# lands in and carries nowhere.  A difference adds the columns of the
# negated multiplier, so rows never borrow.


def _row_sums(p: int, slices) -> tuple:
    """The row sum and the fold of a term's products with slices, picked once
    per kernel call: XOR for p = 2, exact, where an int sum would carry out
    of the 1-bit digits; else the int sum, settled once per _ACC_TERMS
    terms.  One slice's product is its own fold (sum would copy it)."""
    rsum = xor if p == 2 else add
    return rsum, next if len(slices) == 1 else _FOLDS[rsum]


_FOLDS = {xor: partial(reduce, xor), add: sum}


def _row_mul(F: FqField, k: int, f, g, minus) -> list[int]:
    """_mul on rows; minus - f*g is minus plus the products of -f_l."""
    R, n = F._row_steps(), F.n
    s, size, out = R.s, len(f) + len(g) - 1, 0
    if minus is not None:
        size, out = max(size, len(minus)), R.row(minus)
    low, settle = R.layout(size)
    b, period, terms = R.row(g), n // gcd(n, k), 0
    twisted = R.twist(b, k, min(period, len(f)), low)
    rsum, fold = _row_sums(F.p, twisted[0])
    for l, col in enumerate(R.columns(f, k, minus is not None)):
        if col is not None:
            if terms == _ACC_TERMS:
                out, terms = settle(out), 0
            out = rsum(out, fold(map(mul, twisted[l % period], col)) << s * l)
            terms += 1
    return R.unrow(settle(out), size)


def _row_divisions(F: FqField, k: int, f, g, cofactor: bool):
    """The right Euclidean chain from f and g, g != 0, on rows, one division
    r_(i-1) = q_i r_i + r_(i+1) at a time: for each, the keys of the
    coefficients of q_i, and the settled rows r_i, r_(i+1) and with
    cofactor s_(i+1) = s_(i-1) - q_i s_i (see _euclid), else 0.  The
    remainders and the cofactor stay rows throughout, and each quotient
    term updates both with the same columns, those of -c.  A step reads
    only the top slot of the remainder, and leaves that slot zero or, for
    odd p, a multiple of p in every sub-slot; the dropped slots are masked
    off once per division."""
    R, n = F._row_steps(), F.n
    s, divide, quotient = R.s, R.divide, R.quotient
    low, settle = R.layout(len(f) + len(g))
    fold = None  # picked at the first division, by its slices
    one, a, b, top, zero = (1 << s) - 1, R.row(f), R.row(g), len(f) - 1, F._zero_v
    period, s0, s1 = n // gcd(n, k), 1, 0  # s0 and s1 the rows of 1 and 0
    while b:
        d = (b.bit_length() - 1) // s
        # each power of tau that this division's terms take, met once
        per_power = divide(b >> s * d, k, top - d + 1 if top - d < period else period, low,
                           b, s1 if cofactor else None)
        if fold is None and per_power:
            rsum, fold = _row_sums(F.p, per_power[0][1])
        r, q, budget = a, [zero] * (top - d + 1), _ACC_TERMS
        for top in range(top, d - 1, -1):
            m = top - d
            lead, slices, s1_slices = per_power[m % period]
            # c = r_top / tau^m(b_d), and the columns are those of -c
            term = quotient(r >> s * top & one, lead, k * m % n)
            if term is None:
                continue
            c, col = term
            if not budget:
                r, s0, budget = settle(r), settle(s0), _ACC_TERMS  # s0 = 1 without cofactor
            budget -= 1
            r = rsum(r, fold(map(mul, slices, col)) << s * m)
            if cofactor:
                s0 = rsum(s0, fold(map(mul, s1_slices, col)) << s * m)
            q[m] = c
        r = settle(r & (1 << s * d) - 1)
        if cofactor:
            s0, s1 = s1, settle(s0)
        yield q, b, r, s1
        a, b, top = b, r, d


def _row_right_divmod(F: FqField, k: int, f, g):
    """_right_divmod on rows: the first division of the chain."""
    R, (q, _, r, _) = F._row_steps(), next(_row_divisions(F, k, f, g, False))
    return R.unkeys(q), R.unrow(r, min(len(f), len(g) - 1))


def _row_euclid(F: FqField, k: int, f, g, cofactor: bool) -> tuple[list, list]:
    """_euclid on rows: the divisor of the last division, whose remainder
    is zero, and the cofactor of that remainder."""
    for _, b, _, s1 in _row_divisions(F, k, f, g, cofactor):
        pass
    R = F._row_steps()
    return R.unrow(b, -(-b.bit_length() // R.s)), R.unrow(s1, -(-s1.bit_length() // R.s))


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
            and is_int(data.get("frob")) and _int_coefficients(data.get("coeffs"))):
        raise ValueError('a twisted polynomial must be {"base": "p^n", "frob": k, '
                         '"coeffs": [...]} with integer coefficients')
    base = field_from_descriptor(data["base"])
    ring = OreRing(base, FieldAut(base, data["frob"]))
    return ring.poly(data["coeffs"])


def _int_coefficients(coeffs) -> bool:
    """Whether coeffs is a list of ints and lists of ints, bools excluded:
    the set of the entries' types, gathered in C, then all_ints on the
    digits in the lists."""
    types = set(map(type, coeffs)) if isinstance(coeffs, list) else {None}
    if not types <= {int, list}:
        return False
    lists = coeffs if int not in types else filter(list.__instancecheck__, coeffs)
    return all_ints(chain.from_iterable(lists))
