"""A reference twisted polynomial ring L[T, frob^k] on coefficient tuples,
with its Euclidean chains, for the tests.

A polynomial is a list of the coefficient tuples of tuple_field.TupleField,
ascending, with no trailing zeros.  Products, divisions, the right gcd, the
left lcm with both cofactors, the Ore witness and the anti-involution are
schoolbook on those lists.  Like tuple_field, this file imports nothing from
skewgalois: it reads only p, n and the modulus of the field it is given, so
it shares no code with the library's kernels on element ints (logs, Zech
tables, rows or packed slots) or with its Euclidean chain.
"""

from functools import lru_cache
from operator import mul as _mul
from types import SimpleNamespace

from tuple_field import TupleField


@lru_cache(maxsize=None)
def _frob_matrix(p, n, modulus, j):
    """The matrix of frob^j on F_p[x]/(modulus), by rows: entry i of row r
    is the coefficient of x^r in the image of x^i.  Its columns are the
    powers y^i of y = x^(p^j), which takes j successive p-th powers of x."""
    F = TupleField(SimpleNamespace(p=p, n=n, order=p**n, modulus=modulus))
    y = F.from_index(p) if n > 1 else F.one  # x; unused for n = 1
    for _ in range(j):
        y = F.pow(y, p)
    powers = [F.one]
    for _ in range(n - 1):
        powers.append(F.mul(powers[-1], y))
    return tuple(zip(*powers))


class RawRing:
    """Schoolbook L[T, frob^k] over the field F, given as any object with
    the attributes p, n and modulus."""

    def __init__(self, F, k):
        self.base, self.k = F, k
        self.F = TupleField(F)
        self.zero, self.one = self.F.zero, self.F.one
        self._frob: dict = {}
        self._products: dict = {}

    def add(self, a, b):
        return self.F.add(a, b)

    def sub(self, a, b):
        return self.F.sub(a, b)

    def mul(self, a, b):
        """a*b, memoized: the long chains of the tests repeat few products."""
        if (a, b) not in self._products:
            self._products[a, b] = self.F.mul(a, b)
        return self._products[a, b]

    def inv(self, a):
        return self.F.inv(a)

    def tau(self, l, a):
        """tau^l(a) = frob^j(a) for j = k l mod n."""
        return self.frob(self.k * l % self.F.n, a)

    def frob(self, j, a):
        """a^(p^j), memoized: frob^j is F_p-linear, so a^(p^j) is the sum of
        a_i times the image of x^i, off the matrix of frob^j."""
        if j == 0:
            return a
        if (j, a) not in self._frob:
            F = self.F
            rows = _frob_matrix(F.p, F.n, tuple(F.modulus), j)
            self._frob[j, a] = tuple(sum(map(_mul, a, row)) % F.p for row in rows)
        return self._frob[j, a]

    def trim(self, f):
        f = list(f)
        while f and f[-1] == self.zero:
            f.pop()
        return f

    # -- polynomials ----------------------------------------------------------

    def poly_sub(self, f, g):
        width = max(len(f), len(g))
        f, g = (list(h) + [self.zero] * (width - len(h)) for h in (f, g))
        return self.trim(map(self.sub, f, g))

    def monic(self, f):
        """f left-normalized by the inverse of its leading coefficient."""
        if not f:
            return f
        c = self.inv(f[-1])
        return [self.mul(c, a) for a in f]

    def ore_mul(self, f, g):
        if not f or not g:
            return []
        out = [self.zero] * (len(f) + len(g) - 1)
        for l, a in enumerate(f):
            for j, b in enumerate(g):
                out[l + j] = self.add(out[l + j], self.mul(a, self.tau(l, b)))
        return self.trim(out)

    def right_divmod(self, f, g):
        d = len(g) - 1
        r, q = list(f), [self.zero] * max(0, len(f) - d)
        while len(r) > d:
            m = len(r) - 1 - d
            c = self.mul(r[-1], self.inv(self.tau(m, g[-1])))
            q[m] = c
            for i, b in enumerate(g):
                r[m + i] = self.sub(r[m + i], self.mul(c, self.tau(m, b)))
            r = self.trim(r)
        return self.trim(q), r

    def left_divmod(self, f, g):
        d = len(g) - 1
        r, q = list(f), [self.zero] * max(0, len(f) - d)
        while len(r) > d:
            m = len(r) - 1 - d
            c = self.tau(-d, self.mul(self.inv(g[-1]), r[-1]))
            q[m] = c
            for i, b in enumerate(g):
                r[m + i] = self.sub(r[m + i], self.mul(b, self.tau(i, c)))
            r = self.trim(r)
        return self.trim(q), r

    # -- the anti-involution and the Euclidean chains ---------------------------

    def mirror(self):
        """The ring twisted by tau^{-1}."""
        return RawRing(self.base, -self.k)

    def anti_involution(self, f):
        """sum a_i T^i -> sum tau^{-i}(a_i) T^i, into the mirror ring."""
        return [self.tau(-i, a) for i, a in enumerate(f)]

    def right_gcd(self, f, g):
        """Monic greatest common right divisor."""
        a, b = f, g
        while b:
            a, b = b, self.right_divmod(a, b)[1]
        return self.monic(a)

    def lcm_multipliers(self, f, g):
        """(u, v) with u*f = v*g the least common left multiple."""
        # r_i = s_i*f + t_i*g maintained under r_{i+1} = r_{i-1} - q_i*r_i
        r0, r1 = f, g
        s0, s1 = [self.one], []
        t0, t1 = [], [self.one]
        while r1:
            q, r = self.right_divmod(r0, r1)
            r0, r1 = r1, r
            s0, s1 = s1, self.poly_sub(s0, self.ore_mul(q, s1))
            t0, t1 = t1, self.poly_sub(t0, self.ore_mul(q, t1))
        # now r1 = 0, so s1*f = -t1*g is the least common left multiple
        return s1, self.poly_sub([], t1)

    def left_lcm(self, f, g):
        """Monic least common left multiple."""
        return self.monic(self.ore_mul(self.lcm_multipliers(f, g)[0], f))

    def witness(self, x, y):
        """r, s with x*r = y*s != 0, through the mirror ring."""
        mirror = self.mirror()
        u, v = mirror.lcm_multipliers(self.anti_involution(x), self.anti_involution(y))
        return mirror.anti_involution(u), mirror.anti_involution(v)
