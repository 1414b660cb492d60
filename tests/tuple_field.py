"""A reference finite field on coefficient tuples, for the tests.

It works from a field's p, n and modulus alone, with modpoly's list product
and division, square-and-multiply and the extended Euclid below, so it
shares no code with the element ints of skewgalois.ffield (discrete logs,
packed slots, Zech tables, Frobenius columns or Itoh-Tsujii inversion).
"""

from skewgalois import modpoly


def xgcd(f: list[int], g: list[int], p: int) -> tuple[list[int], list[int], list[int]]:
    """Extended Euclid: (d, s, t) with d the monic gcd (0 for two zero
    inputs) and s*f + t*g = d; deg t < deg f - deg d when deg g < deg f."""
    r0, r1 = modpoly.normalize(f, p), modpoly.normalize(g, p)
    s0, s1 = [1], []
    t0, t1 = [], [1]
    while r1:
        q, r = modpoly.divmod_poly(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, modpoly.sub(s0, modpoly.mul(q, s1, p), p)
        t0, t1 = t1, modpoly.sub(t0, modpoly.mul(q, t1, p), p)
    if not r0:
        return [], s0, t0
    inv = pow(r0[-1], -1, p)
    return tuple(modpoly.scalar_mul(inv, h, p) for h in (r0, s0, t0))


class TupleField:
    """F_p[x]/(modulus) on length-n coefficient tuples, ascending."""

    def __init__(self, F):
        self.p, self.n = F.p, F.n
        self.order = F.order
        self.modulus = list(F.modulus)
        self.zero = (0,) * self.n
        self.one = (1,) + (0,) * (self.n - 1)

    def _pad(self, f):
        return tuple(f + [0] * (self.n - len(f)))

    def add(self, a, b):
        return tuple((x + y) % self.p for x, y in zip(a, b))

    def neg(self, a):
        return tuple(-x % self.p for x in a)

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def mul(self, a, b):
        prod = modpoly.mul(list(a), list(b), self.p)
        return self._pad(modpoly.divmod_poly(prod, self.modulus, self.p)[1])

    def inv(self, a):
        d, _, t = xgcd(self.modulus, list(a), self.p)
        if d != [1]:
            raise ZeroDivisionError("inverse of zero")
        return self._pad(t)

    def pow(self, a, e):
        if e < 0:
            a, e = self.inv(a), -e
        result = self.one
        while e:
            if e & 1:
                result = self.mul(result, a)
            a = self.mul(a, a)
            e >>= 1
        return result

    def frob(self, a, k):
        """a^(p^k), as k successive p-th powers."""
        for _ in range(k):
            a = self.pow(a, self.p)
        return a

    def index(self, a):
        idx = 0
        for c in reversed(a):
            idx = idx * self.p + c
        return idx

    def from_index(self, idx):
        out = []
        for _ in range(self.n):
            idx, c = divmod(idx, self.p)
            out.append(c)
        return tuple(out)

    def least_generator(self):
        """The element of least index whose multiplicative order is q - 1."""
        q1 = self.order - 1
        primes = [f for f in range(2, q1 + 1) if q1 % f == 0 and all(f % d for d in range(2, f))]
        for idx in range(1, self.order):
            a = self.from_index(idx)
            if all(self.pow(a, q1 // f) != self.one for f in primes):
                return a
        raise AssertionError("the multiplicative group is cyclic")
