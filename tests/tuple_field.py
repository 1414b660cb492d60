"""A reference finite field on coefficient tuples, and list arithmetic in
F_p[x], for the tests.

Polynomials are ascending coefficient lists over Z/p, the zero polynomial
the empty list.  Everything here is schoolbook on lists (products,
division, square-and-multiply, the extended Euclid, distinct-degree
factorization), written out in this file: it imports nothing from
skewgalois, so it shares no code with the packed ints of skewgalois.modpoly
or the element ints of skewgalois.ffield (discrete logs, packed slots,
Zech tables, Frobenius columns or Itoh-Tsujii inversion).
"""


def normalize(f, p):
    f = [c % p for c in f]
    while f and f[-1] == 0:
        f.pop()
    return f


def add(f, g, p):
    n = max(len(f), len(g))
    return normalize([(f[i] if i < len(f) else 0) + (g[i] if i < len(g) else 0)
                      for i in range(n)], p)


def sub(f, g, p):
    return add(f, [-c for c in g], p)


def mul(f, g, p):
    if not f or not g:
        return []
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += a * b
    return normalize(out, p)


def scalar_mul(c, f, p):
    return normalize([c * a for a in f], p)


def divmod_poly(f, g, p):
    """Quotient and remainder of f by a nonzero g."""
    f, g = normalize(f, p), normalize(g, p)
    if not g:
        raise ZeroDivisionError("polynomial division by zero")
    q = [0] * max(0, len(f) - len(g) + 1)
    inv_lead = pow(g[-1], -1, p)
    while len(f) >= len(g):
        c = f[-1] * inv_lead % p
        k = len(f) - len(g)
        q[k] = c
        f = sub(f, [0] * k + scalar_mul(c, g, p), p)
    return normalize(q, p), f


def pow_mod(f, e, m, p):
    """f^e mod m by square-and-multiply."""
    result, base = divmod_poly([1], m, p)[1], divmod_poly(f, m, p)[1]
    while e > 0:
        if e & 1:
            result = divmod_poly(mul(result, base, p), m, p)[1]
        base = divmod_poly(mul(base, base, p), m, p)[1]
        e >>= 1
    return result


def xgcd(f, g, p):
    """Extended Euclid: (d, s, t) with d the monic gcd (0 for two zero
    inputs) and s*f + t*g = d; deg t < deg f - deg d when deg g < deg f."""
    r0, r1 = normalize(f, p), normalize(g, p)
    s0, s1 = [1], []
    t0, t1 = [], [1]
    while r1:
        q, r = divmod_poly(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, sub(s0, mul(q, s1, p), p)
        t0, t1 = t1, sub(t0, mul(q, t1, p), p)
    if not r0:
        return [], s0, t0
    inv = pow(r0[-1], -1, p)
    return tuple(scalar_mul(inv, h, p) for h in (r0, s0, t0))


def gcd(f, g, p):
    return xgcd(f, g, p)[0]


def x_q_pow_mod(m, p, d):
    """x^(p^d) mod m, by d repeated p-th powers."""
    r = divmod_poly([0, 1], m, p)[1]
    for _ in range(d):
        r = pow_mod(r, p, m, p)
    return r


def is_irreducible(f, p):
    """The distinct-degree test for a monic f of degree n >= 1:
    x^(p^n) = x mod f, and gcd(x^(p^d) - x, f) = 1 at every proper divisor d
    of n."""
    n = len(f) - 1
    for d in range(1, n):
        if n % d == 0 and len(gcd(sub(x_q_pow_mod(f, p, d), [0, 1], p), f, p)) > 1:
            return False
    return not divmod_poly(sub(x_q_pow_mod(f, p, n), [0, 1], p), f, p)[1]


def ddf_pattern(f, p):
    """The sorted degrees of the irreducible factors of a squarefree f, by
    distinct-degree factorization: the product of the factors of degree d
    is gcd(x^(p^d) - x, f) once those of lower degree are divided out."""
    f = normalize(f, p)
    pattern, d, h = [], 0, [0, 1]  # h = x^(p^d) mod f
    while len(f) > 1:
        d += 1
        h = pow_mod(h, p, f, p)
        g = gcd(sub(h, [0, 1], p), f, p)
        pattern += [d] * ((len(g) - 1) // d)
        f = divmod_poly(f, g, p)[0]
    return pattern


class TupleField:
    """F_p[x]/(modulus) on length-n coefficient tuples, ascending."""

    def __init__(self, F):
        self.p, self.n = F.p, F.n
        self.order = F.order
        self.modulus = list(F.modulus)
        self.zero = (0,) * self.n
        self.one = (1,) + (0,) * (self.n - 1)
        # x^i mod the modulus for n <= i <= 2n - 2, the high terms of a product
        self._high = [self._pad(divmod_poly([0] * i + [1], self.modulus, self.p)[1])
                      for i in range(self.n, 2 * self.n - 1)]

    def _pad(self, f):
        return tuple(f + [0] * (self.n - len(f)))

    def add(self, a, b):
        return tuple((x + y) % self.p for x, y in zip(a, b))

    def neg(self, a):
        return tuple(-x % self.p for x in a)

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def mul(self, a, b):
        """The schoolbook product, its terms of degree n and up folded back
        through _high, taken mod p once at the end."""
        n = self.n
        prod = [0] * (2 * n - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    prod[i + j] += x * y
        low = prod[:n]
        for c, row in zip(prod[n:], self._high):
            if c:
                for i, r in enumerate(row):
                    low[i] += c * r
        return tuple(c % self.p for c in low)

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
