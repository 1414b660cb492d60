"""Exact integer arithmetic helpers: primality, factoring, CRT, valuations.

Everything works on plain Python ints so there is no precision ceiling;
these routines back the finite-field kernel and the integer-polynomial
constructions.  Record, the frozen value-record base of the library's
result and handle classes, lives here too, in the module every other one
imports.  Primality alone is bounded: is_prime proves its answer for
every n below PRIME_BOUND = psi_13 = 3317044064679887385961981 (about
3.3 * 10^24) and raises ValueError from there on, so no caller can act on
an unproved answer.
"""

from __future__ import annotations

import math
from functools import lru_cache
from operator import attrgetter

# The primes up to 41: trial divisors, then Miller-Rabin bases
_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)

# psi_13, the least strong pseudoprime to every base in _SMALL_PRIMES
# (Sorenson and Webster, "Strong pseudoprimes to twelve prime bases", Math.
# Comp. 86, 2017): 1287836182261 * 2575672364521.  Below it Miller-Rabin at
# those bases proves primality; is_prime refuses it and every larger n.
# Base 41 is needed: psi_12 = 318665857834031151167461 passes bases 2-37.
PRIME_BOUND = 3317044064679887385961981


def is_int(x) -> bool:
    """An int that is not a bool, as JSON input must give it."""
    return isinstance(x, int) and not isinstance(x, bool)


def all_ints(values) -> bool:
    """Whether every item of values is of type int, so none is a bool, as
    JSON input must give them: their types gathered in C, then a count of
    int."""
    types = list(map(type, values))
    return types.count(int) == len(types)


def is_prime(n: int) -> bool:
    """Whether n is prime, proved for every n below PRIME_BOUND; a
    ValueError for n >= PRIME_BOUND, whose answer would be unproved."""
    if n >= PRIME_BOUND:
        raise ValueError(f"primality is proved only below {PRIME_BOUND}")
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _SMALL_PRIMES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def next_prime(n: int) -> int:
    """Smallest prime strictly greater than n."""
    k = n + 1
    if k <= 2:
        return 2
    if k % 2 == 0:
        k += 1
    while not is_prime(k):
        k += 2
    return k


def primes_up_to(n: int) -> list[int]:
    """Sieve of Eratosthenes."""
    if n < 2:
        return []
    mark = bytearray([1]) * (n + 1)
    mark[0] = mark[1] = 0
    for p in range(2, math.isqrt(n) + 1):
        if mark[p]:
            mark[p * p :: p] = bytearray(len(mark[p * p :: p]))
    return [i for i in range(2, n + 1) if mark[i]]


_TRIAL_LIMIT = 1 << 16


@lru_cache(maxsize=None)
def factorize(n: int) -> tuple[tuple[int, int], ...]:
    """Prime factorization as ((p, exponent), ...), primes ascending.

    Trial division finds every prime factor below 2^16, so it alone
    factors every n < 2^32.  A larger cofactor is tested by is_prime and
    split by Pollard-Brent rho; one at or past PRIME_BOUND is is_prime's
    ValueError.
    """
    if n < 1:
        raise ValueError("factorize expects a positive integer")
    out: list[tuple[int, int]] = []
    for p in (2, 3):
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        if e:
            out.append((p, e))
    f = 5
    while f * f <= n and f < _TRIAL_LIMIT:
        for p in (f, f + 2):
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            if e:
                out.append((p, e))
        f += 6
    if n > 1:
        primes = [n] if f * f > n else sorted(_prime_factors(n))
        out.extend((p, primes.count(p)) for p in sorted(set(primes)))
    return tuple(out)


def _prime_factors(n: int) -> list[int]:
    """Prime factors of n > 1 with multiplicity, in no particular order."""
    if is_prime(n):
        return [n]
    d = _rho_brent(n)
    return _prime_factors(d) + _prime_factors(n // d)


def _rho_brent(n: int) -> int:
    """A proper factor of an odd composite n: Pollard's rho with Brent's
    cycle detection, the differences multiplied in batches of 128 between
    gcds (Brent, "An improved Monte Carlo factorization algorithm", 1980).
    A batch that overshoots to gcd n is replayed one step at a time, and
    a walk that still meets n is retried with the next constant c."""
    for c in range(1, n):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                g = math.gcd(q, n)
                k += 128
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(x - ys, n)
        if g != n:
            return g
    raise AssertionError("unreachable: rho splits every odd composite")


def prime_power_base(q: int) -> int | None:
    """Return p if q = p^k for a prime p, else None."""
    if q < 2:
        return None
    fac = factorize(q)
    if len(fac) == 1:
        return fac[0][0]
    return None


def valuation(n: int, p: int) -> int:
    """p-adic valuation of a nonzero integer, in O(log v) divisions: the
    lowest set bit at p = 2; otherwise divide by p, p^2, p^4, ... while they
    divide, then by the same powers back down."""
    if n == 0:
        raise ValueError("valuation of 0 is infinite")
    if p == 2:
        return (n & -n).bit_length() - 1
    powers = []
    q = p
    while n % q == 0:
        n //= q
        powers.append(q)
        q *= q
    v = (1 << len(powers)) - 1
    for i in reversed(range(len(powers))):
        if n % powers[i] == 0:
            n //= powers[i]
            v += 1 << i
    return v


def crt_pair(r1: int, m1: int, r2: int, m2: int) -> tuple[int, int]:
    """Combine x = r1 mod m1, x = r2 mod m2 for coprime moduli."""
    g = math.gcd(m1, m2)
    if g != 1:
        raise ValueError("crt moduli must be coprime")
    m = m1 * m2
    x = (r1 * m2 * pow(m2, -1, m1) + r2 * m1 * pow(m1, -1, m2)) % m
    return x, m


def crt(residues: list[int], moduli: list[int]) -> tuple[int, int]:
    """Chinese remainder combination over pairwise coprime moduli."""
    if len(residues) != len(moduli):
        raise ValueError("residue/modulus length mismatch")
    x, m = 0, 1
    for r, mi in zip(residues, moduli):
        x, m = crt_pair(x, m, r % mi, mi)
    return x, m


def centered_rep(r: int, m: int) -> int:
    """Representative of r mod m with smallest absolute value (ties positive)."""
    r %= m
    if 2 * r > m:
        return r - m
    return r


def nearest_rep(r: int, m: int, target: int) -> int:
    """Representative of r mod m nearest to target (ties toward smaller |.|)."""
    r %= m
    k = (target - r + m // 2) // m
    cands = sorted({r + (k + d) * m for d in (-1, 0, 1)}, key=lambda v: (abs(v - target), abs(v), -v))
    return cands[0]


def is_square(n: int) -> bool:
    if n < 0:
        return False
    r = math.isqrt(n)
    return r * r == n


def sqrt_mod_prime(a: int, p: int) -> int | None:
    """Square root of a mod odd prime p via Tonelli-Shanks; None if a is a non-residue."""
    a %= p
    if a == 0:
        return 0
    if p == 2:
        return a
    if pow(a, (p - 1) // 2, p) != 1:
        return None
    if p % 4 == 3:
        return pow(a, (p + 1) // 4, p)
    # Tonelli-Shanks
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    m, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        i, t2 = 1, t * t % p
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        r, c, t, m = r * b % p, b * b % p, t * b * b % p, i
    return r


# Sets a field of a Record from its own __init__, past the frozen __setattr__.
set_field = object.__setattr__


class Record:
    """Base of the library's immutable value records, built by plain code:
    nothing is imported for it and no method is generated at import.

    A subclass lists its fields in __slots__, in constructor order, and sets
    each one in its own __init__ by set_field(self, name, value); from then
    on, assigning or deleting any attribute raises AttributeError.  Equality
    holds between records of the same class whose fields are equal, except
    the fields named in _uncompared, which hashing leaves out too; the hash
    is that of the tuple of the compared fields.  The repr shows every field,
    as Name(field=value, ...).
    """

    __slots__ = ()
    _uncompared: tuple[str, ...] = ()

    def __init_subclass__(cls):
        # _key(record): the compared fields as a tuple, also for one field
        names = [n for n in cls.__slots__ if n not in cls._uncompared]
        get = attrgetter(*names)
        cls._key = staticmethod(get if len(names) > 1 else lambda record: (get(record),))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            key = self._key
            return key(self) == key(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in self.__slots__)
        return f"{type(self).__qualname__}({fields})"
