"""Dense univariate polynomial arithmetic over Z/p.

Polynomials are ascending coefficient lists of ints in [0, p); the zero
polynomial is the empty list.  This kernel backs both the finite-field
tower (field moduli, irreducibility) and the integer-polynomial
certificates (squarefreeness, distinct-degree patterns, root finding).

add, sub, mul and eval_poly never divide, and divmod_poly inverts only
the leading coefficient of the divisor, so these work mod any modulus M,
prime or not, when the divisor is monic and the coefficients lie in
[0, M); the p-adic root tree in splitcon runs eval_poly mod p^K,
K = 2 precision + 2.
"""

from __future__ import annotations

from functools import lru_cache

from .zarith import is_prime


def normalize(f: list[int], p: int) -> list[int]:
    f = [c % p for c in f]
    while f and f[-1] == 0:
        f.pop()
    return f


def degree(f: list[int]) -> int:
    """Degree, with deg 0 = -1 for the zero polynomial."""
    return len(f) - 1


def add(f: list[int], g: list[int], p: int) -> list[int]:
    n = max(len(f), len(g))
    out = [0] * n
    for i, c in enumerate(f):
        out[i] = c
    for i, c in enumerate(g):
        out[i] = (out[i] + c) % p
    while out and out[-1] == 0:
        out.pop()
    return out


def sub(f: list[int], g: list[int], p: int) -> list[int]:
    return add(f, [(-c) % p for c in g], p)


def mul(f: list[int], g: list[int], p: int) -> list[int]:
    if not f or not g:
        return []
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] = (out[i + j] + a * b) % p
    while out and out[-1] == 0:
        out.pop()
    return out


def scalar_mul(c: int, f: list[int], p: int) -> list[int]:
    c %= p
    return normalize([c * a for a in f], p)


def divmod_poly(f: list[int], g: list[int], p: int) -> tuple[list[int], list[int]]:
    if not g:
        raise ZeroDivisionError("polynomial division by zero")
    f = list(f)
    q = [0] * max(0, len(f) - len(g) + 1)
    inv_lead = pow(g[-1], -1, p)
    while len(f) >= len(g) and f:
        c = f[-1] * inv_lead % p
        k = len(f) - len(g)
        q[k] = c
        for i, b in enumerate(g):
            f[k + i] = (f[k + i] - c * b) % p
        while f and f[-1] == 0:
            f.pop()
    while q and q[-1] == 0:
        q.pop()
    return q, f


def gcd(f: list[int], g: list[int], p: int) -> list[int]:
    """Monic greatest common divisor."""
    a, b = normalize(f, p), normalize(g, p)
    while b:
        a, b = b, divmod_poly(a, b, p)[1]
    if a:
        a = scalar_mul(pow(a[-1], -1, p), a, p)
    return a


def pow_mod(f: list[int], e: int, m: list[int], p: int) -> list[int]:
    """f^e mod m by square-and-multiply."""
    result = [1]
    base = divmod_poly(f, m, p)[1]
    while e > 0:
        if e & 1:
            result = divmod_poly(mul(result, base, p), m, p)[1]
        base = divmod_poly(mul(base, base, p), m, p)[1]
        e >>= 1
    return result


def x_q_pow_mod(m: list[int], p: int, d: int) -> list[int]:
    """x^(p^d) mod m, by d repeated p-th powers."""
    r = [0, 1]
    r = divmod_poly(r, m, p)[1]
    for _ in range(d):
        r = pow_mod(r, p, m, p)
    return r


def eval_poly(f: list[int], x: int, p: int) -> int:
    y = 0
    for c in reversed(f):
        y = (y * x + c) % p
    return y


def derivative(f: list[int], p: int) -> list[int]:
    return normalize([(i * c) % p for i, c in enumerate(f)][1:], p)


def is_squarefree(f: list[int], p: int) -> bool:
    f = normalize(f, p)
    if degree(f) <= 0:
        return bool(f)
    return degree(gcd(f, derivative(f, p), p)) == 0


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
    h = [0, 1]
    for _ in range(n // 2):
        h = pow_mod(h, p, f, p)
        if degree(gcd(sub(h, [0, 1], p), f, p)) != 0:
            return False
    return True


def _monic_from_index(idx: int, n: int, p: int) -> list[int]:
    # Non-leading coefficients read off as base-p digits of idx.
    coeffs = []
    for _ in range(n):
        coeffs.append(idx % p)
        idx //= p
    return coeffs + [1]


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
    f = scalar_mul(pow(f[-1], -1, p), f, p)
    if not is_squarefree(f, p):
        raise ValueError("distinct-degree pattern requires a squarefree polynomial")
    pattern: list[int] = []
    d = 1
    h = [0, 1]  # x^(p^d) mod f, updated incrementally
    while degree(f) >= 2 * d:
        h = pow_mod(h, p, f, p)
        g = gcd(sub(h, [0, 1], p), f, p)
        if degree(g) > 0:
            pattern.extend([d] * (degree(g) // d))
            f = divmod_poly(f, g, p)[0]
            h = divmod_poly(h, f, p)[1]
        d += 1
    if degree(f) > 0:
        pattern.append(degree(f))
    return sorted(pattern)


def roots_mod_p(f: list[int], p: int) -> list[int]:
    """Distinct roots of f mod p, sorted ascending."""
    f = normalize(f, p)
    if not f:
        raise ValueError("zero polynomial has every residue as a root")
    if p <= 4096:
        return [x for x in range(p) if eval_poly(f, x, p) == 0]
    # Large p: split off the linear part with gcd(x^p - x, f), then find
    # its roots by equal-degree splitting.
    lin = gcd(sub(x_q_pow_mod(f, p, 1), [0, 1], p), f, p)
    return sorted(_split_linear(lin, p))


def _split_linear(f: list[int], p: int) -> list[int]:
    # f is monic, squarefree, and a product of distinct linear factors.
    n = degree(f)
    if n <= 0:
        return []
    if n == 1:
        return [(-f[0]) % p]
    c = 0
    while True:
        # gcd with (x + c)^((p-1)/2) - 1 splits the root set; scan c deterministically
        h = pow_mod([c, 1], (p - 1) // 2, f, p)
        g = gcd(sub(h, [1], p), f, p)
        if 0 < degree(g) < n:
            rest = divmod_poly(f, g, p)[0]
            return _split_linear(g, p) + _split_linear(rest, p)
        c += 1
