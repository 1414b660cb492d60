import random
from fractions import Fraction

import pytest

from skewgalois import zpoly as zp
from skewgalois.splitcon import (
    build_local_poly,
    construct_lprime,
    parse_spec,
    plan_aux_primes,
    real_root_scale,
    weak_approximation,
)


def test_discriminant_known_values():
    assert zp.discriminant([-2, 0, 1]) == 8          # x^2 - 2
    assert zp.discriminant([1, 1, 1]) == -3          # x^2 + x + 1
    assert zp.discriminant([-1, -1, 0, 1]) == -23    # x^3 - x - 1
    assert zp.discriminant([-1, -3, 0, 1]) == 81     # x^3 - 3x - 1
    assert zp.discriminant([1, 1, 1, 1, 1]) == 125   # 5th cyclotomic
    assert zp.discriminant([1, 0, 0, 0, 1]) == 256   # x^4 + 1
    assert zp.discriminant([-1, -1, 0, 0, 1]) == -283


def test_resultant_shared_root_vanishes():
    # (x-1)(x-2) shares a root with (x-1)(x-3) but not with (x-4)(x-5)
    assert zp.resultant([2, -3, 1], [3, -4, 1]) == 0
    assert zp.resultant([2, -3, 1], [20, -9, 1]) != 0


def test_resultant_multiplicative_in_roots():
    # res(f, g) = prod g(root_i) for monic f; check on split polynomials
    rng = random.Random(3)
    for _ in range(50):
        roots_f = [rng.randrange(-5, 6) for _ in range(3)]
        g = [rng.randrange(-5, 6) for _ in range(3)] + [1]
        f = [1]
        for r in roots_f:
            f = zp.zmul(f, [-r, 1])
        expected = 1
        for r in roots_f:
            expected *= zp.zeval(g, r)
        assert zp.resultant(f, g) == expected


def test_count_real_roots_from_known_factors():
    # build polynomials with a prescribed number of real roots and count them
    rng = random.Random(4)
    for _ in range(60):
        n_real = rng.randrange(4)
        n_complex_pairs = rng.randrange(2)
        f = [1]
        used = set()
        for _ in range(n_real):
            while True:
                r = rng.randrange(-20, 21)
                if r not in used:
                    used.add(r)
                    break
            f = zp.zmul(f, [-r, 1])
        for _ in range(n_complex_pairs):
            a, b = rng.randrange(-4, 5), rng.randrange(1, 5)
            # (x - a)^2 + b^2: no real roots
            f = zp.zmul(f, [a * a + b * b, -2 * a, 1])
        assert zp.count_real_roots(f) == n_real


def test_count_real_roots_repeated_roots_deflated():
    # (x-1)^2 (x+2) has two distinct real roots
    f = zp.zmul(zp.zmul([-1, 1], [-1, 1]), [2, 1])
    assert zp.count_real_roots(f) == 2


def test_count_real_roots_huge_coefficients():
    s = 10**40
    f = [1]
    for j in (1, 2, 3):
        f = zp.zmul(f, [-j * s, 1])
    assert zp.count_real_roots(f) == 3


def test_integer_roots_monic():
    assert zp.integer_roots_monic([-6, 11, -6, 1]) == [1, 2, 3]
    assert zp.integer_roots_monic([2, 0, 1]) == []
    assert zp.integer_roots_monic([0, 0, 1]) == [0]
    # huge roots found without divisor enumeration
    r = 10**30 + 7
    f = zp.zmul([-r, 1], [5, 0, 1])
    assert zp.integer_roots_monic(f) == [r]


def test_integer_roots_monic_repeated_and_extreme_roots():
    f = zp.zmul(zp.zmul(zp.zmul([-2, 1], [-2, 1]), [-2, 1]), zp.zmul([1, 1], [1, 1]))
    assert zp.integer_roots_monic(f) == [-1, 2]  # (x-2)^3 (x+1)^2
    # x(x - c) and x(x + c) have Cauchy bound 1 + c: roots at +-(bound - 1)
    for c in (1, 7, 10**20):
        assert zp.integer_roots_monic([0, -c, 1]) == [0, c]
        assert zp.integer_roots_monic([0, c, 1]) == [-c, 0]


def test_integer_roots_vs_scan():
    rng = random.Random(8)
    for _ in range(100):
        roots = sorted({rng.randrange(-8, 9) for _ in range(rng.randrange(4))})
        f = [1]
        for r in roots:
            f = zp.zmul(f, [-r, 1])
        f = zp.zmul(f, [rng.randrange(1, 7), 0, 1])  # irrational/complex pad
        assert zp.integer_roots_monic(f) == roots


# -- resultant against an independent Sylvester-determinant oracle ------------


def _mul(f, g):
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += a * b
    return out


def _trim(f):
    f = list(f)
    while f and f[-1] == 0:
        f.pop()
    return f


def _sylvester_det(f, g):
    """Resultant as the Sylvester determinant, by Gaussian elimination over Q."""
    f, g = _trim(f), _trim(g)
    if not f or not g:
        return 0
    m, n = len(f) - 1, len(g) - 1
    size = m + n
    rows = [[0] * i + f[::-1] + [0] * (n - 1 - i) for i in range(n)]
    rows += [[0] * i + g[::-1] + [0] * (m - 1 - i) for i in range(m)]
    M = [[Fraction(c) for c in row] for row in rows]
    det = Fraction(1)
    for k in range(size):
        piv = next((i for i in range(k, size) if M[i][k]), None)
        if piv is None:
            return 0
        if piv != k:
            M[k], M[piv] = M[piv], M[k]
            det = -det
        det *= M[k][k]
        for i in range(k + 1, size):
            factor = M[i][k] / M[k][k]
            if factor:
                for j in range(k, size):
                    M[i][j] -= factor * M[k][j]
    assert det.denominator == 1
    return int(det)


def _remainder_degrees(f, g):
    """Degrees of the Euclidean remainder sequence of f, g over Q."""
    a, b = [Fraction(c) for c in _trim(f)], [Fraction(c) for c in _trim(g)]
    if len(a) < len(b):
        a, b = b, a
    degs = [len(a) - 1, len(b) - 1]
    while len(b) > 1:
        a = list(a)
        while len(a) >= len(b):
            q = a[-1] / b[-1]
            k = len(a) - len(b)
            for i, c in enumerate(b):
                a[k + i] -= q * c
            a = _trim(a)
        a, b = b, a
        if not b:
            break
        degs.append(len(b) - 1)
    return degs


def test_resultant_edge_cases_against_sylvester():
    cases = [
        ([], [1, 2]), ([0, 0], [5]), ([3], []),            # zero polynomials
        ([3], [1, 2, 1]), ([1, 2, 1], [-2]), ([5], [7]),    # constants either side
        ([-4], [0, 0, 0, 6]),
        ([1, 1], [0, 1, 0, 1]), ([2, 0, 3], [1, 0, 0, -2, 0, 5]),  # odd-odd swap
        ([6, 4, -2], [9, 0, 3, 6]),                         # content > 1
        ([1, 0, -3], [4, 2, 0, -6]),                        # negative leading coefficients
        ([1, 0, 0, 0, 1], [0, 0, 0, 1]),                    # deg 4 -> 3 -> 0 skip
        ([2, -3, 1], [3, -4, 1]),                           # common root 1
    ]
    for f, g in cases:
        assert zp.resultant(f, g) == _sylvester_det(f, g), (f, g)
    assert zp.resultant([3], [1, 2, 1]) == 9
    assert zp.resultant([5], [7]) == 1
    assert zp.resultant([2, -3, 1], [3, -4, 1]) == 0


def test_resultant_randomized_against_sylvester():
    rng = random.Random(2024)
    seen = set()
    for _ in range(400):
        df, dg = rng.randrange(0, 8), rng.randrange(0, 8)
        f = [rng.randrange(-9, 10) for _ in range(df)] + [rng.choice([-6, -3, -1, 1, 2, 5])]
        g = [rng.randrange(-9, 10) for _ in range(dg)] + [rng.choice([-4, -1, 1, 3, 7])]
        if rng.random() < 0.4:  # sparse: the remainder sequence may skip degrees
            f = [c if i == df or rng.random() < 0.4 else 0 for i, c in enumerate(f)]
            g = [c if i == dg or rng.random() < 0.4 else 0 for i, c in enumerate(g)]
        if rng.random() < 0.25:  # a shared factor: resultant 0
            h = [rng.randrange(-3, 4), rng.choice([-2, 1, 3])]
            f, g = _mul(f, h), _mul(g, h)
            seen.add("common")
        if rng.random() < 0.25:
            f = [c * rng.choice([2, 3, 6]) for c in f]
            seen.add("content")
        r = zp.resultant(f, g)
        assert r == _sylvester_det(f, g), (f, g)
        assert zp.resultant(g, f) == (-1) ** ((len(f) - 1) * (len(g) - 1)) * r
        m, n = len(f) - 1, len(g) - 1
        if m < n and m % 2 and n % 2:
            seen.add("odd-swap")
        if f[-1] < 0 or g[-1] < 0:
            seen.add("negative-lc")
        if min(m, n) >= 1:
            degs = _remainder_degrees(f, g)
            if any(a - b >= 2 for a, b in zip(degs[1:], degs[2:])):
                seen.add("skip")
    assert seen == {"common", "content", "odd-swap", "negative-lc", "skip"}


def test_count_real_roots_against_sympy_with_repeated_roots():
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    rng = random.Random(17)
    for _ in range(150):
        f = [rng.choice([1, -1, 3, -4])]
        for _ in range(rng.randrange(1, 5)):
            r = rng.randrange(-12, 13)
            lin = [-r, 1] if rng.random() < 0.7 else [r, rng.choice([2, -3])]
            for _ in range(rng.randrange(1, 4)):  # multiplicity 1 to 3
                f = zp.zmul(f, lin)
        for _ in range(rng.randrange(3)):
            a, b = rng.randrange(-4, 5), rng.randrange(1, 5)
            f = zp.zmul(f, [a * a + b * b, -2 * a, 1])
        assert zp.count_real_roots(f) == sympy.Poly(f[::-1], x).count_roots(), f


@pytest.mark.parametrize("n", [6, 8])
def test_count_real_roots_against_sympy_on_constructor_output(n):
    sympy = pytest.importorskip("sympy")
    specs = [parse_spec(s) for s in ("3:rq", "inf:ts", "7:ts:ramL")]
    report = construct_lprime(specs, p_kernel=5, n_min=n)
    assert report.n == n
    Q = list(report.Q)
    assert zp.count_real_roots(Q) == sympy.Poly(Q[::-1], sympy.Symbol("x")).count_roots() == n


def test_discriminant_against_sympy_on_constructor_polynomial():
    sympy = pytest.importorskip("sympy")
    # a degree-12 polynomial glued like the constructor's for the
    # huge-coefficient specs, but at precision 64 at every place (the
    # constructor now derives a lower one per place): 3612-digit coefficients
    specs = [parse_spec(s) for s in ("3:rq", "inf:ts", "7:ts:ramL")]
    n, precision = 12, 64
    aux = plan_aux_primes([s.prime for s in specs], {7}, n)
    locals_ = [build_local_poly(s, n, precision) for s in specs[::2] + aux]
    target = list(build_local_poly(specs[1], n, 0).coeffs)
    Q = weak_approximation(locals_, target, root_scale=real_root_scale(n))
    assert max(len(str(abs(c))) for c in Q) == 3612
    x = sympy.Symbol("x")
    assert zp.discriminant(Q) == sympy.discriminant(sympy.Poly(Q[::-1], x))
