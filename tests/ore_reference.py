"""Reference right Euclidean chains on OrePoly arithmetic, for the tests.

The library runs its gcd, lcm and witness chains on coefficient ints, one
accumulating kernel call per cofactor update and one cofactor.  These run
the chain on whole polynomials instead: a right division, a product and an
OrePoly sum per cofactor and step, with both cofactors s and t of
r_i = s_i f + t_i g kept, so the witness's second polynomial is read off t
and not divided out.
"""

from skewgalois.orepoly import OrePoly, anti_involution, ore_mul, ore_right_divmod


def right_gcd(f: OrePoly, g: OrePoly) -> OrePoly:
    """Monic greatest common right divisor."""
    a, b = f, g
    while not b.is_zero():
        a, b = b, ore_right_divmod(a, b).remainder
    return a.monic()


def left_lcm_with_multipliers(f: OrePoly, g: OrePoly) -> tuple[OrePoly, OrePoly, OrePoly]:
    """(m, u, v) with m = u*f = v*g of minimal degree."""
    ring = f.ring
    one, zero = ring.one(), ring.zero()
    # r_i = s_i*f + t_i*g maintained under r_{i+1} = r_{i-1} - q_i*r_i
    r0, r1 = f, g
    s0, s1 = one, zero
    t0, t1 = zero, one
    while not r1.is_zero():
        q, r = ore_right_divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, s0 - ore_mul(q, s1)
        t0, t1 = t1, t0 - ore_mul(q, t1)
    # now r1 = 0, so s1*f = -t1*g is the least common left multiple
    return ore_mul(s1, f), s1, -t1


def left_lcm(f: OrePoly, g: OrePoly) -> OrePoly:
    return left_lcm_with_multipliers(f, g)[0].monic()


def witness(x: OrePoly, y: OrePoly) -> tuple[OrePoly, OrePoly]:
    """r, s with x*r = y*s != 0, through the mirror ring."""
    _, u, v = left_lcm_with_multipliers(anti_involution(x), anti_involution(y))
    return anti_involution(u), anti_involution(v)
