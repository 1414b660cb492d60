"""Constructor for monic integer polynomials with prescribed splitting
behavior at finitely many places, certified to have full symmetric Galois
group and to be linearly disjoint from a given extension.

Given a finite set of places with the required behavior (totally split,
or ramified quadratic at the finite primes where the given L is
unramified), the pipeline is:

  1. plan four auxiliary primes: one ramified-quadratic prime, the least
     odd p >= n - 1 avoiding the ramification of L, and three unramified
     primes of local degrees n, n-1, and 2;
  2. build one local polynomial per finite place (a product of the wanted
     local factor and distinct linear factors) to the place's own
     precision p^k, a k at which every polynomial congruent to it passes
     the place's certificate: k = 1 at an unramified place, and at
     a totally split or ramified-quadratic place k > 2 v_p(target'(r)) at
     each target root r, so Newton's condition holds there (k >= 2 for the
     Eisenstein factor);
  3. glue them by CRT on each coefficient, steering the representatives
     toward a widely-spread all-real-roots target when the real place is
     prescribed;
  4. certify everything directly on the glued polynomial, once: one local
     check per place, whose factorization degree patterns mod the
     unramified auxiliary primes are also the cycle types forcing the
     full symmetric group; Eisenstein quadratic factors read from
     v_p(Q(0)) on the Newton polygon, p-adic root certificates via
     Newton's condition at the place's target roots, real root counts via
     sign alternation at points between the target roots, and an odd
     discriminant valuation at the ramified-quadratic auxiliary prime,
     read from the discriminant of Q mod the square of that prime (so the
     quadratic resolvent field already ramifies where L does not).

Q is built once, and no certificate can fail on it (the constructor judges it
by verify_report's failure list, and a failure raises AssertionError):
  - an unramified place reads Q mod p, which is its target;
  - at a ts or rq target root r, v(Q(r)) >= k > 2 v(Q'(r)), and
    v(Q(r)) - v(Q'(r)) > v(r - c) for every other target c, since
    k > 2 v(Q'(r)) >= v(Q'(r)) + v(r - c); so Newton's condition holds at
    each target and the targets lift to distinct roots;
  - each coefficient is within M/2 of the scaled real target's, M the CRT
    modulus, and at the points (j + 1/2) s, s = real_root_scale(n) M, the
    target's value beats that for every n <= DEGREE_MAX (3.0 times at n = 1,
    4.1 at n = 2, more after that), so the signs alternate: n real roots;
  - at the first auxiliary prime p, odd and at least n - 1, Hensel splits
    Q = A B over Z_p with A = X^2 - p and B = prod (X - t) mod p^2 (the
    resultant is a unit); B is separable mod p, so v(disc Q) = v(4p) = 1.

Every claim in the emitted report is re-derivable from Q alone; verify_report
re-derives the claimed places' certificates by the constructor's derivation
and accepts no other certificate form, so a Q the constructor did not make
can fail a certificate that a slower, general test would pass.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field

from . import modpoly
from .zarith import (
    centered_rep,
    crt,
    factorize,
    is_int,
    is_prime,
    nearest_rep,
    next_prime,
    prime_power_base,
    valuation,
)
from .zpoly import (
    reduce_mod,
    resultant,
    zderivative,
    zeval,
    zmul,
    znormalize,
)

REAL = "inf"

KIND_TOTALLY_SPLIT = "ts"
KIND_RAMIFIED_QUADRATIC = "rq"
KIND_UNRAMIFIED = "ur"

# Largest degree the constructor builds, and the largest degree of an
# unramified spec: not a limit of the method.  On the spec sets
# "3:rq, inf:ts, 7:ts:ramL" and "2:rq, inf:ts" (one CLI run each, Python
# 3.11, 2 shared CPUs) construct-lprime and verify-report take 0.1-0.2 s
# each at n = 20 and, with the cap raised, at n = 32 (0.3-0.5 s at n = 64,
# where Q's coefficients pass the int-to-string limit of 4300 digits).
DEGREE_MAX = 20


class SpecError(ValueError):
    pass


def _is_prime(n: int) -> bool:
    """zarith.is_prime, with its refusal of n >= PRIME_BOUND a SpecError."""
    try:
        return is_prime(n)
    except ValueError as exc:
        raise SpecError(f"{n} is not provably prime: {exc}") from None


@dataclass(frozen=True)
class LocalSpec:
    """Prescribed behavior at one place: a finite prime or the real place.

    kind is one of "ts" (totally split), "rq" (ramified quadratic) or
    "ur" (unramified of the stated degree).
    """

    prime: int | str
    kind: str
    degree: int | None = None
    ram_in_L: bool = False

    def __post_init__(self):
        if self.prime == REAL:
            if self.kind != KIND_TOTALLY_SPLIT:
                raise SpecError("the real place only supports totally split")
        else:
            if not isinstance(self.prime, int) or not _is_prime(self.prime):
                raise SpecError(f"{self.prime!r} is not a prime or '{REAL}'")
        if self.kind == KIND_UNRAMIFIED:
            if self.degree is None or self.degree < 1:
                raise SpecError("unramified kind needs a degree >= 1")
            if self.degree > DEGREE_MAX:
                raise SpecError(f"unramified degree {self.degree} exceeds the cap {DEGREE_MAX}")
        elif self.kind not in (KIND_TOTALLY_SPLIT, KIND_RAMIFIED_QUADRATIC):
            raise SpecError(f"unknown kind {self.kind!r}")
        if not isinstance(self.ram_in_L, bool):
            raise SpecError("spec field 'ram_in_L' must be a boolean")

    def min_degree(self) -> int:
        if self.kind == KIND_RAMIFIED_QUADRATIC:
            return 2
        if self.kind == KIND_UNRAMIFIED:
            return self.degree
        return 1

    def to_string(self) -> str:
        if self.prime == REAL:
            return f"{REAL}:ts"
        k = f"ur{self.degree}" if self.kind == KIND_UNRAMIFIED else self.kind
        s = f"{self.prime}:{k}"
        if self.ram_in_L:
            s += ":ramL"
        return s

    def to_json(self) -> dict:
        out = {"prime": self.prime, "kind": self.kind, "ram_in_L": self.ram_in_L}
        if self.degree is not None:
            out["degree"] = self.degree
        return out


def parse_spec(text: str) -> LocalSpec:
    """Parse the grammar "<prime>:ts|rq|ur<m>[:ramL]" or "inf:ts"."""
    parts = text.strip().split(":")
    if len(parts) < 2 or len(parts) > 3:
        raise SpecError(f"bad spec string {text!r}")
    head, kind = parts[0], parts[1]
    ram = False
    if len(parts) == 3:
        if parts[2] != "ramL":
            raise SpecError(f"bad spec suffix {parts[2]!r}")
        ram = True
    if head == REAL:
        if kind != "ts" or ram:
            raise SpecError("the real place is written 'inf:ts'")
        return LocalSpec(REAL, KIND_TOTALLY_SPLIT)
    try:
        prime = int(head)
        degree = int(kind[2:]) if kind.startswith("ur") else None
    except ValueError:
        raise SpecError(f"bad spec string {text!r}") from None
    if kind == "ts":
        return LocalSpec(prime, KIND_TOTALLY_SPLIT, ram_in_L=ram)
    if kind == "rq":
        return LocalSpec(prime, KIND_RAMIFIED_QUADRATIC, ram_in_L=ram)
    if degree is not None:
        return LocalSpec(prime, KIND_UNRAMIFIED, degree=degree, ram_in_L=ram)
    raise SpecError(f"unknown kind in {text!r}")


def spec_from_json(data: dict) -> LocalSpec:
    """Rebuild a spec from its JSON; a malformed shape raises SpecError."""
    if not isinstance(data, dict) or "prime" not in data or "kind" not in data:
        raise SpecError("a spec must be a JSON object with a 'prime' and a 'kind'")
    if data.get("degree") is not None and not is_int(data["degree"]):
        raise SpecError("spec field 'degree' must be an integer")
    return LocalSpec(
        prime=data["prime"],
        kind=data["kind"],
        degree=data.get("degree"),
        ram_in_L=data.get("ram_in_L", False),
    )


@dataclass(frozen=True)
class LocalPoly:
    """A degree-n monic polynomial modulo prime^precision (the real place
    carries exact target coefficients)."""

    prime: int | str
    precision: int
    coeffs: tuple[int, ...]

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def modulus(self) -> int:
        if self.prime == REAL:
            raise SpecError("the real target is not a congruence")
        return self.prime**self.precision


# -- operations --------------------------------------------------------------


def odd_prime_for_case_c(q: int) -> int:
    """Smallest odd prime dividing q^3 - 1 for a prime power q.

    q^3 - 1 = (q - 1)(q^2 + q + 1) and the second factor is odd, so an odd
    prime divisor always exists; found by factoring both parts.
    """
    if q < 2 or prime_power_base(q) is None:
        raise SpecError(f"{q} is not a prime power >= 2")
    candidates = [p for p, _ in factorize(q - 1) if p % 2 == 1] if q > 2 else []
    candidates.extend(p for p, _ in factorize(q * q + q + 1))
    return min(candidates)


def plan_aux_primes(
    s_primes: list[int | str], L_ram: set[int], n: int
) -> list[LocalSpec]:
    """Choose the four auxiliary primes deterministically (smallest
    admissible first) and attach their kinds:

      aux1: ramified quadratic, odd and at least n - 1 (so its n - 2
            target roots are distinct units mod p), avoiding the given
            primes and every prime ramified in L;
      aux2..aux4: unramified of degrees n, n-1, 2.

    Unramified auxiliaries additionally need enough residues mod p for
    their linear factors to stay squarefree, which only matters for large
    n at tiny primes.
    """
    if n < 2:
        raise SpecError("auxiliary planning needs n >= 2")
    used = {p for p in s_primes if p != REAL}
    out: list[LocalSpec] = []
    p = 1
    while True:
        p = next_prime(p)
        if p in used or p in L_ram or p < max(n - 1, 3):
            continue
        out.append(LocalSpec(p, KIND_RAMIFIED_QUADRATIC))
        used.add(p)
        break
    for deg in (n, n - 1, 2):
        need = n - deg if deg >= 2 else n  # linear residues needed mod p
        p = 1
        while True:
            p = next_prime(p)
            if p in used or p < need:
                continue
            out.append(LocalSpec(p, KIND_UNRAMIFIED, degree=deg))
            used.add(p)
            break
    return out


def _target_roots(spec: LocalSpec, n: int) -> list[int]:
    """The integer roots of a totally split or ramified-quadratic place's
    local target: 0..n-1, or the first n-2 positive integers prime to p."""
    if spec.kind == KIND_TOTALLY_SPLIT:
        return list(range(n))
    roots: list[int] = []
    c = 1
    while len(roots) < n - 2:
        if c % spec.prime:
            roots.append(c)
        c += 1
    return roots


def _place_precision(spec: LocalSpec, n: int) -> int:
    """A k at which every monic Q = target mod p^k passes the place's
    certificate.

    At a target root r, Q(r) = 0 and Q'(r) = target'(r) mod p^k, and
    v_p(target'(r)) = sum over the other roots c of v_p(r - c) (the
    Eisenstein factor X^2 - p is a unit at r); so Newton's condition
    v_p(Q(r)) > 2 v_p(Q'(r)) holds once k exceeds twice that sum.  The
    Eisenstein factor itself needs k >= 2, and an unramified place reads
    Q mod p only.
    """
    if spec.kind == KIND_UNRAMIFIED:
        return 1
    p = spec.prime
    roots = _target_roots(spec, n)
    s = max((sum(valuation(r - c, p) for c in roots if c != r) for r in roots), default=0)
    return max(2 * s + 1, 2 if spec.kind == KIND_RAMIFIED_QUADRATIC else 1)


def build_local_poly(spec: LocalSpec, n: int, precision: int) -> LocalPoly:
    """The degree-n local congruence target for one place.

    Totally split: n distinct integer roots 0..n-1.  Ramified quadratic:
    (X^2 - p) times n-2 distinct linear factors with nonzero residues.
    Unramified of degree m: the least irreducible degree-m polynomial mod p
    times n-m distinct linear factors avoiding its roots.  The real place
    returns the exact coefficients of prod (X - j).
    """
    if precision < 1 and spec.prime != REAL:
        raise SpecError("precision must be >= 1")
    if n < spec.min_degree():
        raise SpecError(
            f"degree {n} cannot host a local factor of degree {spec.min_degree()}"
        )
    if spec.prime == REAL:
        poly = [1]
        for j in range(1, n + 1):
            poly = zmul(poly, [-j, 1])
        return LocalPoly(REAL, 0, tuple(poly))
    p = spec.prime
    pm = p**precision
    if spec.kind in (KIND_TOTALLY_SPLIT, KIND_RAMIFIED_QUADRATIC):
        poly = [1] if spec.kind == KIND_TOTALLY_SPLIT else [-p, 0, 1]
        for r in _target_roots(spec, n):
            poly = zmul(poly, [-r, 1])
        return LocalPoly(p, precision, tuple(reduce_mod(poly, pm)))
    # unramified of degree m: least irreducible mod p plus linear padding
    m = spec.degree
    irred = modpoly.least_irreducible(p, m)
    blocked = {-irred[0] % p} if m == 1 else set()  # the root of X + irred[0]
    lins = []
    c = 0
    while len(lins) < n - m:
        if c % p not in blocked:
            lins.append(c)
        c += 1
    poly = list(irred)
    for r in lins:
        poly = zmul(poly, [-r, 1])
    return LocalPoly(p, precision, tuple(reduce_mod(poly, pm)))


def weak_approximation(
    locals_: list[LocalPoly],
    real_target: list[int] | None = None,
    root_scale: int | None = None,
) -> list[int]:
    """Glue the local congruences into one monic integer polynomial by CRT
    on each coefficient.

    Without a real target the representative of every coefficient is the
    smallest in absolute value.  With one, the target's roots are scaled by
    root_scale times the combined modulus (coefficient i picks up the
    scale to the power n - i) and each representative is chosen nearest to
    the scaled target, so the result keeps the target's real-rootedness
    once the scale dominates the CRT perturbation.
    """
    degrees = {lp.degree for lp in locals_}
    if real_target is not None:
        degrees.add(len(real_target) - 1)
    if len(degrees) > 1:
        raise SpecError("all local polynomials must share one degree")
    if not degrees:
        raise SpecError("nothing to approximate")
    n = degrees.pop()
    primes = [lp.prime for lp in locals_]
    if REAL in primes:
        raise SpecError("the real target enters through real_target, not locals")
    if len(set(primes)) != len(primes):
        raise SpecError("local primes must be pairwise distinct")
    for lp in locals_:
        if lp.coeffs[-1] % lp.modulus() != 1 % lp.modulus():
            raise SpecError("local polynomials must be monic")
    moduli = [lp.modulus() for lp in locals_]
    M = math.prod(moduli) if moduli else 1
    scaled = None
    if real_target is not None:
        s = (root_scale or 1) * M
        scaled = [c * s ** (n - i) for i, c in enumerate(real_target)]
    out = []
    for i in range(n):
        r, _ = crt([lp.coeffs[i] for lp in locals_], moduli) if locals_ else (0, 1)
        if scaled is not None:
            rep = nearest_rep(r, M, scaled[i])
        else:
            rep = centered_rep(r, M)
        out.append(rep)
    out.append(1)
    for lp, mod in zip(locals_, moduli):
        if any((a - b) % mod for a, b in zip(out, lp.coeffs)):
            raise AssertionError("CRT reconstruction failed to match a local target")
    return out


@dataclass(frozen=True)
class SnCertificate:
    """Cycle-type evidence: factorization degree patterns of Q modulo the
    unramified auxiliary primes.  The conclusion demands an n-cycle, an
    (n-1)-cycle, and a transposition pattern."""

    n: int
    patterns: dict
    conclusion: bool
    reasons: tuple[str, ...] = ()

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "patterns": {str(k): list(v) for k, v in self.patterns.items()},
            "conclusion": self.conclusion,
            "reasons": list(self.reasons),
        }


def required_patterns(n: int) -> list[tuple[int, ...]]:
    if n <= 1:
        return []
    return sorted({(n,), (n - 1, 1), (2,) + (1,) * (n - 2)}, reverse=True)


def certify_sn(Q: list[int], aux_specs: list[LocalSpec]) -> SnCertificate:
    """Check the factorization degree pattern of Q at each unramified
    auxiliary prime and conclude full symmetric group when the three
    forcing patterns are all present."""
    n = len(_monic(Q)) - 1
    checks = [certify_local_behavior(Q, s) for s in aux_specs if s.kind == KIND_UNRAMIFIED]
    return _sn_from_checks(n, checks)


def _sn_from_checks(n: int, ur_checks: list[LocalCheck]) -> SnCertificate:
    """The symmetric-group certificate read off the local checks at the
    unramified auxiliary primes: each squarefree reduction contributes its
    pattern, and a reduction that is not squarefree or not of the declared
    pattern contributes a reason."""
    patterns: dict = {}
    reasons: list[str] = []
    for check in ur_checks:
        p = check.spec.prime
        if "pattern" not in check.evidence:
            reasons.append(f"mod {p}: not squarefree")
            continue
        pattern = tuple(check.evidence["pattern"])
        patterns[p] = pattern
        if not check.passed:
            reasons.append(f"mod {p}: pattern {pattern} != declared {tuple(check.evidence['declared'])}")
    have = set(patterns.values())
    missing = [pt for pt in required_patterns(n) if pt not in have]
    conclusion = not missing and not reasons
    if missing:
        reasons.append(f"missing patterns: {missing}")
    return SnCertificate(n=n, patterns=patterns, conclusion=conclusion, reasons=tuple(reasons))


@dataclass(frozen=True)
class LocalCheck:
    spec: LocalSpec
    passed: bool
    evidence: dict = field(default_factory=dict, compare=False)
    reason: str | None = None

    def to_json(self) -> dict:
        return {
            "spec": self.spec.to_json(),
            "passed": self.passed,
            "evidence": _plain(self.evidence),
            "reason": self.reason,
        }


def _plain(obj):
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    return obj


def certified_padic_roots(
    Q: list[int], p: int, targets: Sequence[int]
) -> tuple[bool, list[dict], str | None]:
    """Certify one p-adic integer root of Q near each integer target t, by
    Newton's condition v_p(Q(t)) > 2 v_p(Q'(t)) (Neukirch, *Algebraic Number
    Theory*, II.6): Q then has exactly one root within radius
    v_p(Q(t)) - v_p(Q'(t)) of t, "exact" when Q(t) = 0.  Two targets with
    v_p(t - u) below both radii pin distinct roots; any pair closer than
    that fails the certificate.  Each root is reported known mod p^k, the
    least k with p^k above the largest target, where the targets are
    distinct residues.
    """
    Qd = zderivative(Q)
    radii = []
    for t in targets:
        q, d = zeval(Q, t), zeval(Qd, t)
        vd = valuation(d, p) if d else None
        if vd is None or q % p ** (2 * vd + 1):
            return False, [], f"Newton's condition fails at target {t}"
        radii.append(valuation(q, p) - vd if q else math.inf)
    for i, (t, rad) in enumerate(zip(targets, radii)):
        for u, other in zip(targets[:i], radii[:i]):
            if valuation(t - u, p) >= min(rad, other):
                return False, [], f"targets {u} and {t} may lift to one root"
    k = 1
    while p**k <= max(targets, default=0):
        k += 1
    return True, [
        {"root": t, "known_mod": f"{p}^{k}", "lift_radius_valuation": "exact" if rad == math.inf else rad}
        for t, rad in zip(targets, radii)
    ], None


def _disc_valuation(Q: list[int], p: int) -> int | None:
    """v_p(disc Q) for a monic Q when it is 0 or 1, else None (a zero
    discriminant or a constant Q included).

    The discriminant of a monic Q is, up to sign, res(Q, Q'), an integer
    polynomial in Q's other coefficients, so disc(Q mod p^2) = disc(Q) mod
    p^2: one resultant modulo p^2, non-zero exactly when v_p(disc Q) < 2.
    """
    QM = reduce_mod(Q, p * p)
    disc = resultant(QM, zderivative(QM)) % (p * p)
    return valuation(disc, p) if disc else None


def _signs_alternate(Q: list[int]) -> bool:
    """Whether the monic Q of degree n has the real place's certificate of
    n distinct real roots.

    The constructor aims the n roots at S, 2S, ..., nS, and S is read back
    from their sum: S = round(-2 Q[n-1] / (n(n+1))).  If Q takes n+1
    non-zero values of alternating sign at the points (j + 1/2) S for
    j = 0..n, it has a root between each two, and degree n allows no more.
    The points are read as the odd multiples (2j+1) S on 2^n Q(y/2).  Every
    constructed Q passes (module docstring).
    """
    n = len(Q) - 1
    if n < 1:
        return True  # a monic constant has its 0 real roots
    d = n * (n + 1)
    S = (-4 * Q[n - 1] + d) // (2 * d)
    F = [c << (n - i) for i, c in enumerate(Q)]
    values = [zeval(F, (2 * j + 1) * S) for j in range(n + 1)]
    return all(a < 0 < b or b < 0 < a for a, b in zip(values, values[1:]))


def _monic(Q: list[int]) -> list[int]:
    """Q without trailing zero coefficients; SpecError unless it is monic."""
    Q = znormalize(Q)
    if not Q or Q[-1] != 1:
        raise SpecError("certificate requires a monic polynomial")
    return Q


def certify_local_behavior(Q: list[int], spec: LocalSpec) -> LocalCheck:
    """Check, directly on Q, that the completion behavior at the spec's
    place is as prescribed; negative outcomes are values, not errors.

    Totally split at p: n pairwise-distinct p-adic roots, one near each
    target root 0..n-1 (certified_padic_roots), which prove Q separable;
    when p >= n they are n simple roots mod p, and the evidence says so.
    Ramified quadratic: the reduction is X^2 times a unit part, so by
    Hensel's lemma Q = A B over Z_p with A = X^2 + aX + b = X^2 mod p and
    B(0) a unit; then v(a) >= 1 and v(b) = v(Q(0)), so A is Eisenstein
    exactly when v(Q(0)) = 1 (the Newton polygon, Neukirch, *Algebraic
    Number Theory*, II.6); and the remaining n-2 roots are certified in
    Z_p near the n-2 unit target roots.  Unramified degree m:
    squarefree reduction with factorization pattern (m, 1, ..., 1).  Real
    place: Q's signs alternate at the constructor's n + 1 points
    (_signs_alternate), and the evidence key "sturm_real_roots" holds the n
    real roots that proves; otherwise it fails and claims no count.  These
    are the constructor's certificate forms, which a Q it did not make may
    fail although it has the prescribed behavior.
    """
    Q = _monic(Q)
    n = len(Q) - 1
    if spec.prime == REAL:
        if _signs_alternate(Q):
            return LocalCheck(spec, True, {"sturm_real_roots": n, "degree": n})
        return LocalCheck(
            spec, False, {"degree": n}, "signs do not alternate at the constructor's points"
        )

    p = spec.prime
    if spec.kind == KIND_TOTALLY_SPLIT:
        targets = _target_roots(spec, n)
        ok, ev, reason = certified_padic_roots(Q, p, targets)
        if ok and p >= n:
            return LocalCheck(spec, True, {"simple_roots_mod_p": targets})
        return LocalCheck(spec, ok, {"padic_roots": ev}, reason)

    if spec.kind == KIND_RAMIFIED_QUADRATIC:
        if n < 2:
            return LocalCheck(spec, False, {}, "degree too small for a quadratic factor")
        c0, c1, c2 = Q[0] % p, Q[1] % p, Q[2] % p
        if c0 != 0 or c1 != 0 or c2 == 0:
            return LocalCheck(
                spec, False, {"reduction": [c0, c1, c2]},
                "reduction mod p is not X^2 times a unit part",
            )
        vb = valuation(Q[0], p) if Q[0] else "infinite"
        if vb != 1:
            return LocalCheck(spec, False, {"v_b": vb}, "lifted quadratic factor is not Eisenstein")
        ok, ev, reason = certified_padic_roots(Q, p, _target_roots(spec, n))
        return LocalCheck(spec, ok, {"v_b": vb, "unramified_part_roots": ev}, reason)

    if spec.kind == KIND_UNRAMIFIED:
        qbar = modpoly.normalize(reduce_mod(Q, p), p)
        try:  # ddf_pattern refuses a reduction that is not squarefree
            pattern = tuple(sorted(modpoly.ddf_pattern(qbar, p), reverse=True))
        except ValueError:
            return LocalCheck(spec, False, {}, "not squarefree mod p")
        declared = tuple(sorted([spec.degree] + [1] * (n - spec.degree), reverse=True))
        return LocalCheck(
            spec, pattern == declared, {"pattern": list(pattern), "declared": list(declared)},
            None if pattern == declared else "factorization pattern mismatch",
        )

    raise SpecError(f"unsupported kind {spec.kind!r}")


@dataclass(frozen=True)
class ConstructionReport:
    """Self-contained output of the constructor: the polynomial plus every
    certificate needed to re-check it without re-running the search."""

    Q: tuple[int, ...]
    n: int
    n_min: int
    p_kernel: int
    specs: tuple[LocalSpec, ...]
    aux_specs: tuple[LocalSpec, ...]
    precision: int  # the largest of place_precision
    place_precision: dict  # finite place prime -> the k of its congruence mod p^k
    root_scale: int | None
    sn: SnCertificate
    local_checks: tuple[LocalCheck, ...]
    disjoint: dict
    extra_L_ram: tuple[int, ...] = ()  # sorted primes ramified in L beyond the :ramL specs

    def to_json(self) -> dict:
        out = {
            "Q": list(self.Q),
            "n": self.n,
            "n_min": self.n_min,
            "p_kernel": self.p_kernel,
            "specs": [s.to_json() for s in self.specs],
            "aux": [s.to_json() for s in self.aux_specs],
            "precision": self.precision,
            "place_precision": _plain(self.place_precision),
            "root_scale": self.root_scale,
            "certificates": {
                "sn": self.sn.to_json(),
                "locals": [c.to_json() for c in self.local_checks],
                "disjoint": _plain(self.disjoint),
            },
        }
        if self.extra_L_ram:
            out["extra_L_ram"] = list(self.extra_L_ram)
        return out


def real_root_scale(n: int) -> int:
    """Root spread factor making the all-real target immune to coefficient
    perturbations up to half the CRT modulus (interleaving-point estimate)."""
    return 2 * n * (n + 1) ** (n - 1) + 1


def validate_request(
    specs: list[LocalSpec], p_kernel: int, extra_L_ram: set[int] | frozenset[int] = frozenset()
) -> None:
    if not _is_prime(p_kernel) or p_kernel == 2:
        raise SpecError(
            "the kernel prime must be an odd prime (the even case needs the "
            "odd-degree ramified local extension, which is out of scope)"
        )
    seen = set()
    for s in specs:
        if s.prime in seen:
            raise SpecError(f"duplicate place {s.prime}")
        seen.add(s.prime)
        if s.prime == REAL:
            continue
        if s.ram_in_L and s.kind != KIND_TOTALLY_SPLIT:
            raise SpecError(
                f"prime {s.prime} is ramified in L and must be totally split"
            )
        if not s.ram_in_L and s.kind != KIND_RAMIFIED_QUADRATIC:
            raise SpecError(
                f"prime {s.prime} is unramified in L and must be ramified quadratic"
            )
    unramified = {s.prime for s in specs if s.prime != REAL and not s.ram_in_L}
    for q in sorted(extra_L_ram):
        if not _is_prime(q):
            raise SpecError(f"extra ramified prime {q} is not a prime")
        if q in unramified:
            raise SpecError(f"extra ramified prime {q} is a spec place not marked :ramL")


def construct_lprime(
    specs: list[LocalSpec],
    p_kernel: int,
    n_min: int,
    extra_L_ram: set[int] | frozenset[int] = frozenset(),
) -> ConstructionReport:
    """Run the full pipeline and return a verified construction report.

    The degree is the smallest even n >= max(n_min, 2) compatible with the
    specs, and at most DEGREE_MAX.  Each finite place gets the precision
    _place_precision derives from its target, at which the symmetric-group
    certificate, every local certificate and the odd-discriminant
    disjointness evidence all pass (module docstring).  The certificates are
    derived once, by verify_report's derivation, and judged by its failure
    list (_failures): a failure is a fault and raises AssertionError.
    """
    validate_request(specs, p_kernel, extra_L_ram)
    n = max(n_min, 2, max((s.min_degree() for s in specs), default=2))
    if n % 2:
        n += 1
    if n > DEGREE_MAX:
        raise SpecError(f"degree {n} exceeds the cap {DEGREE_MAX}")
    L_ram = {s.prime for s in specs if s.prime != REAL and s.ram_in_L} | set(extra_L_ram)
    aux = plan_aux_primes([s.prime for s in specs], L_ram, n)
    real_specs = [s for s in specs if s.prime == REAL]
    finite_specs = [s for s in specs if s.prime != REAL]
    scale = real_root_scale(n) if real_specs else None

    places = finite_specs + aux
    real_target = list(build_local_poly(real_specs[0], n, 0).coeffs) if real_specs else None
    precision = {s.prime: _place_precision(s, n) for s in places}
    locals_ = [build_local_poly(s, n, precision[s.prime]) for s in places]
    Q = weak_approximation(locals_, real_target, root_scale=scale)
    checks, sn, disjoint = _certificates(Q, specs, aux, L_ram)
    report = ConstructionReport(
        Q=tuple(Q), n=n, n_min=n_min, p_kernel=p_kernel, specs=tuple(specs), aux_specs=tuple(aux),
        precision=max(precision.values()), place_precision=precision, root_scale=scale,
        sn=sn, local_checks=checks, disjoint=disjoint, extra_L_ram=tuple(sorted(extra_L_ram)),
    )
    failures = _failures(report, checks, sn, disjoint)
    if failures:
        raise AssertionError(f"fresh report failed its own verification: {tuple(failures)}")
    return report


def _certificates(Q: list[int], specs: Sequence[LocalSpec], aux: Sequence[LocalSpec],
                  L_ram: set) -> tuple[tuple[LocalCheck, ...], SnCertificate, dict]:
    """The certificates of a report on the monic Q: a local check per place of
    specs + aux, in that order, the symmetric-group certificate read off the
    unramified aux checks, and the discriminant valuation at the first aux prime."""
    n = len(Q) - 1
    checks = tuple(certify_local_behavior(Q, s) for s in [*specs, *aux])
    sn = _sn_from_checks(n, [c for c in checks[len(specs):] if c.spec.kind == KIND_UNRAMIFIED])
    aux1 = aux[0].prime
    v = _disc_valuation(Q, aux1)
    if v is None:
        disjoint = {"prime": aux1, "odd_valuation": False, "prime_unramified_in_L": aux1 not in L_ram,
                    "reason": f"discriminant valuation at {aux1} is at least 2"}
    else:
        disjoint = {
            "prime": aux1,
            "disc_valuation": v,
            "odd_valuation": v % 2 == 1,
            "prime_unramified_in_L": aux1 not in L_ram,
        }
    return checks, sn, disjoint


@dataclass(frozen=True)
class VerifyResult:
    ok: bool
    failures: tuple[str, ...]

    def to_json(self) -> dict:
        return {"ok": self.ok, "failures": list(self.failures)}


def _structural_failures(report: ConstructionReport) -> list[str]:
    """The report's claims that need no certificate: Q monic of the stated
    even degree, specs and kernel prime forming a valid request, and four fresh
    auxiliary primes, the first ramified quadratic at an odd prime at least
    n - 1 (the module docstring's Hensel argument), the others of degrees
    n, n-1, 2."""
    failures: list[str] = []
    Q = report.Q
    if not Q or Q[-1] != 1:
        failures.append("Q is not monic")
    if len(Q) - 1 != report.n:
        failures.append("stated degree does not match Q")
    if report.n % 2 or report.n < max(report.n_min, 2):
        failures.append("degree violates the even-and-large-enough rule")
    try:
        validate_request(list(report.specs), report.p_kernel, set(report.extra_L_ram))
    except SpecError as exc:
        failures.append(str(exc))
    s_primes = {s.prime for s in report.specs}
    aux_primes = [s.prime for s in report.aux_specs]
    if len(set(aux_primes)) != 4 or set(aux_primes) & s_primes:
        failures.append("auxiliary primes must be four fresh primes")
    if report.aux_specs[0].kind != KIND_RAMIFIED_QUADRATIC:
        failures.append("first auxiliary prime must be ramified quadratic")
    aux1 = report.aux_specs[0].prime
    if aux1 % 2 == 0 or aux1 < report.n - 1:
        failures.append(f"first auxiliary prime {aux1} must be odd and at least n - 1")
    degs = [s.degree for s in report.aux_specs[1:]]
    if degs != [report.n, report.n - 1, 2]:
        failures.append(f"auxiliary degrees {degs} != {[report.n, report.n-1, 2]}")
    return failures


def _failures(report: ConstructionReport, checks: tuple[LocalCheck, ...], sn: SnCertificate,
              disjoint: dict) -> list[str]:
    """The report's failures, given the certificates _certificates derived
    from its Q: the structural ones, then each certificate that fails or
    differs from the stored one (a claimed place without a stored check
    counts as changed; a stored check at an unclaimed place fails)."""
    failures = _structural_failures(report)
    if sn.to_json() != report.sn.to_json():
        failures.append("symmetric-group certificate mismatch on re-derivation")
    if not sn.conclusion:
        failures.append("symmetric-group certificate fails")

    stored = {c.spec: c.passed for c in report.local_checks}
    for check in checks:
        place = check.spec.to_string()
        if stored.get(check.spec) != check.passed:
            failures.append(f"local certificate changed at {place}")
        if not check.passed:
            failures.append(f"local certificate fails at {place}: {check.reason}")
    claimed = {c.spec for c in checks}
    unclaimed = [c.spec.to_string() for c in report.local_checks if c.spec not in claimed]
    if unclaimed:
        failures.append(f"stored certificates at unclaimed places: {', '.join(unclaimed)}")

    v = disjoint.get("disc_valuation")
    if v is None:
        failures.append(disjoint["reason"])
    elif v % 2 != 1:
        failures.append(f"discriminant valuation at {disjoint['prime']} is even ({v})")
    if any(report.disjoint.get(key) != value for key, value in disjoint.items()):
        failures.append("stored disjointness certificate mismatch")
    if not disjoint["prime_unramified_in_L"]:
        failures.append(f"first auxiliary prime {disjoint['prime']} is ramified in L")
    return failures


def verify_report(report: ConstructionReport) -> VerifyResult:
    """Judge the report by _failures on certificates re-derived from Q alone
    at every place it claims, specs and aux.  Every certificate reads a monic
    Q, so a Q that is not monic (trailing zeros too) fails structurally only."""
    Q = list(report.Q)
    if not Q or Q[-1] != 1:
        failures = _structural_failures(report)
    else:
        L_ram = {s.prime for s in report.specs if s.ram_in_L} | set(report.extra_L_ram)
        failures = _failures(report, *_certificates(Q, report.specs, report.aux_specs, L_ram))
    return VerifyResult(ok=not failures, failures=tuple(failures))


def report_from_json(data: dict) -> ConstructionReport:
    """Rebuild a report from its JSON; a malformed shape raises SpecError."""
    if not isinstance(data, dict):
        raise SpecError("a report must be a JSON object")
    Q = data.get("Q")
    if not isinstance(Q, list) or not all(is_int(c) for c in Q):
        raise SpecError("report field 'Q' must be a list of integers")
    for key in ("n", "n_min", "p_kernel", "precision"):
        if not is_int(data.get(key)):
            raise SpecError(f"report field {key!r} must be an integer")
    if not isinstance(data.get("specs"), list):
        raise SpecError("report field 'specs' must be a list")
    if not isinstance(data.get("aux"), list) or len(data["aux"]) != 4:
        raise SpecError("report field 'aux' must list exactly four specs")
    extra = data.get("extra_L_ram", [])
    if not isinstance(extra, list) or not all(is_int(q) for q in extra):
        raise SpecError("report field 'extra_L_ram' must be a list of integers")
    if (degree := max(data["n"], len(Q) - 1)) > DEGREE_MAX:
        raise SpecError(f"degree {degree} exceeds the cap {DEGREE_MAX}")
    aux = tuple(spec_from_json(s) for s in data["aux"])
    if any(s.prime == REAL for s in aux):
        raise SpecError("an auxiliary spec must be at a finite prime")
    certs = data.get("certificates")
    if not isinstance(certs, dict) or not isinstance(certs.get("disjoint"), dict):
        raise SpecError("report field 'certificates' must be an object with an object 'disjoint'")
    sn = certs.get("sn")
    if not (isinstance(sn, dict) and is_int(sn.get("n")) and isinstance(sn.get("conclusion"), bool)
            and isinstance(sn.get("patterns"), dict)
            and all(k.isdecimal() and isinstance(v, list) for k, v in sn["patterns"].items())
            and isinstance(sn.get("reasons", []), list)):
        raise SpecError("certificate 'sn' must be an object with an integer 'n', a boolean 'conclusion', "
                        "'patterns' of lists keyed by integers and a list 'reasons'")
    if not isinstance(certs.get("locals"), list) or not all(
            isinstance(c, dict) and "spec" in c and isinstance(c.get("passed"), bool) for c in certs["locals"]):
        raise SpecError("certificate 'locals' must be a list of objects with a 'spec' and a boolean 'passed'")
    sn_cert = SnCertificate(
        n=sn["n"],
        patterns={int(k): tuple(v) for k, v in sn["patterns"].items()},
        conclusion=sn["conclusion"],
        reasons=tuple(sn.get("reasons", [])),
    )
    checks = tuple(
        LocalCheck(
            spec=spec_from_json(c["spec"]),
            passed=c["passed"],
            evidence=c.get("evidence", {}),
            reason=c.get("reason"),
        )
        for c in certs["locals"]
    )
    return ConstructionReport(
        Q=tuple(data["Q"]),
        n=data["n"],
        n_min=data["n_min"],
        p_kernel=data["p_kernel"],
        specs=tuple(spec_from_json(s) for s in data["specs"]),
        aux_specs=aux,
        precision=data["precision"],
        place_precision=data.get("place_precision", {}),
        root_scale=data.get("root_scale"),
        sn=sn_cert,
        local_checks=checks,
        disjoint=certs["disjoint"],
        extra_L_ram=tuple(sorted(extra)),
    )
