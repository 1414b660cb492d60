"""Hamilton quaternions over Q and real/quadratic base fields: exact
arithmetic, levels of completions, and the feasibility test for realizing
solvable groups over the quaternion division ring (which needs some
completion of the base field to have level at least 4).

The level of a field is the least number of squares summing to -1
(infinite if none do).  Locally: the reals have infinite level, Q_p has
level 1 or 2 for odd p (by quadratic reciprocity of -1 plus a two-square
witness), and Q_2 has level 4 -- re-derived here by exhausting three-square
sums modulo 16 rather than assumed.  Every finite claim ships a witness
liftable by Hensel's lemma; impossibility claims ship the exhaustive scan
that proves them.
"""

from __future__ import annotations

from fractions import Fraction

from .zarith import Record, factorize, is_prime, set_field, sqrt_mod_prime

REAL_PLACE = "REAL"
INFINITY = "INFINITY"

# -1 is not a sum of three squares in Q_2: squares of 2-adic integers are
# 0, 1, or 4 mod 8, so three of them never reach 7 mod 8, and scaling by
# powers of 4 reduces the general case to targets 7, 4+8Z, 0+8Z with a unit
# square present, all excluded the same way.  The scan below re-derives
# this mod 16 instead of citing it.
TWO_ADIC_SCAN_MODULUS = 16

# Squarefreeness of m in Q(sqrt m) is read off zarith.factorize: trial
# division to 2^16, then Pollard-Brent rho on a cofactor below this cap,
# which has a prime factor below 10^6 unless it is prime (milliseconds).
QUADRATIC_M_MAX = 10**12


class Quaternion(Record):
    """a + b*i + c*j + d*k with the Hamilton relations
    i^2 = j^2 = k^2 = i*j*k = -1; coefficients are exact rationals."""

    __slots__ = ("a", "b", "c", "d", "base")

    def __init__(self, a: Fraction, b: Fraction, c: Fraction, d: Fraction, base: str = "Q"):
        set_field(self, "a", a)
        set_field(self, "b", b)
        set_field(self, "c", c)
        set_field(self, "d", d)
        set_field(self, "base", base)

    @staticmethod
    def of(a, b=0, c=0, d=0, base: str = "Q") -> "Quaternion":
        return Quaternion(Fraction(a), Fraction(b), Fraction(c), Fraction(d), base)

    def _check(self, other: "Quaternion"):
        if self.base != other.base:
            raise ValueError("quaternions over different base fields")

    def __add__(self, other: "Quaternion") -> "Quaternion":
        self._check(other)
        return Quaternion(self.a + other.a, self.b + other.b,
                          self.c + other.c, self.d + other.d, self.base)

    def __neg__(self) -> "Quaternion":
        return Quaternion(-self.a, -self.b, -self.c, -self.d, self.base)

    def __sub__(self, other: "Quaternion") -> "Quaternion":
        return self + (-other)

    def __mul__(self, other: "Quaternion") -> "Quaternion":
        self._check(other)
        a1, b1, c1, d1 = self.a, self.b, self.c, self.d
        a2, b2, c2, d2 = other.a, other.b, other.c, other.d
        return Quaternion(
            a1 * a2 - b1 * b2 - c1 * c2 - d1 * d2,
            a1 * b2 + b1 * a2 + c1 * d2 - d1 * c2,
            a1 * c2 - b1 * d2 + c1 * a2 + d1 * b2,
            a1 * d2 + b1 * c2 - c1 * b2 + d1 * a2,
            self.base,
        )

    def conj(self) -> "Quaternion":
        return Quaternion(self.a, -self.b, -self.c, -self.d, self.base)

    def norm(self) -> Fraction:
        return self.a * self.a + self.b * self.b + self.c * self.c + self.d * self.d

    def inverse(self) -> "Quaternion":
        n = self.norm()
        if n == 0:
            raise ZeroDivisionError(
                "norm-zero quaternion: the algebra has split over this base"
            )
        co = self.conj()
        return Quaternion(co.a / n, co.b / n, co.c / n, co.d / n, self.base)

    def __repr__(self) -> str:
        return f"Quaternion({self.a} + {self.b}i + {self.c}j + {self.d}k)"

    def to_json(self) -> dict:
        return {
            "a": str(self.a), "b": str(self.b), "c": str(self.c), "d": str(self.d),
            "base": self.base,
        }


QUAT_ONE = Quaternion.of(1)
QUAT_I = Quaternion.of(0, 1)
QUAT_J = Quaternion.of(0, 0, 1)
QUAT_K = Quaternion.of(0, 0, 0, 1)


class LevelResult(Record):
    """Level of a completion, with an arithmetic witness for finite levels
    and an impossibility certificate otherwise."""

    __slots__ = ("place", "level", "witness")
    _uncompared = ("witness",)

    def __init__(self, place: int | str, level: int | str, witness: dict | None = None):
        set_field(self, "place", place)
        set_field(self, "level", level)
        set_field(self, "witness", {} if witness is None else witness)

    def to_json(self) -> dict:
        return {"place": self.place, "level": self.level, "witness": dict(self.witness)}


def level_local(place: int | str) -> LevelResult:
    """Level of the completion of Q at a finite prime or the real place.

    Odd p: level 1 when -1 is a quadratic residue (p = 1 mod 4), else 2;
    witnesses are simple roots mod p, hence Hensel-liftable.  p = 2: level
    4, proved by the exhaustive three-square scan mod 16 plus an explicit
    liftable four-square witness.  The real place has infinite level.  An
    integer at or past zarith.PRIME_BOUND is refused: is_prime's ValueError.
    """
    if place == REAL_PLACE:
        return LevelResult(
            REAL_PLACE, INFINITY,
            {"reason": "squares of reals are nonnegative, so no sum is -1"},
        )
    p = place
    if not isinstance(p, int) or not is_prime(p):
        raise ValueError(f"{place!r} is not a prime or the real place")
    if p == 2:
        scan = two_adic_three_square_scan()
        if not scan["excluded"]:
            raise AssertionError("three-square scan unexpectedly found a solution")
        witness = _two_adic_four_square_witness()
        return LevelResult(2, 4, {"no_three_squares_mod": scan, "four_squares": witness})
    if p % 4 == 1:
        x = _sqrt_of_minus_one(p)
        if (x * x + 1) % p:
            raise AssertionError("witness failed arithmetic check")
        return LevelResult(p, 1, {"x": x, "check": f"{x}^2 = -1 mod {p}",
                                  "liftable": "simple root of X^2+1"})
    # p = 3 mod 4: -1 is a non-residue (level > 1); two squares always work
    euler = pow(p - 1, (p - 1) // 2, p)
    if euler != p - 1:
        raise AssertionError("Euler criterion check failed for p = 3 mod 4")
    x, y = _two_square_witness(p)
    if (x * x + y * y + 1) % p:
        raise AssertionError("witness failed arithmetic check")
    return LevelResult(
        p, 2,
        {"x": x, "y": y, "check": f"{x}^2+{y}^2 = -1 mod {p}",
         "level1_impossible": "Euler criterion: (-1)^((p-1)/2) = -1",
         "liftable": "y is a unit, so the y-coordinate lifts"},
    )


def _sqrt_of_minus_one(p: int) -> int:
    for a in range(2, p):
        x = pow(a, (p - 1) // 4, p)
        if x * x % p == p - 1:
            return min(x, p - x)
    raise AssertionError("p = 1 mod 4 must have a 4th root of unity")


def _two_square_witness(p: int) -> tuple[int, int]:
    for x in range(p):
        c = (-1 - x * x) % p
        y = sqrt_mod_prime(c, p)
        if y is not None and y % p != 0:
            return x, min(y, p - y)
    raise AssertionError("every prime field represents -1 by two squares")


def two_adic_three_square_scan() -> dict:
    """Exhaustively verify that x^2+y^2+z^2 never hits the scaled images of
    -1 modulo 16.

    Scaling a hypothetical solution by powers of 2 reduces to three cases:
    target -1 with arbitrary integers, and targets -4 and 0 where at least
    one square must be odd; all are excluded by the scan.
    """
    modulus = TWO_ADIC_SCAN_MODULUS
    sq = [x * x % modulus for x in range(modulus)]
    odd = [x % 2 for x in range(modulus)]
    cases = {
        "-1, any integers": ((-1) % modulus, False),
        "-4, some unit": ((-4) % modulus, True),
        "0, some unit": (0, True),
    }
    hits = []
    for label, (target, need_unit) in cases.items():
        for x in range(modulus):
            for y in range(modulus):
                for z in range(modulus):
                    if need_unit and not (odd[x] or odd[y] or odd[z]):
                        continue
                    if (sq[x] + sq[y] + sq[z]) % modulus == target:
                        hits.append((label, x, y, z))
    return {"modulus": modulus, "cases": list(cases), "excluded": not hits, "hits": hits}


def _two_adic_four_square_witness() -> dict:
    """Least four-square representation of -1 mod 16 with an odd
    coordinate, which Hensel-lifts to Z_2 (fixing the other three)."""
    modulus = TWO_ADIC_SCAN_MODULUS
    target = (-1) % modulus
    for x in range(modulus):
        for y in range(x, modulus):
            for z in range(y, modulus):
                for w in range(z, modulus):
                    if (x * x + y * y + z * z + w * w) % modulus != target:
                        continue
                    if x % 2 or y % 2 or z % 2 or w % 2:
                        return {
                            "vector": [x, y, z, w],
                            "modulus": modulus,
                            "liftable": "an odd coordinate gives a unit derivative",
                        }
    raise AssertionError("Q_2 has level 4: a four-square witness must exist")


# -- base fields Q and Q(sqrt m) --------------------------------------------------


class QuadraticField(Record):
    """Q(sqrt m) for squarefree m != 0, 1."""

    __slots__ = ("m",)

    def __init__(self, m: int):
        if m in (0, 1):
            raise ValueError("m must be a squarefree integer other than 0 and 1")
        if abs(m) > QUADRATIC_M_MAX:
            raise ValueError(f"|m| must be at most {QUADRATIC_M_MAX}")
        if any(e > 1 for _, e in factorize(abs(m))):
            raise ValueError(f"{m} is not squarefree")
        set_field(self, "m", m)

    def real_places(self) -> int:
        return 2 if self.m > 0 else 0

    def two_splits(self) -> bool:
        # 2 splits in Q(sqrt m) iff m = 1 mod 8 (it must be a 2-adic square)
        return self.m % 8 == 1

    def two_ramifies(self) -> bool:
        return self.m % 4 in (2, 3)

    def descriptor(self) -> str:
        return f"Q(sqrt:{self.m})"


def parse_field_descriptor(desc: str):
    """"Q" or "Q(sqrt:m)"."""
    desc = desc.strip()
    if desc == "Q":
        return "Q"
    if desc.startswith("Q(sqrt:") and desc.endswith(")"):
        return QuadraticField(int(desc[len("Q(sqrt:"):-1]))
    raise ValueError(f"unsupported base field descriptor {desc!r}")


def two_square_witness_quadratic(K: QuadraticField) -> dict | None:
    """Search x, y in the quadratic order with x^2 + y^2 = -1 modulo 16,
    requiring a unit y-coordinate so the witness is 2-adically liftable.

    Elements are a + b*w with w = sqrt(m), or w = (1 + sqrt(m))/2 when
    m = 1 mod 4 (the full ring of integers 2-adically).  Returns None when
    the bounded scan finds nothing.
    """
    m, modulus = K.m, TWO_ADIC_SCAN_MODULUS
    half = m % 4 == 1
    # w^2 = m (plain) or w^2 = w + (m-1)/4 (half-integer basis)
    def sq_add(pairs, mod):
        # (a1 + b1 w)(a2 + b2 w) with the right reduction
        (a1, b1), (a2, b2) = pairs
        if half:
            c = (m - 1) // 4
            return ((a1 * a2 + b1 * b2 * c) % mod, (a1 * b2 + b1 * a2 + b1 * b2) % mod)
        return ((a1 * a2 + b1 * b2 * m) % mod, (a1 * b2 + b1 * a2) % mod)

    for a1 in range(modulus):
        for b1 in range(modulus):
            x2 = sq_add(((a1, b1), (a1, b1)), modulus)
            for a2 in range(modulus):
                for b2 in range(modulus):
                    if a2 % 2 == 0 and b2 % 2 == 0:
                        continue  # demand a unit for liftability
                    y2 = sq_add(((a2, b2), (a2, b2)), modulus)
                    if (x2[0] + y2[0] + 1) % modulus == 0 and (x2[1] + y2[1]) % modulus == 0:
                        return {
                            "x": [a1, b1], "y": [a2, b2], "modulus": modulus,
                            "basis": "(1+sqrt(m))/2" if half else "sqrt(m)",
                        }
    return None


class FeasibilityResult(Record):
    __slots__ = ("feasible", "witness_place", "detail")

    def __init__(self, feasible: bool, witness_place: str | int | None, detail: dict):
        set_field(self, "feasible", feasible)
        set_field(self, "witness_place", witness_place)
        set_field(self, "detail", detail)

    def to_json(self) -> dict:
        return {
            "feasible": self.feasible,
            "witness_place": self.witness_place,
            "detail": dict(self.detail),
        }


def theorem13_feasible(K) -> FeasibilityResult:
    """Does some completion of K have level >= 4?

    Q: yes (real place, and the 2-adic completion has level 4 as well).
    Q(sqrt m): yes when m > 0 (real place) or when 2 splits (completion
    Q_2, level 4); otherwise no -- odd places of any number field have
    level <= 2, and a genuine quadratic extension of Q_2 splits the
    quaternions, certified by a bounded two-square witness search in the
    quadratic order.
    """
    K = parse_field_descriptor(K) if isinstance(K, str) else K
    if K == "Q":
        return FeasibilityResult(
            True, REAL_PLACE,
            {"real": level_local(REAL_PLACE).to_json(), "two_adic": level_local(2).level},
        )
    if not isinstance(K, QuadraticField):
        raise ValueError("unsupported base field")
    if K.m > 0:
        return FeasibilityResult(
            True, REAL_PLACE, {"reason": f"sqrt({K.m}) is real, giving a real place"}
        )
    if K.two_splits():
        return FeasibilityResult(
            True, 2,
            {"reason": f"m = {K.m} = 1 mod 8: 2 splits, completions above 2 are Q_2",
             "two_adic_level": level_local(2).level},
        )
    witness = two_square_witness_quadratic(K)
    detail = {
        "real_places": 0,
        "odd_places": "level <= 2 (odd residue fields represent -1 by two squares)",
        "two_adic": "genuine quadratic extension of Q_2 has level <= 2",
        "two_square_witness": witness,
    }
    if witness is None:
        raise AssertionError(
            "a genuine quadratic extension of Q_2 must represent -1 by two squares"
        )
    return FeasibilityResult(False, None, detail)


def is_division_ring(K) -> FeasibilityResult:
    """Is the (-1,-1) quaternion algebra over K a division ring?

    True iff -1 is not a sum of two squares in K, i.e. iff the local symbol
    is -1 somewhere; only real places and places over 2 can contribute, so
    the scan is the same local analysis as the level-4 feasibility test.
    """
    K = parse_field_descriptor(K) if isinstance(K, str) else K
    if K == "Q":
        return FeasibilityResult(
            True, REAL_PLACE,
            {"reason": "-1 is not a sum of two squares in R (or in Q_2)"},
        )
    if not isinstance(K, QuadraticField):
        raise ValueError("unsupported base field")
    if K.m > 0:
        return FeasibilityResult(True, REAL_PLACE,
                                 {"reason": "real places have symbol -1"})
    if K.two_splits():
        return FeasibilityResult(
            True, 2, {"reason": "completion Q_2 above the split prime has symbol -1"}
        )
    witness = two_square_witness_quadratic(K)
    if witness is None:
        raise AssertionError("expected a local two-square witness")
    return FeasibilityResult(
        False, None,
        {"reason": "every completion represents -1 by two squares",
         "two_square_witness": witness},
    )


def hilbert_minus_one_places(K) -> list:
    """Places of K where the (-1,-1) Hilbert symbol is -1, from the local
    computations; the product formula forces an even count."""
    K = parse_field_descriptor(K) if isinstance(K, str) else K
    if K == "Q":
        places = []
        if level_local(REAL_PLACE).level == INFINITY:
            places.append(REAL_PLACE)
        if level_local(2).level == 4:
            places.append(2)
        # odd p have level <= 2, symbol +1: verified on a sample elsewhere
        return places
    if not isinstance(K, QuadraticField):
        raise ValueError("unsupported base field")
    places = [f"{REAL_PLACE}_{i}" for i in range(K.real_places())]
    if K.two_splits():
        places.extend(["2_split_1", "2_split_2"])
    return places
