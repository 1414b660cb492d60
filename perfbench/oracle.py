"""Output checks that share no code path with the library they check.

Field and twisted-polynomial arithmetic is redone here from the field's
modulus alone: schoolbook products reduced by the modulus, inverses by
Fermat, and Frobenius powers as F_p-linear maps on coefficient vectors.
Fields of at most 2^15 elements also get discrete-log tables built from
those products, so that checking a pass costs less than running it.
Group answers are recomputed from the job's own table or order.
"""

from __future__ import annotations

import json
import math

LOG_TABLE_MAX = 1 << 15


class RefField:
    """F_p[x]/(modulus) with elements as coefficient tuples, ascending."""

    def __init__(self, p: int, n: int, modulus):
        self.p, self.n = p, n
        self.red = [(-c) % p for c in modulus[:n]]  # x^n = sum red[j] x^j
        self.zero = (0,) * n
        self.one = (1,) + (0,) * (n - 1)
        self._frob_cols: dict[int, list[tuple]] = {0: [self._basis(j) for j in range(n)]}
        self.log: dict[tuple, int] | None = None
        if p**n <= LOG_TABLE_MAX:
            self._build_logs()

    def _build_logs(self) -> None:
        q1 = self.p**self.n - 1
        cofactors = [q1 // r for r in range(2, q1 + 1) if q1 % r == 0 and all(r % s for s in range(2, r))]
        for idx in range(1, q1 + 1):
            g = tuple((idx // self.p**i) % self.p for i in range(self.n))
            if all(self.power(g, c) != self.one for c in cofactors):
                break
        antilog, log, x = [], {}, self.one
        for k in range(q1):
            antilog.append(x)
            log[x] = k
            x = self.mul(x, g)
        self.antilog, self.log = antilog, log

    def _basis(self, j: int) -> tuple:
        return tuple(1 if i == j else 0 for i in range(self.n))

    def mul(self, a: tuple, b: tuple) -> tuple:
        if self.log is not None:
            if not any(a) or not any(b):
                return self.zero
            return self.antilog[(self.log[a] + self.log[b]) % len(self.antilog)]
        p, n = self.p, self.n
        prod = [0] * (2 * n - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    prod[i + j] += ai * bj
        for i in range(2 * n - 2, n - 1, -1):
            c = prod[i] % p
            if c:
                for j, rj in enumerate(self.red):
                    prod[i - n + j] += c * rj
        return tuple(x % p for x in prod[:n])

    def add(self, a: tuple, b: tuple) -> tuple:
        return tuple((x + y) % self.p for x, y in zip(a, b))

    def sub(self, a: tuple, b: tuple) -> tuple:
        return tuple((x - y) % self.p for x, y in zip(a, b))

    def power(self, a: tuple, e: int) -> tuple:
        out = self.one
        while e:
            if e & 1:
                out = self.mul(out, a)
            a = self.mul(a, a)
            e >>= 1
        return out

    def inv(self, a: tuple) -> tuple:
        if not any(a):
            raise ZeroDivisionError("inverse of zero")
        return self.power(a, self.p**self.n - 2)

    def frob(self, a: tuple, k: int) -> tuple:
        """a^(p^k) as the linear map sending x^j to (x^(p^k))^j."""
        k %= self.n
        if self.log is not None:
            if not any(a):
                return a
            return self.antilog[(self.log[a] * self.p**k) % len(self.antilog)]
        cols = self._frob_cols.get(k)
        if cols is None:
            xq = self._basis(1) if self.n > 1 else self.one
            for _ in range(k):
                xq = self.power(xq, self.p)
            cols = [self.one]
            for _ in range(1, self.n):
                cols.append(self.mul(cols[-1], xq))
            self._frob_cols[k] = cols
        out = [0] * self.n
        for aj, col in zip(a, cols):
            if aj:
                for i, c in enumerate(col):
                    out[i] += aj * c
        return tuple(x % self.p for x in out)


class RefOre:
    """L[T, tau] with tau = x -> x^(p^t); polynomials are lists of
    coefficient tuples, ascending, with no trailing zero."""

    def __init__(self, field: RefField, t: int):
        self.F, self.t = field, t

    def trim(self, f: list) -> list:
        f = list(f)
        while f and not any(f[-1]):
            f.pop()
        return f

    def tw(self, a: tuple, l: int) -> tuple:
        return self.F.frob(a, self.t * l)

    def mul(self, f: list, g: list) -> list:
        F = self.F
        if not f or not g:
            return []
        out = [F.zero] * (len(f) + len(g) - 1)
        for l, a in enumerate(f):
            if any(a):
                for j, b in enumerate(g):
                    out[l + j] = F.add(out[l + j], F.mul(a, self.tw(b, l)))
        return self.trim(out)

    def add(self, f: list, g: list) -> list:
        F = self.F
        n = max(len(f), len(g))
        f = list(f) + [F.zero] * (n - len(f))
        g = list(g) + [F.zero] * (n - len(g))
        return self.trim([F.add(a, b) for a, b in zip(f, g)])

    def right_rem(self, f: list, g: list) -> list:
        """Remainder of f = q*g + r."""
        F = self.F
        r = self.trim(f)
        d = len(g) - 1
        while len(r) - 1 >= d:
            k = len(r) - 1 - d
            c = F.mul(r[-1], F.inv(self.tw(g[-1], k)))
            for i, b in enumerate(g):
                r[k + i] = F.sub(r[k + i], F.mul(c, self.tw(b, k)))
            r = self.trim(r)
        return r

    def gcd_degree(self, f: list, g: list) -> int:
        a, b = self.trim(f), self.trim(g)
        while b:
            a, b = b, self.right_rem(a, b)
        return len(a) - 1


_REF_FIELDS: dict[str, RefField] = {}


def ref_field(desc: str, modulus_of) -> RefField:
    """`modulus_of(p, n)` supplies the modulus the program uses for "p^n"."""
    if desc not in _REF_FIELDS:
        p, n = (int(x) for x in desc.split("^"))
        _REF_FIELDS[desc] = RefField(p, n, modulus_of(p, n))
    return _REF_FIELDS[desc]


def release() -> None:
    """Drop the reference fields and their tables."""
    _REF_FIELDS.clear()


def _poly(data: dict, base: str, frob: int) -> list:
    if data["base"] != base or data["frob"] != frob:
        raise ValueError("result lives in another ring")
    return [tuple(c) for c in data["coeffs"]]


def check_ore(kind: str, check: dict, out: dict, modulus_of) -> str | None:
    f_in, g_in = check["f"], check["g"]
    base, frob = f_in["base"], f_in["frob"]
    R = RefOre(ref_field(base, modulus_of), frob)
    f = [tuple(c) for c in f_in["coeffs"]]
    g = [tuple(c) for c in g_in["coeffs"]]
    op = kind.split(".", 1)[1]
    if op == "mul":
        if _poly(out["product"], base, frob) != R.mul(f, g):
            return "product differs from the reference product"
        return None
    if op in ("divmod", "left_divmod"):
        q = _poly(out["quotient"], base, frob)
        r = _poly(out["remainder"], base, frob)
        if len(r) - 1 >= len(g) - 1:
            return "remainder degree not below the divisor degree"
        back = R.mul(q, g) if op == "divmod" else R.mul(g, q)
        if R.add(back, r) != R.trim(f):
            return "quotient and remainder do not recombine to f"
        return None
    if op == "gcd":
        d = _poly(out["gcd"], base, frob)
        if not d or d[-1] != R.F.one:
            return "gcd is not monic"
        if R.right_rem(f, d) or R.right_rem(g, d):
            return "gcd does not right-divide both inputs"
        if len(d) - 1 != R.gcd_degree(f, g):
            return "gcd degree differs from the reference Euclidean chain"
        return None
    if op == "lcm":
        m = _poly(out["lcm"], base, frob)
        if len(m) - 1 != (len(f) - 1) + (len(g) - 1) - R.gcd_degree(f, g):
            return "deg lcm != deg f + deg g - deg gcd"
        if R.right_rem(m, f) or R.right_rem(m, g):
            return "lcm is not a left multiple of both inputs"
        return None
    if op == "witness":
        r = _poly(out["r"], base, frob)
        s = _poly(out["s"], base, frob)
        left, right = R.mul(f, r), R.mul(g, s)
        if not left or left != right:
            return "x*r != y*s or the common multiple is zero"
        if _poly(out["common_multiple"], base, frob) != left:
            return "reported common multiple differs from x*r"
        return None
    return f"no oracle for {kind}"


def check_tower(check: dict, out: dict) -> str | None:
    steps = out["steps"]
    expected = check["order"]
    for step in steps:
        order = step["group_order"]
        if order != expected:
            return f"step order {order}, expected {expected}"
        semidirect = len(step["N"]) * len(step["Gp"])
        if semidirect % step["kernel_order"] or semidirect // step["kernel_order"] != order:
            return "|N x| G'| / |kernel| != |G|"
        expected = len(step["Gp"])
    if expected != 1:
        return "tower does not end at the trivial group"
    return None


def _element_orders(table: list[list[int]]) -> list[int]:
    orders = []
    for g in range(len(table)):
        x, k = g, 1
        while x:
            x, k = table[x][g], k + 1
        orders.append(k)
    return orders


def check_decide(check: dict, out: dict) -> str | None:
    kn = int(check["K"].split("^")[1])
    ln = int(check["L"].split("^")[1])
    d = kn // math.gcd(kn, check["sigma"] % kn)
    e = ln // kn
    gen = 1 if e > 1 else 0
    orders = _element_orders(check["table"])
    fiber = [g for g, a in enumerate(check["alpha"]) if a == gen]
    cond_c = math.gcd(d, e) == 1
    cond_a = any(math.gcd(d, orders[g]) == 1 for g in fiber)
    split = any(orders[g] == e for g in fiber)
    status = "SOLVABLE" if cond_a else ("UNSOLVABLE" if not cond_c else "UNKNOWN")
    got = (out["cond_a"], out["cond_c"], out["split"], out["status"])
    if got != (cond_a, cond_c, split, status):
        return f"verdict {got} != recomputed {(cond_a, cond_c, split, status)}"
    if cond_a:
        w = out["witness"]
        if check["alpha"][w["g"]] != gen or orders[w["g"]] != w["ord"] or math.gcd(d, w["ord"]) != 1:
            return "weak-solution witness fails"
        t = out["tau"]["frob"]
        if t % kn != check["sigma"] % kn or ln // math.gcd(ln, t) != d:
            return "tau does not extend sigma with the same order"
    return None


def check_construct(check: dict, out: dict) -> str | None:
    Q, n = out["Q"], out["n"]
    if len(Q) != n + 1 or Q[-1] != 1:
        return "Q is not monic of the stated degree"
    if n % 2 or n < check["n_min"]:
        return "degree is not the even number at or above n_min"
    return None


def check_verify(out: dict) -> str | None:
    if out != {"ok": True, "failures": []}:
        return f"verify-report failed: {out.get('failures')}"
    return None


def check_job(job, rc: int, stdout: str, modulus_of) -> str | None:
    """None when the job's output is right, else the reason it is not."""
    if rc != 0:
        return f"exit code {rc}"
    try:
        out = json.loads(stdout)
    except ValueError:
        return "stdout is not JSON"
    try:
        if job.kind.startswith("ore."):
            return check_ore(job.kind, job.check, out, modulus_of)
        if job.kind == "tower":
            return check_tower(job.check, out)
        if job.kind == "decide":
            return check_decide(job.check, out)
        if job.kind == "construct":
            return check_construct(job.check, out)
        if job.kind == "verify":
            return check_verify(out)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        return f"malformed output: {type(exc).__name__}: {exc}"
    return f"no oracle for {job.kind}"
