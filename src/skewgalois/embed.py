"""Finite embedding problems over finite fields and the complete decision
procedure for their solvability over the skew function field twisted by an
automorphism of the base field.

An embedding problem is an epimorphism alpha from a finite group G onto
Gal(L/K), with Gal(L/K) presented as the cyclic group C_e whose
distinguished generator (index 1) is the relative Frobenius x -> x^|K|.
For sigma in Aut(K) of order d, solvability over the twisted function
field is governed by three conditions:

  (a) some weak solution has degree coprime to d,
  (b) some extension tau of sigma admits a geometric solution,
  (c) d is coprime to e = [L:K],

with (a) => (b) => (c), the tau in (b) unique when (a) holds, and no
admissible tau at all when (c) fails.  (c) => (a) holds as well, split
problem or not: the weak solutions are the g over the Frobenius, and
ord g is a multiple of e.  Choose k = 1 mod e and k = 0 mod the part of
ord g on the primes of d (the two moduli are coprime when gcd(d, e) = 1);
then g^k lies over the Frobenius and its order divides the part of ord g
prime to d.  So the three conditions are equivalent, and the decision
procedure answers SOLVABLE or UNSOLVABLE.

Gal(L/K) is cyclic and generated by the relative Frobenius, so all three
conditions depend only on the order of sigma, on [L:K] and on the group:
an extension is the pair (K, L) with its degree, and no embedding of K
into L is ever built.
"""

from __future__ import annotations

import math

from .ffield import FieldAut, FqField, check_subfield, galois_group, restrict_aut
from .groups import FiniteGroup, GroupHom, Subgroup, cyclic_group, is_nilpotent
from .zarith import Record, set_field

SOLVABLE = "SOLVABLE"
UNSOLVABLE = "UNSOLVABLE"


class CoprimalityFailure(ValueError):
    """No extension of sigma has the right order: raised when the order of
    sigma shares a factor with [L:K].  Carries the full enumeration of
    extensions as evidence that the Galois condition fails for every one."""

    def __init__(self, d: int, ext_degree: int, extensions: list[tuple[int, int]]):
        self.d = d
        self.ext_degree = ext_degree
        self.extensions = extensions
        super().__init__(
            f"gcd(order of sigma = {d}, [L:K] = {ext_degree}) > 1: "
            f"no extension of sigma has order {d}; "
            f"extension orders are {sorted(set(o for _, o in extensions))}"
        )


class FFGaloisExt:
    """A Galois extension L/K of finite fields, given by the two fields and
    the degree [L:K], with the cyclic Galois group generated by the
    relative Frobenius."""

    __slots__ = ("K", "L", "degree")

    def __init__(self, K: FqField, L: FqField):
        check_subfield(K, L)
        self.K = K
        self.L = L
        self.degree = L.n // K.n

    def galois_group(self) -> list[FieldAut]:
        return galois_group(self.L, self.K)

    def relative_frobenius(self) -> FieldAut:
        return FieldAut(self.L, self.K.n)

    def __repr__(self) -> str:
        return f"FFGaloisExt({self.L.descriptor()}/{self.K.descriptor()})"


class EmbeddingProblem:
    """An epimorphism alpha : G -> Gal(L/K), codomain encoded as C_[L:K]
    with index 1 the relative Frobenius."""

    __slots__ = ("G", "ext", "alpha")

    def __init__(self, G: FiniteGroup, ext: FFGaloisExt, alpha: GroupHom):
        if alpha.domain != G:
            raise ValueError("alpha must have domain G")
        e = ext.degree
        expected = cyclic_group(e)
        if alpha.codomain.table != expected.table:
            raise ValueError(
                "alpha's codomain must be the canonical cyclic group C_[L:K]"
            )
        if not alpha.is_surjective():
            raise ValueError("alpha must be surjective")
        self.G = G
        self.ext = ext
        self.alpha = alpha

    @property
    def degree(self) -> int:
        return self.ext.degree

    def generator_index(self) -> int:
        """The index in C_e representing the relative Frobenius."""
        return 1 if self.degree > 1 else 0

    def kernel(self) -> Subgroup:
        return self.alpha.kernel()

    def kernel_is_nilpotent(self) -> bool:
        return is_nilpotent(self.G, self.kernel().elements)

    def __repr__(self) -> str:
        return f"EmbeddingProblem({self.G.name} -> Gal({self.ext!r}))"


class WeakSolution(Record):
    """A monomorphism from the Galois group of the degree-ord extension,
    pinned down by the image g of the Frobenius of that extension."""

    __slots__ = ("g", "order")

    def __init__(self, g: int, order: int):
        set_field(self, "g", g)
        set_field(self, "order", order)


class Verdict(Record):
    __slots__ = ("status", "cond_a", "cond_c", "split", "witness", "tau")

    def __init__(self, status: str, cond_a: bool, cond_c: bool, split: bool,
                 witness: WeakSolution | None = None, tau: FieldAut | None = None):
        # structural consistency demanded of every verdict
        if status == SOLVABLE and not cond_a:
            raise AssertionError("SOLVABLE verdict requires condition (a)")
        if status == UNSOLVABLE and cond_c:
            raise AssertionError("UNSOLVABLE verdict requires condition (c) to fail")
        if cond_a and not cond_c:
            raise AssertionError("conclusion (a) => (c) violated")
        set_field(self, "status", status)
        set_field(self, "cond_a", cond_a)
        set_field(self, "cond_c", cond_c)
        set_field(self, "split", split)
        set_field(self, "witness", witness)
        set_field(self, "tau", tau)

    def to_json(self) -> dict:
        out = {
            "status": self.status,
            "cond_a": self.cond_a,
            "cond_c": self.cond_c,
            "split": self.split,
        }
        if self.tau is not None:
            out["tau"] = self.tau.to_json()
        if self.witness is not None:
            out["witness"] = {"g": self.witness.g, "ord": self.witness.order}
        return out


# -- operations -----------------------------------------------------------------


def find_section(ep: EmbeddingProblem) -> GroupHom | None:
    """A group-theoretic section of alpha, if one exists.

    A section is determined by an element g over the distinguished
    generator with order exactly [L:K]: the first weak solution of that
    order, in the fiber's index order.  The weak solutions exhaust the
    fiber, so None means the problem does not split.
    """
    for ws in find_weak_solutions(ep):
        if ws.order == ep.degree:
            images = [ep.G.power(ws.g, j) for j in range(ws.order)]
            return GroupHom(ep.alpha.codomain, ep.G, images)
    return None


def find_weak_solutions(ep: EmbeddingProblem) -> list[WeakSolution]:
    """All weak solutions pinned to the relative Frobenius.

    Every g in the fiber of alpha over the distinguished generator defines
    one: the Galois group of the degree-ord(g) extension of K maps in by
    Frobenius -> g, and composing with alpha gives the restriction map.
    Surjectivity of alpha makes the list nonempty.
    """
    gen = ep.generator_index()
    out = []
    for g in range(ep.G.order):
        if ep.alpha(g) == gen:
            out.append(WeakSolution(g=g, order=ep.G.element_order(g)))
    if not out:
        raise AssertionError("alpha surjective but generator fiber empty")
    return out


def lift_sigma(ext: FFGaloisExt, sigma: FieldAut) -> FieldAut:
    """The unique automorphism of L of the same order as sigma extending it.

    Exists iff the order d of sigma is coprime to [L:K]; found by
    enumerating all extensions and checking orders and restrictions.
    Raises CoprimalityFailure with the enumeration evidence otherwise.
    """
    if sigma.field != ext.K:
        raise ValueError("sigma must be an automorphism of K")
    d = sigma.order
    e = ext.degree
    m = ext.K.n
    N = ext.L.n
    candidates = []
    for i in range(e):
        t = (sigma.k + i * m) % N
        tau = FieldAut(ext.L, t)
        if restrict_aut(tau, ext.K).k != sigma.k:
            raise AssertionError("enumerated extension fails to restrict to sigma")
        candidates.append((t, tau.order))
    hits = [t for t, o in candidates if o == d]
    if math.gcd(d, e) != 1:
        if hits:
            raise AssertionError("conclusion (4) violated: an order-d extension exists")
        raise CoprimalityFailure(d, e, candidates)
    if len(hits) != 1:
        raise AssertionError("conclusion (3) violated: order-d extension not unique")
    return FieldAut(ext.L, hits[0])


def lemma1_check(ext: FFGaloisExt, sigma: FieldAut, tau: FieldAut) -> dict:
    """The two decidable characterizations of the Galois condition for the
    twisted function field extension, which must agree:

      cond2: tau has the same order d as sigma, and gcd(d, [L:K]) = 1;
      cond3: tau has order d, and the subgroup generated by tau together
             with Gal(L/K) inside Aut(L) is their internal direct product.
    """
    if sigma.field != ext.K or tau.field != ext.L:
        raise ValueError("sigma acts on K and tau on L")
    if restrict_aut(tau, ext.K).k != sigma.k:
        raise ValueError("tau does not extend sigma")
    d = sigma.order
    N = ext.L.n
    cond2 = tau.order == d and math.gcd(d, ext.degree) == 1
    # explicit subgroup arithmetic in the cyclic group Aut(L) ~ Z/N
    tau_sub = {(tau.k * j) % N for j in range(tau.order)}
    gal_sub = {(ext.K.n * j) % N for j in range(ext.degree)}
    join = set(cyclic_group(N).closure(tau_sub | gal_sub))
    direct = (tau_sub & gal_sub == {0}) and len(join) == len(tau_sub) * len(gal_sub)
    cond3 = tau.order == d and direct
    if cond2 != cond3:
        raise AssertionError(
            "equivalence of the order test and the direct-product test failed"
        )
    return {"cond2": cond2, "cond3": cond3}


def decide_sigma_solvability(ep: EmbeddingProblem, sigma: FieldAut) -> Verdict:
    """Decide solvability over the twisted function field of K, with
    witnesses.

    SOLVABLE comes with the weak solution of least degree coprime to the
    order of sigma and the same-order extension tau of sigma; UNSOLVABLE
    means that order shares a factor with [L:K].  (a) and (c) are
    equivalent (module docstring), and that is asserted on every call.
    """
    if sigma.field != ep.ext.K:
        raise ValueError("sigma must act on K")
    if not ep.kernel_is_nilpotent():
        raise ValueError("decision procedure requires a nilpotent kernel")
    d = sigma.order
    cond_c = math.gcd(d, ep.degree) == 1
    weak = find_weak_solutions(ep)
    witness = None
    for ws in sorted(weak, key=lambda w: (w.order, w.g)):
        if math.gcd(d, ws.order) == 1:
            witness = ws
            break
    cond_a = witness is not None
    if cond_a != cond_c:
        raise AssertionError("conclusion (a) <=> (c) violated")
    return Verdict(
        status=SOLVABLE if cond_a else UNSOLVABLE,
        cond_a=cond_a,
        cond_c=cond_c,
        split=any(ws.order == ep.degree for ws in weak),
        witness=witness,
        tau=lift_sigma(ep.ext, sigma) if cond_a else None,
    )


def split_problem(ext: FFGaloisExt, N: FiniteGroup, action: list[tuple]) -> EmbeddingProblem:
    """Convenience builder: the split embedding problem pr : N x| C_e -> C_e
    for a kernel group N with an action of the Galois group."""
    from .groups import semidirect_product

    H = cyclic_group(ext.degree)
    G, pr, _ = semidirect_product(N, H, action)
    return EmbeddingProblem(G, ext, pr)


def problem_from_quotient(ext: FFGaloisExt, G: FiniteGroup, images: list[int]) -> EmbeddingProblem:
    """Wrap an explicit image list G -> C_[L:K] as an embedding problem."""
    alpha = GroupHom(G, cyclic_group(ext.degree), images)
    return EmbeddingProblem(G, ext, alpha)
