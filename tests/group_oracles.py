"""Group-theory oracles for the tests: an isomorphism search by
backtracking over generator images, which shares no code path with the
checks on generators in skewgalois.groups, the materialized check of a
reduction step's phi, which the step itself never builds, the subgroup
check that a Subgroup handle does not run, and a reference validator for
supplied tables that checks every triple for associativity."""

from skewgalois.groups import FiniteGroup, ReductionStep, Subgroup
from skewgalois.selftest import reduction_step_failure


def check_reduction_step(step: ReductionStep) -> None:
    """Assert that step.phi is a surjective homomorphism from N x| G' onto
    the group, with kernel N meet G' of order step.kernel_order()."""
    reason = reduction_step_failure(step)
    assert reason is None, reason


def check_subgroup(S: Subgroup) -> None:
    """Assert that S.elements is a sorted tuple holding the identity, the
    inverse and every product of its elements, read from S.parent's table."""
    table = S.parent.table
    es = set(S.elements)
    assert S.elements == tuple(sorted(es)), "elements are not a sorted tuple"
    assert 0 in es, "subgroup must contain the identity"
    for a in S.elements:
        assert table[a].index(0) in es, "subgroup not closed under inverses"
        assert es.issuperset(table[a][b] for b in S.elements), "subgroup not closed under products"


def reference_table_fault(table) -> str | None:
    """The message a supplied table is rejected with, or None for a group
    table: square over the indices, 0 a two-sided identity, row i and then
    column i a permutation for i = 0, 1, ..., and every triple associative."""
    n = len(table)
    if n == 0:
        return "a group has at least the identity"
    if any(len(row) != n or min(row) < 0 or max(row) >= n for row in table):
        return "table is not square over element indices"
    if any(table[0][j] != j for j in range(n)) or any(table[i][0] != i for i in range(n)):
        return "index 0 must be a two-sided identity"
    full = set(range(n))
    for i in range(n):
        if set(table[i]) != full:
            return "table rows must be permutations (Latin square)"
        if {row[i] for row in table} != full:
            return "table columns must be permutations (Latin square)"
    if any(table[table[a][b]][c] != table[a][table[b][c]]
           for a in range(n) for b in range(n) for c in range(n)):
        return "table is not associative"
    return None


def generating_sequence(G: FiniteGroup) -> list[int]:
    gens: list[int] = []
    cl = {0}
    for g in sorted(range(G.order), key=lambda x: (-G.element_order(x), x)):
        if g not in cl:
            gens.append(g)
            cl = set(G.closure(gens))
            if len(cl) == G.order:
                break
    return gens


def find_isomorphism(G: FiniteGroup, H: FiniteGroup) -> list[int] | None:
    """Backtracking on generator images; returns the image list or None."""
    if G.order != H.order:
        return None
    if sorted(G.element_order(g) for g in range(G.order)) != sorted(
        H.element_order(h) for h in range(H.order)
    ):
        return None
    gens = generating_sequence(G)
    candidates = [
        [h for h in range(H.order) if H.element_order(h) == G.element_order(g)]
        for g in gens
    ]

    def build(images: list[int]) -> list[int] | None:
        # grow the hom from generator images by BFS closure; None if inconsistent
        phi = {0: 0}
        frontier = [0]
        while frontier:
            nxt = []
            for a in frontier:
                for g, hg in zip(gens, images):
                    b = G.table[a][g]
                    hb = H.table[phi[a]][hg]
                    if b in phi:
                        if phi[b] != hb:
                            return None
                    else:
                        phi[b] = hb
                        nxt.append(b)
            frontier = nxt
        if len(phi) != G.order or len(set(phi.values())) != G.order:
            return None
        out = [phi[g] for g in range(G.order)]
        for a in range(G.order):
            for b in range(G.order):
                if out[G.table[a][b]] != H.table[out[a]][out[b]]:
                    return None
        return out

    def backtrack(i: int, chosen: list[int]) -> list[int] | None:
        if i == len(gens):
            return build(chosen)
        for h in candidates[i]:
            res = backtrack(i + 1, chosen + [h])
            if res is not None:
                return res
        return None

    return backtrack(0, [])
