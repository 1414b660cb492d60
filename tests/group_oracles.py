"""Exhaustive group-theory oracles for the tests: an isomorphism search by
backtracking over generator images, which shares no code path with the
checks on generators in skewgalois.groups."""

from skewgalois.groups import FiniteGroup


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
