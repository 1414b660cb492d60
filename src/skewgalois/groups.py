"""Explicit finite groups as multiplication tables: nilpotency and
solvability tests, Fitting subgroups, semidirect products, and the
nilpotent-kernel reduction tower for solvable groups.

Elements are indices 0..order-1 with 0 the identity.  Work runs on
generators wherever a property is closed under products:

- A table supplied directly is accepted on the group axioms alone: it is
  square over the element indices, 0 is a two-sided identity, Light's test
  checks (x a) y = x (a y) only for a in a generating set, and every row
  holds 0.  The a that pass hold 0 and are closed under products, so any
  set whose closure from 0 is the whole table will do; the greedy set is
  made irredundant first, since each member costs an O(order^2) pass and a
  closure only O(order * gens).  That costs O(order^2 * gens) with gens <=
  log2(order), and the group keeps that generating set.  A group table is
  a Latin square, so the row and column permutation scans run only for a
  rejected table, to name its fault.  Up to order 256 these checks run on
  the rows as bytes, each pass in C (see _square_rows and
  _associative_at); past it a byte cannot hold an index, and they run on
  the tuple rows.  group_from_json converts a JSON table to those bytes
  once, and the conversion is its type check: bytes() refuses every JSON
  value but an int or a bool in 0..255, and a bool is 0 or 1, so in rows
  that each hold one 0 and one 1 only those 2 * order entries have their
  types read (see _json_byte_rows).  Tables the library builds itself
  (products, subgroups, groups synthesized from permutation generators or
  element/multiplication pairs) skip every check, since they hold by
  construction, and find a generating set when first asked.
- A permutation group's table is built along a breadth-first search by
  right multiplication, one product per element and generator and one per
  row: the row of a g is the row of a read at the row of g.  Up to 256
  points an element is the bytes of its images, and up to order 256 a row
  is bytes too, so each product is one bytes.translate in C; past either
  bound a byte cannot hold the value, and elements stay tuples and rows
  lists (see from_permutations).
- A GroupHom checks its images by the set of their types and their min
  and max, in C, and phi(a b) = phi(a) phi(b) only for a in a generating
  set of the domain, in O(order * gens).
- A semidirect product checks that action[h] is an automorphism and that
  action[h h'] = action[h] action[h'] only for h in a generating set of H.
- Normal closures and normality conjugate only by generators of the
  group, and the derived series forms [A, A] as the normal closure of the
  commutators of generators of A.  Nilpotency needs no closure: it is
  read from element orders, by counting the elements of p-power order.
  A group's solvability is derived once and kept with the group.
- The reduction step finds its supplement G' by a depth-first search over
  lifts g_i n_i (n_i in N) of a generating set g_1..g_k of G/N, pruned by
  the order of the best proper supplement found so far (the lifting
  approach of Holt, Eick and O'Brien, *Handbook of Computational Group
  Theory*, 2005, ch. 7).  The search branches |N| ways per lift, so the
  g_i are chosen in G/N itself: on its quotient table, greedily by
  descending element order and then by index, and made irredundant.  For
  solvable G the Fitting subgroup F holds its centralizer, so G/F acts
  faithfully on F and |G/F| <= |Aut F|: the quotient table stays small
  (|G/F| = 72 for S4 x S4 x S3 and 36 for S4 x S4 x C2^3).
"""

from __future__ import annotations

from itertools import chain, repeat
from math import lcm
from operator import itemgetter

from .zarith import Record, all_ints, factorize, is_int, set_field

TYPE_CHECKING = False  # read as true by type checkers: NoReturn only annotates
if TYPE_CHECKING:
    from typing import NoReturn

TABLE_SYNTHESIS_CAP = 5040  # largest order synthesized from generators


def _bfs_closure(table, gens, bound: int | None = None) -> set[int] | None:
    """Elements reached from index 0 by right products with gens: the
    subgroup they generate in a group table (g^-1 = g^(ord g - 1)).  In any
    table they lie in the submagma of 0 and gens; a two-sided identity 0
    passes Light's test, which keeps that test sound.  None once a
    breadth-first layer ends with more than bound elements reached."""
    seen = {0}
    frontier = [0]
    gens = [g for g in gens if g]
    if bound is None:
        bound = len(table)
    while frontier:
        if len(seen) > bound:
            return None
        nxt = []
        for a in frontier:
            row = table[a]
            for g in gens:
                b = row[g]
                if b not in seen:
                    seen.add(b)
                    nxt.append(b)
        frontier = nxt
    return seen


def _greedy_generators(table, candidates, start=()) -> list[int] | None:
    """The candidates, in order, that lie outside the subgroup generated by
    start and the candidates taken before them.  With every element as a
    candidate they generate the group modulo <start>.  In a group each one
    at least doubles the subgroup, so there are at most log2 of the index;
    None, meaning "not a group", once one fails to, so that any table costs
    at most floor(log2 len(table)) + 2 closures."""
    gens = list(start)
    reached = _bfs_closure(table, gens) if gens else {0}
    for g in candidates:
        if g not in reached:
            gens.append(g)
            grown = _bfs_closure(table, gens)
            if len(grown) < 2 * len(reached):
                return None
            reached = grown
    return gens[len(start):]


def _irredundant(table, gens) -> list[int]:
    """A greedy set gens (each member outside the closure of those before
    it) that generates the table, less each member whose removal still
    leaves the closure full.  One pass suffices: a member kept because the
    others did not generate stays needed as the others shrink.  The last
    member lies outside the closure of the others, so it is kept without a
    closure, and k members cost k - 1 closures."""
    kept = list(gens)
    for g in gens[:-1]:
        rest = [h for h in kept if h != g]
        if len(_bfs_closure(table, rest)) == len(table):
            kept = rest
    return kept


def _check_latin_square(rows) -> None:
    """Every row and column of a square table is a permutation.  Only a
    rejected table is scanned: it names the fault of one that is not a
    Latin square."""
    full = set(range(len(rows)))
    for row, col in zip(rows, zip(*rows)):
        if set(row) != full:
            raise ValueError("table rows must be permutations (Latin square)")
        if set(col) != full:
            raise ValueError("table columns must be permutations (Latin square)")


def _reject(rows) -> NoReturn:
    """Raise the fault of a square table with identity 0 that is not a
    group: a Latin-square fault if it has one, else non-associativity
    (a Latin square with an identity is a group once it is associative)."""
    _check_latin_square(rows)
    raise ValueError("table is not associative")


def _byte_rows(rows) -> list[bytes]:
    """rows as bytes; a TypeError or ValueError for an entry that is not an
    int (or a bool) in 0..255.  bytearray() reads a sequence of ints about
    twice as fast as bytes() does (CPython 3.11: 0.10 against 0.24 ms for
    192 rows of 192), and bytes() of a bytearray is one copy."""
    return list(map(bytes, map(bytearray, rows)))


def _square_rows(rows, brows=None) -> list[bytes] | None:
    """Check that rows is square over its element indices, as a ValueError
    if not.  Up to order 256 it does so on the rows as bytes, in C, and
    returns those: brows when group_from_json has already converted them,
    else converted here; past it, where a byte cannot hold an index, on the
    rows themselves, and returns None."""
    n = len(rows)
    if n > 256:
        indices = frozenset(range(n))
        if not all(len(row) == n and indices.issuperset(row) for row in rows):
            raise ValueError("table is not square over element indices")
        return None
    if brows is None:
        try:
            brows = _byte_rows(rows)
        except (TypeError, ValueError):  # an entry that is not an int in 0..255
            pass
    if (brows is None or set(map(len, brows)) != {n}
            or b"".join(brows).translate(None, bytes(range(n)))):
        raise ValueError("table is not square over element indices")
    return brows


def _associative_at(rows, gens, brows) -> bool:
    """Whether (x a) y = x (a y) for every a in gens and all x, y: row by
    row, the row of x a against the row y -> x (a y).  On byte rows that
    row is brows[a].translate over x's row padded to 256 bytes, one lookup
    in C per entry; without them (order > 256) it is itemgetter over the
    row of a, one n-tuple per row."""
    if brows is None:
        for a in gens:
            row_times_a = itemgetter(*rows[a])  # rx -> (x a) b over all b
            if any(rows[rx[a]] != row_times_a(rx) for rx in rows):
                return False
        return True
    pad = bytes(256 - len(rows))
    tables = [b + pad for b in brows]  # y -> x y, as a translation table
    for a in gens:
        x_a = map(brows.__getitem__, map(itemgetter(a), rows))  # the row of x a, per x
        if list(map(brows[a].translate, tables)) != list(x_a):
            return False
    return True


class FiniteGroup:
    __slots__ = ("order", "table", "inv", "name", "_gens", "_orders", "_solvable",
                 "_subgroup_cache")

    def __init__(self, table: list[tuple[int, ...]] | list[list[int]], *, name: str = "G",
                 _trusted: bool = False, _brows: list[bytes] | None = None):
        n = len(table)
        if n == 0:
            raise ValueError("a group has at least the identity")
        rows = tuple(map(tuple, table))
        self._gens: tuple[int, ...] | None = None
        brows = None  # the rows as bytes, for a supplied table of order <= 256
        if not _trusted:
            # _brows: table's rows as group_from_json converted them, so that
            # a JSON table is converted to bytes once
            brows = _square_rows(rows, _brows)
            identity = tuple(range(n))
            if rows[0] != identity or tuple(map(itemgetter(0), rows)) != identity:
                raise ValueError("index 0 must be a two-sided identity")
            # Light's test: the a with (x a) y = x (a y) for all x, y are
            # closed under products and hold 0, so it suffices to check a
            # set whose closure is the whole table; each member costs an
            # O(n^2) pass
            gens = _greedy_generators(rows, range(1, n))
            if gens is None:
                _reject(rows)
            gens = _irredundant(rows, gens)
            if not _associative_at(rows, gens, brows):
                _reject(rows)
            self._gens = tuple(gens)
        self.order = n
        self.table = rows
        # a monoid in which every element has a right inverse is a group; in
        # a finite one a b = 0 gives b a = 0, so a's scan also inverts b
        inv = [None] * n
        try:
            for a, row in enumerate(brows or rows):
                if inv[a] is None:
                    b = inv[a] = row.index(0)
                    inv[b] = a
        except ValueError:
            _reject(rows)
        self.inv = tuple(inv)
        self.name = name
        self._orders: tuple | None = None
        self._solvable: bool | None = None
        self._subgroup_cache: dict = {}

    # -- basic structure ----------------------------------------------------

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def inverse(self, a: int) -> int:
        return self.inv[a]

    def conj(self, g: int, x: int) -> int:
        """g x g^-1."""
        return self.table[self.table[g][x]][self.inv[g]]

    def commutator(self, a: int, b: int) -> int:
        """a b a^-1 b^-1."""
        t = self.table
        return t[t[t[a][b]][self.inv[a]]][self.inv[b]]

    def generators(self) -> tuple[int, ...]:
        """A generating set, each element outside the subgroup the earlier
        ones generate: the set Light's test checked, or for a trusted table
        the same greedy choice made on first use."""
        if self._gens is None:
            self._gens = tuple(_greedy_generators(self.table, range(1, self.order)))
        return self._gens

    def element_order(self, a: int) -> int:
        if self._orders is None:
            orders = []
            for g in range(self.order):
                x, k = g, 1
                while x != 0:
                    x = self.table[x][g]
                    k += 1
                orders.append(k)
            self._orders = tuple(orders)
        return self._orders[a]

    def power(self, a: int, e: int) -> int:
        e %= self.element_order(a)
        x = 0
        for _ in range(e):
            x = self.table[x][a]
        return x

    def __repr__(self) -> str:
        return f"FiniteGroup({self.name}, order={self.order})"

    def __eq__(self, other) -> bool:
        return isinstance(other, FiniteGroup) and self.table == other.table

    def __hash__(self) -> int:
        return hash(self.table)

    # -- subgroup machinery ---------------------------------------------------

    def closure(self, gens) -> tuple[int, ...]:
        """Sorted element tuple of the subgroup generated by gens."""
        return tuple(sorted(_bfs_closure(self.table, gens)))

    def subgroup(self, gens) -> "Subgroup":
        return Subgroup(self, self.closure(gens))

    def trivial_subgroup(self) -> "Subgroup":
        return Subgroup(self, (0,))

    def full_subgroup(self) -> "Subgroup":
        return Subgroup(self, tuple(range(self.order)))

    def normal_closure(self, seed) -> tuple[int, ...]:
        """The least normal subgroup containing seed.  Conjugating by the
        generators suffices: a conjugation by a product is a composite."""
        elems = set(self.closure(seed))
        while True:
            extra = set()
            for g in self.generators():
                for x in elems:
                    c = self.conj(g, x)
                    if c not in elems:
                        extra.add(c)
            if not extra:
                break
            elems = set(self.closure(elems | extra))
        return tuple(sorted(elems))

    def all_normal_subgroups(self) -> list["Subgroup"]:
        """Every normal subgroup, as joins of principal normal closures."""
        cached = self._subgroup_cache.get("normals")
        if cached is not None:
            return cached
        principals = {self.normal_closure([g]) for g in range(self.order)}
        principals.add((0,))
        found = set(principals)
        frontier = set(principals)
        while frontier:
            nxt = set()
            for a in frontier:
                for b in principals:
                    j = self.closure(set(a) | set(b))
                    if j not in found:
                        found.add(j)
                        nxt.add(j)
            frontier = nxt
        out = sorted((Subgroup(self, t) for t in found), key=lambda s: (len(s.elements), s.elements))
        self._subgroup_cache["normals"] = out
        return out

    def all_subgroups(self, max_gens: int = 3) -> list["Subgroup"]:
        """Every subgroup generated by at most max_gens elements, sorted by
        (order, elements); with max_gens >= log2(order) that is all of them.
        The library no longer calls it: the tests use it as the exhaustive
        oracle for the supplement search of shafarevich_step.  It stays here
        while perfbench/spans.py patches it by name.

        Cyclic-extension scan: layer i holds the subgroups that first need
        i generators, and layer i+1 is {<B, k> : B in layer i, k not in B}.
        Since <B, k> = <B, b k b'> for b, b' in B, each double coset BkB
        costs one closure.
        """
        key = ("subgroups", max_gens)
        cached = self._subgroup_cache.get(key)
        if cached is not None:
            return cached
        table = self.table
        found: set[tuple[int, ...]] = {(0,)}
        layer: list[tuple[tuple[int, ...], list[int]]] = [((0,), [])]  # (B, generators of B)
        for _ in range(max_gens):
            nxt = []
            for base, gens in layer:
                covered = set(base)
                for k in range(1, self.order):
                    if k in covered:
                        continue
                    c = self.closure(gens + [k])
                    for b in base:
                        row = table[table[b][k]]
                        covered.update([row[b2] for b2 in base])
                    if c not in found:
                        found.add(c)
                        nxt.append((c, gens + [k]))
            layer = nxt
        out = sorted((Subgroup(self, t) for t in found), key=lambda s: (len(s.elements), s.elements))
        self._subgroup_cache[key] = out
        return out

    def to_json(self) -> dict:
        return {"order": self.order, "table": [list(r) for r in self.table]}


class Subgroup(Record):
    """A subgroup handle, the parent group plus a sorted element tuple, that
    checks nothing: the library makes one only from a closure, an intersection
    of conjugates or a hom, and tests/group_oracles.py checks each of those."""

    __slots__ = ("parent", "elements")

    def __init__(self, parent: FiniteGroup, elements: tuple[int, ...]):
        set_field(self, "parent", parent)
        set_field(self, "elements", elements)

    @property
    def order(self) -> int:
        return len(self.elements)

    def is_normal(self) -> bool:
        es = set(self.elements)
        return all(
            self.parent.conj(g, x) in es
            for g in self.parent.generators()
            for x in self.elements
        )

    def as_group(self, name: str = "H") -> FiniteGroup:
        """Materialize as a standalone group: index i is elements[i], so the
        identity 0 stays first."""
        pos = {g: i for i, g in enumerate(self.elements)}
        table = [tuple([pos[row[b]] for b in self.elements])
                 for row in map(self.parent.table.__getitem__, self.elements)]
        return FiniteGroup(table, name=name, _trusted=True)


class GroupHom:
    """A homomorphism given by its full image list.

    Each image must be of type int, so not a bool, as JSON input must give
    it, and an index of the codomain: the set of the images' types, then
    their min and max, each read in C.  The check phi(a b) = phi(a) phi(b)
    runs for every b but only for a in a generating set of the domain: the
    a that pass are closed under products, so they are the whole domain.
    """

    __slots__ = ("domain", "codomain", "images")

    def __init__(self, domain: FiniteGroup, codomain: FiniteGroup, images: list[int]):
        if len(images) != domain.order:
            raise ValueError("image list length must equal the domain order")
        if not (set(map(type, images)) == {int}
                and 0 <= min(images) and max(images) < codomain.order):
            raise ValueError("images out of range")
        if images[0] != 0:
            raise ValueError("identity must map to identity")
        for a in domain.generators():
            # b -> phi(a b) against b -> phi(a) phi(b)
            if itemgetter(*domain.table[a])(images) != itemgetter(*images)(codomain.table[images[a]]):
                raise ValueError("map is not a homomorphism")
        self.domain = domain
        self.codomain = codomain
        self.images = tuple(images)

    def __call__(self, g: int) -> int:
        return self.images[g]

    def kernel(self) -> Subgroup:
        return Subgroup(self.domain, tuple(g for g in range(self.domain.order) if self.images[g] == 0))

    def image(self) -> Subgroup:
        return Subgroup(self.codomain, tuple(sorted(set(self.images))))

    def is_surjective(self) -> bool:
        return len(set(self.images)) == self.codomain.order

    def is_injective(self) -> bool:
        return len(set(self.images)) == self.domain.order

    def compose(self, inner: "GroupHom") -> "GroupHom":
        """self after inner."""
        if inner.codomain is not self.domain and inner.codomain != self.domain:
            raise ValueError("composition mismatch")
        return GroupHom(inner.domain, self.codomain, [self.images[v] for v in inner.images])

    def __repr__(self) -> str:
        return f"GroupHom({self.domain.name} -> {self.codomain.name})"

    def to_json(self) -> dict:
        return {"map": list(self.images)}


# -- constructions -------------------------------------------------------------


def from_elements(elements: list, mult, *, name: str = "G") -> FiniteGroup:
    """Synthesize a table group from abstract elements and a product function.

    The identity is detected and moved to index 0.  mult must be a group law
    on elements: the table is trusted, so neither the Latin-square checks
    nor Light's associativity test runs on it.
    """
    if len(elements) > TABLE_SYNTHESIS_CAP:
        raise ValueError(f"order {len(elements)} exceeds the synthesis cap {TABLE_SYNTHESIS_CAP}")
    identity = None
    for e in elements:
        if all(mult(e, x) == x and mult(x, e) == x for x in elements):
            identity = e
            break
    if identity is None:
        raise ValueError("no identity element found")
    ordered = [identity] + [e for e in elements if e != identity]
    pos = {e: i for i, e in enumerate(ordered)}
    table = [tuple([pos[mult(a, b)] for b in ordered]) for a in ordered]
    return FiniteGroup(table, name=name, _trusted=True)


def perm_from_cycles(cycles: list[list[int]], degree: int) -> tuple:
    """The permutation of range(degree) with the given disjoint cycles."""
    seen: set[int] = set()
    for cyc in cycles:
        if len(set(cyc)) != len(cyc):
            raise ValueError("a cycle of a permutation generator repeats a point")
        if not seen.isdisjoint(cyc):
            raise ValueError("two cycles of one permutation generator share a point")
        seen.update(cyc)
    img = list(range(degree))
    for cyc in cycles:
        for i, v in enumerate(cyc):
            img[v] = cyc[(i + 1) % len(cyc)]
    return tuple(img)


def _permutation_form(n: int, wide: type) -> tuple:
    """How from_permutations holds permutations of range(n): as form(images),
    with their product a g, (a g)(x) = a(g(x)), as compose(g, widen(a)).
    Up to n = 256 form is bytes and compose is bytes.translate, in C, over a
    padded to 256 bytes; past it a byte cannot hold an image, and form is
    the wide type, read by map."""
    if n <= 256:
        pad = bytes(256 - n)
        return bytes, lambda a: a + pad, bytes.translate
    return wide, lambda a: a, lambda g, a: wide(map(a.__getitem__, g))


def from_permutations(gen_cycles: list[list[list[int]]], *, name: str = "G") -> FiniteGroup:
    """Group generated by permutations, given as 0-based cycle lists.

    The points that occur are relabeled 0..m-1 in increasing order first,
    so the cost does not grow with the size of the labels.  An increasing
    relabeling keeps the lexicographic order of the elements, and with it
    their indices in the table.  The table costs one composition per
    element and generator, not one per pair: the elements are found by
    right multiplication, and each new element's row is composed from the
    rows of the element and generator it was found from.  Elements (m <=
    256) and rows (order <= 256) are composed as bytes, one bytes.translate
    each (_permutation_form), and sorting bytes of one length sorts them as
    tuples.  Past either bound a byte cannot hold an image: elements are
    tuples, and rows are lists, as map reads a list about twice as fast as
    a tuple.  Each row becomes a tuple as it is popped: the table is held
    once.
    """
    points = sorted({v for g in gen_cycles for cyc in g for v in cyc})
    label = {v: i for i, v in enumerate(points)}
    form, widen, compose = _permutation_form(len(points), tuple)
    gens = [form(perm_from_cycles([[label[v] for v in cyc] for cyc in g], len(points)))
            for g in gen_cycles]
    # right multiplication reaches every element of a finite group; each
    # new b = a g remembers its a and g
    identity = form(range(len(points)))
    found = [identity]  # grows while the loop runs
    parent = {identity: None}
    for a in found:
        wide_a = widen(a)
        for j, g in enumerate(gens):
            b = compose(g, wide_a)
            if b not in parent:
                if len(found) >= TABLE_SYNTHESIS_CAP:
                    raise ValueError("generated group exceeds the synthesis cap")
                parent[b] = (a, j)
                found.append(b)
    ordered = sorted(found)  # the identity is the least
    pos = {e: i for i, e in enumerate(ordered)}
    # row b of the table, for b = a g, is row a read at the indices of
    # row g: (a g) x = a (g x), the product of rows a and g as permutations;
    # row g itself holds the index of g x for each x
    row_form, row_widen, row_compose = _permutation_form(len(ordered), list)
    gen_rows = [row_form(map(pos.__getitem__, map(compose, ordered, repeat(widen(g)))))
                for g in gens]
    rows = {identity: row_form(range(len(ordered)))}
    for b in found[1:]:
        a, j = parent[b]
        rows[b] = row_compose(gen_rows[j], row_widen(rows[a]))
    return FiniteGroup([tuple(rows.pop(e)) for e in ordered], name=name, _trusted=True)


def cyclic_group(n: int) -> FiniteGroup:
    """C_n with the distinguished generator at index 1 (when n > 1)."""
    table = [tuple([(i + j) % n for j in range(n)]) for i in range(n)]
    return FiniteGroup(table, name=f"C{n}", _trusted=True)


def symmetric_group(n: int) -> FiniteGroup:
    if n < 1:
        raise ValueError("n >= 1")
    if n == 1:
        return cyclic_group(1)
    return from_permutations([[[0, 1]], [list(range(n))]], name=f"S{n}")


def alternating_group(n: int) -> FiniteGroup:
    if n < 3:
        return cyclic_group(1)
    gens: list[list[list[int]]] = [[[0, 1, 2]]]
    if n > 3:
        # an n-cycle is even iff n is odd; otherwise use the (n-1)-cycle
        gens.append([list(range(n))] if n % 2 else [list(range(1, n))])
    return from_permutations(gens, name=f"A{n}")


def dihedral_group(n: int) -> FiniteGroup:
    """D_n of order 2n (symmetries of the n-gon), n >= 3.

    D_2 is the Klein four group and has no faithful action on 2 points;
    build it as a direct product instead.
    """
    if n < 3:
        raise ValueError("dihedral_group needs n >= 3")
    rot = [list(range(n))]
    refl = [[i, n - i] for i in range(1, (n + 1) // 2) if i != n - i]
    return from_permutations([rot, refl], name=f"D{n}")


def dicyclic_group(n: int) -> FiniteGroup:
    """Dic_n of order 4n: <a, b | a^(2n) = 1, b^2 = a^n, b a b^-1 = a^-1>.

    Dic_2 is the quaternion group Q8, Dic_4 is Q16.
    """
    if n < 1:
        raise ValueError("n >= 1")
    elements = [(i, e) for e in (0, 1) for i in range(2 * n)]

    def mult(x, y):
        i, e = x
        j, d = y
        if e == 0:
            return ((i + j) % (2 * n), d)
        # a^i b a^j = a^(i-j) b ; b^2 = a^n
        if d == 0:
            return ((i - j) % (2 * n), 1)
        return ((i - j + n) % (2 * n), 0)

    return from_elements(elements, mult, name=f"Dic{n}")


def _pair_table(A: FiniteGroup, B: FiniteGroup, twist) -> list[tuple[int, ...]]:
    """The table of the pairs (a, b) under (a, b)(a', b') = (a twist[b](a'),
    b b'), with (a, b) at index a*|B| + b: sorted, identity (0, 0) first."""
    m = A.order * B.order
    if m > TABLE_SYNTHESIS_CAP:
        raise ValueError(f"order {m} exceeds the synthesis cap {TABLE_SYNTHESIS_CAP}")
    rows = []
    for row_a in A.table:
        for row_b, perm in zip(B.table, twist):
            firsts = [row_a[x] * B.order for x in perm]
            rows.append(tuple([i + j for i in firsts for j in row_b]))
    return rows


def direct_product(A: FiniteGroup, B: FiniteGroup, *, name: str | None = None) -> FiniteGroup:
    table = _pair_table(A, B, [range(A.order)] * B.order)
    return FiniteGroup(table, name=name or f"{A.name}x{B.name}", _trusted=True)


def semidirect_product(
    N: FiniteGroup, H: FiniteGroup, action: list[tuple]
) -> tuple[FiniteGroup, GroupHom, GroupHom]:
    """N x| H for an action H -> Aut(N) given as one N-permutation per H element.

    Multiplication: (n, h)(n', h') = (n * action[h](n'), h h'), with (n, h)
    at index n*|H| + h.  Returns the product with the projection pr onto H
    and the section sec: h -> (1, h), so pr after sec is the identity of H.

    Every value must be a permutation of N's indices fixing 0.  That
    action[h] is an automorphism with action[h h'] = action[h] action[h']
    for all h' is checked only for h in a generating set of H (and h = 1):
    the h that pass are closed under products, so they are all of H.
    """
    if len(action) != H.order:
        raise ValueError("action must assign a permutation to every H element")
    action = [tuple(perm) for perm in action]
    identity = tuple(range(N.order))
    if any(tuple(sorted(perm)) != identity or perm[0] != 0 for perm in action):
        raise ValueError("action values must be automorphisms of N")
    gens = H.generators()
    for h in (0, *gens):
        try:
            GroupHom(N, N, action[h])
        except ValueError:
            raise ValueError("action values must be automorphisms of N") from None
    if action[0] != identity:
        raise ValueError("identity of H must act trivially")
    for h in gens:
        for perm, hh in zip(action, H.table[h]):
            if tuple(map(action[h].__getitem__, perm)) != action[hh]:
                raise ValueError("action is not a homomorphism into Aut(N)")

    G = FiniteGroup(_pair_table(N, H, action), name=f"{N.name}:{H.name}", _trusted=True)
    pr = GroupHom(G, H, [i % H.order for i in range(G.order)])
    sec = GroupHom(H, G, list(range(H.order)))
    return G, pr, sec


def conjugation_action(G: FiniteGroup, N: Subgroup, H: Subgroup) -> list[tuple]:
    """The action of H on normal N by conjugation inside their common parent,
    expressed on N's local indices."""
    n_pos = {g: i for i, g in enumerate(N.elements)}
    return [tuple(n_pos[G.conj(h, x)] for x in N.elements) for h in H.elements]


# -- structural predicates ------------------------------------------------------


def _derived_series_end(G: FiniteGroup) -> tuple[int, ...]:
    """The last term of the derived series A_{i+1} = [A_i, A_i].  For normal
    A, [A, A] is the normal closure of the commutators of generators of A:
    modulo that closure the generators commute, and so does A."""
    current = tuple(range(G.order))
    gens = G.generators()
    while True:
        nxt = G.normal_closure({G.commutator(a, b) for a in gens for b in gens})
        if nxt == current:
            return current
        current = nxt
        gens = _greedy_generators(G.table, current)


def is_solvable(G: FiniteGroup) -> bool:
    """Derived series reaches the trivial subgroup.  The verdict is derived
    once per group and kept, so solvable_tower's check and its first step's
    share one derived series."""
    if G._solvable is None:
        G._solvable = _derived_series_end(G) == (0,)
    return G._solvable


def is_nilpotent(G: FiniteGroup, elements: tuple[int, ...] | None = None) -> bool:
    """Whether G, or its subgroup H with the given elements, is nilpotent:
    for each p, whether H has |H|_p elements of p-power order.  Those form
    the union of the Sylow p-subgroups, so this holds exactly when each
    Sylow subgroup is unique, that is normal.  Reads element orders only."""
    orders = list(map(G.element_order, range(G.order) if elements is None else elements))
    return all(sum(q % o == 0 for o in orders) == q
               for q in (p ** k for p, k in factorize(len(orders))))


def sylow_subgroup(G: FiniteGroup, p: int) -> Subgroup:
    """A Sylow p-subgroup, grown deterministically from p-elements."""
    target = 1
    n = G.order
    while n % p == 0:
        n //= p
        target *= p
    elems = {0}
    while len(elems) < target:
        grown = False
        for g in range(1, G.order):
            if g in elems:
                continue
            if target % G.element_order(g):
                continue  # not a p-element
            # g must normalize the current p-subgroup for <P, g> to stay a p-group
            if all(G.conj(g, x) in elems for x in elems):
                new = set(G.closure(elems | {g}))
                if len(new) > len(elems) and target % len(new) == 0:
                    elems = new
                    grown = True
                    break
        if not grown:
            raise AssertionError("Sylow growth stalled; table is not a group?")
    return Subgroup(G, tuple(sorted(elems)))


def p_core(G: FiniteGroup, p: int) -> Subgroup:
    """O_p(G), the intersection of the conjugates of a Sylow p-subgroup P:
    K <- K meet gKg^-1 over the generators g, from K = P, until stable.  Each
    K holds the normal O_p(G), and the stable K is normal, so it is O_p(G)."""
    if G.order % p != 0:
        return G.trivial_subgroup()
    core = set(sylow_subgroup(G, p).elements)
    while True:
        nxt = core.intersection(*({G.conj(g, x) for x in core} for g in G.generators()))
        if nxt == core:
            return Subgroup(G, tuple(sorted(core)))
        core = nxt


def fitting_subgroup(G: FiniteGroup) -> Subgroup:
    """The largest nilpotent normal subgroup: the product of the p-cores
    over the primes dividing the order."""
    elems = {0}
    for p, _ in factorize(G.order) if G.order > 1 else ():
        elems |= set(p_core(G, p).elements)
    return Subgroup(G, G.closure(elems))


class ReductionStep(Record):
    """One step of the solvable-group reduction: a surjection
    phi : N x| G' -> G with N the Fitting subgroup and G' a proper subgroup
    (or N = G, G' = 1 when G is nilpotent), G' acting by conjugation; phi
    is the image list, the pair (N.elements[i], Gp.elements[j]) at index i*|G'| + j."""

    __slots__ = ("group", "N", "Gp", "phi", "note")

    def __init__(self, group: FiniteGroup, N: Subgroup, Gp: Subgroup, phi: tuple[int, ...],
                 note: str):
        set_field(self, "group", group)
        set_field(self, "N", N)
        set_field(self, "Gp", Gp)
        set_field(self, "phi", phi)
        set_field(self, "note", note)

    def kernel_order(self) -> int:
        return self.phi.count(0)  # |N meet G'|


def quotient_table(G: FiniteGroup, N: Subgroup) -> tuple[list[int], list[int], FiniteGroup]:
    """G/N for normal N: coset[g] numbers g N among the cosets in the order
    of their least elements reps, their representatives (N, holding 0, is
    coset 0), and the table of G/N on those numbers."""
    table = G.table
    coset, reps = [-1] * G.order, []
    for g in range(G.order):
        if coset[g] < 0:
            for x in N.elements:
                coset[table[g][x]] = len(reps)
            reps.append(g)
    Q = FiniteGroup([tuple([coset[table[a][b]] for b in reps]) for a in reps],
                    name="G/N", _trusted=True)
    return coset, reps, Q


def _min_supplement(G: FiniteGroup, N: Subgroup) -> tuple[int, ...] | None:
    """The minimum-order proper H with N*H = G for normal N, ties broken by
    the lexicographically least element tuple; None if there is none.

    For a generating set g_1..g_k of G modulo N, every subgroup
    <g_1 n_1, ..., g_k n_k> with n_i in N is a supplement.  Conversely a
    supplement H holds a lift of each g_i, and those lifts generate a
    supplement inside H; so every inclusion-minimal supplement, and with it
    every minimum-order one, is such a lift closure.  The search picks
    n_1, n_2, ... depth first.  A partial closure only grows as lifts are
    added, and a supplement's order is a multiple of both |G:N| and that of
    any subgroup in it, so a branch is dropped once lcm(|closure|, |G:N|)
    passes the order of the best proper supplement found so far (at first
    |G|/2, which only G exceeds).  A partial closure reached twice at the
    same depth has the same subtree and is searched once.

    Any generating set of G/N gives the same answer, and each lift
    multiplies the search by up to |N|, so the g_i are few: an irredundant
    greedy set of the quotient table, |G| + |G/N|^2 reads to build.
    """
    table = G.table
    _, reps, Q = quotient_table(G, N)
    index = Q.order
    # few lifts, of cosets of large order: by descending order, then index
    by_order = sorted(range(1, index), key=lambda a: (-Q.element_order(a), a))
    lifts = [reps[a] for a in _irredundant(Q.table, _greedy_generators(Q.table, by_order))]
    cosets = [[table[g][x] for x in N.elements] for g in lifts]
    k = len(lifts)
    best: tuple[int, tuple[int, ...]] | None = None
    bound = G.order // 2
    visited: set[tuple[int, frozenset[int]]] = set()

    def search(depth: int, gens: list[int]) -> None:
        nonlocal best, bound
        for x in cosets[depth]:
            closure = _bfs_closure(table, gens + [x], bound)
            if closure is None or lcm(len(closure), index) > bound:
                continue
            if depth + 1 == k:
                key = (len(closure), tuple(sorted(closure)))
                if best is None or key < best:
                    best, bound = key, key[0]
                continue
            node = (depth, frozenset(closure))
            if node not in visited:
                visited.add(node)
                search(depth + 1, gens + [x])

    search(0, [])
    return None if best is None else best[1]


def shafarevich_step(G: FiniteGroup) -> ReductionStep:
    """Split a nontrivial solvable G as a quotient of Fitting x| G'.

    G' is the minimal-order proper subgroup with N*G' = G (ties broken by
    the lexicographically least element set), found by _min_supplement's
    lift search; phi(n, g') = n*g' is a homomorphism by (n h)(n' h') =
    n (h n' h^-1) . h h', so N x| G' is never built; only N*G' = G is re-checked.
    """
    if G.order == 1:
        raise ValueError("the trivial group has no reduction step")
    if not is_solvable(G):
        raise ValueError("reduction step requires a solvable group")
    if is_nilpotent(G):
        N = G.full_subgroup()
        Gp = G.trivial_subgroup()
        note = "nilpotent: N = G, G' = 1"
    else:
        N = fitting_subgroup(G)
        best = _min_supplement(G, N)
        if best is None:
            raise AssertionError("no proper complement-like subgroup found")
        Gp = Subgroup(G, best)
        note = "G' = minimal-order subgroup with N*G' = G (lex tie-break)"
    phi = tuple(G.table[n][h] for n in N.elements for h in Gp.elements)
    if len(set(phi)) != G.order:
        raise AssertionError("reduction surjection failed verification")
    return ReductionStep(G, N, Gp, phi, note)


def solvable_tower(G: FiniteGroup) -> list[ReductionStep]:
    """Iterate the reduction step on the successive G' until trivial."""
    if not is_solvable(G):
        raise ValueError("tower requires a solvable group")
    steps = []
    current = G
    while current.order > 1:
        step = shafarevich_step(current)
        steps.append(step)
        current = step.Gp.as_group("G'")
    return steps


def _json_byte_rows(table: list[list]) -> list[bytes] | None:
    """The rows of a parsed JSON table of order <= 256 as bytes, when that
    one conversion also proves every entry an int; None when it cannot.

    A JSON value is an int, bool, float, str, null, list or dict, and
    bytes() refuses all but int and bool, and any int outside 0..255.  A
    bool is 0 or 1, so in rows that each hold exactly one 0 and one 1, as
    a group table's rows do, only those 2 |G| entries can be bools: their
    types are read at the positions bytes.index finds, in C."""
    n = len(table)
    if n > 256:
        return None
    try:
        brows = _byte_rows(table)
    except (TypeError, ValueError):
        return None
    entries = []  # the 0 and the 1 of each row
    for v in (0, 1):
        if list(map(bytes.count, brows, repeat(v))).count(1) != n:
            return None
        entries += map(list.__getitem__, table, map(bytes.index, brows, repeat(v)))
    return brows if all_ints(entries) else None


def group_from_json(data: dict) -> FiniteGroup:
    """Build a group from {"table": rows} or {"perm_gens": generators as
    0-based cycle lists}, with an optional "order" that must match; a
    malformed shape raises ValueError.

    data is parsed JSON, whose only ints are of type int and bool: the
    byte conversion of a table (_json_byte_rows) would also accept any
    object with __index__, and reads the types of the 0 and 1 entries
    only.  A table it cannot vouch for (order > 256, an entry bytes()
    refuses, a row without exactly one 0 and one 1) has every entry's type
    read, so each refusal keeps its message."""
    if not isinstance(data, dict):
        raise ValueError("group JSON must be an object")
    if "table" in data:
        table = data["table"]
        if not (isinstance(table, list) and all(map(list.__instancecheck__, table))):
            raise ValueError("'table' must be a list of integer rows")
        brows = _json_byte_rows(table)
        if brows is None and not all_ints(chain.from_iterable(table)):
            raise ValueError("'table' must be a list of integer rows")
        G = FiniteGroup(table, name=data.get("name", "G"), _brows=brows)
    elif "perm_gens" in data:
        gens = data["perm_gens"]
        if not isinstance(gens, list) or not all(
                isinstance(g, list) and all(
                    isinstance(c, list) and all(is_int(v) and v >= 0 for v in c) for c in g)
                for g in gens):
            raise ValueError("'perm_gens' must list generators as cycles of non-negative integers")
        G = from_permutations(gens, name=data.get("name", "G"))
    else:
        raise ValueError("group JSON needs 'table' or 'perm_gens'")
    if "order" in data and not (is_int(data["order"]) and data["order"] == G.order):
        raise ValueError("'order' must equal the order of the group")
    return G
