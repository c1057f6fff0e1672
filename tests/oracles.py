"""Independent oracles that only the tests use.

TwinEngine counts matchings by a pivot recursion memoized on how many
vertices of each closed-twin class remain; it shares no decomposition rule
with powg's MatchingEngine and reaches beyond brute-force size.
bfs_distances and all_pairs_distances build full distance tables by queue
BFS, against which the layer sizes of powg.distance are checked.
reference_validate is the group-axiom check that checked inverses element
by element, against which powg.groups._validate_table is compared.
family_sums_of_rows adds up the rows of paper_hosoya_index family by
family, against which the closed sums of paper_family_sums are compared.
"""

from __future__ import annotations

import operator

from powg import matching
from powg.formulas import FAMILY_TAGS, paper_hosoya_index
from powg.groups import GroupError
from powg.graphs import Graph, _components
from powg.matching import MatchingLimitError, MatchingPolynomial, _convolve


def bfs_distances(graph: Graph, src: int) -> list[int]:
    """Shortest-path distances from src by a queue BFS; -1 marks unreachable."""
    dist = [-1] * graph.n
    dist[src] = 0
    queue = [src]
    for u in queue:  # appending while iterating makes the list a FIFO queue
        for w in graph.neighbors(u):
            if dist[w] < 0:
                dist[w] = dist[u] + 1
                queue.append(w)
    return dist


def all_pairs_distances(graph: Graph) -> tuple[tuple[int, ...], ...]:
    """Exact all-pairs distance table via BFS from every vertex."""
    return tuple(tuple(bfs_distances(graph, v)) for v in range(graph.n))


class TwinEngine:
    """One matching-polynomial computation over closed-twin classes.

    Vertices with equal closed neighbourhoods adj[v] | 1 << v form a clique,
    and two such classes are joined completely or not at all.  The matching
    count of what remains therefore depends only on how many vertices of
    each class remain, so the state is that count vector.  Classes are found
    from the adjacency rows alone, so the engine is exact on any graph; in a
    power graph the elements generating one cyclic subgroup fall into one
    class.  The memo lives for a single run and, like MatchingEngine's,
    holds at most matching.MEMO_LIMIT entries.
    """

    def __init__(self, graph: Graph):
        self.graph = graph
        self.memo: dict[tuple[int, ...], list[int]] = {}
        self.calls = 0
        members: dict[int, list[int]] = {}
        for v in range(graph.n):
            members.setdefault(graph.adj[v] | 1 << v, []).append(v)
        closed = list(members)
        self.sizes = tuple(len(vs) for vs in members.values())
        # class j is adjacent to class i when i's closed neighbourhood holds
        # any (hence every) vertex of j
        self.class_adj = tuple(
            sum(1 << j for j, vs in enumerate(members.values())
                if j != i and closed[i] >> vs[0] & 1)
            for i in range(len(closed)))

    def run(self) -> MatchingPolynomial:
        try:
            coeffs = self._poly(self.sizes)
        except RecursionError:  # one frame per removed vertex
            raise MatchingLimitError(
                f"recursion depth exceeded at {self.graph.n} vertices") from None
        return MatchingPolynomial(tuple(coeffs))

    @property
    def stats(self) -> dict[str, int | str]:
        return {"memo_entries": len(self.memo), "subproblems": self.calls,
                "pivot": "max-degree", "classes": len(self.sizes)}

    def _components(self, counts: tuple[int, ...]):
        """Count vectors of the components of the remaining graph, each zero
        outside its own classes; single vertices are left out."""
        live = sum(1 << i for i, r in enumerate(counts) if r)
        for comp in _components(self.class_adj, live):
            if comp & (comp - 1) or counts[comp.bit_length() - 1] > 1:
                yield tuple(r if comp >> i & 1 else 0 for i, r in enumerate(counts))

    def _pick_pivot(self, counts: tuple[int, ...]) -> int:
        """The class of maximum vertex degree, the lowest index on ties."""
        class_adj = self.class_adj
        best_i, best_d = -1, -1
        for i, r in enumerate(counts):
            if r:
                d = r - 1
                m = class_adj[i]
                while m:
                    low = m & -m
                    d += counts[low.bit_length() - 1]
                    m ^= low
                if d > best_d:
                    best_i, best_d = i, d
        return best_i

    def _poly(self, counts: tuple[int, ...]) -> list[int]:
        result = [1]
        for comp in self._components(counts):
            total = self.memo.get(comp)
            if total is None:
                self.calls += 1
                i = self._pick_pivot(comp)
                rest = list(comp)
                rest[i] -= 1
                # the pivot vertex stays unmatched
                total = self._poly(tuple(rest))
                # or is matched to one of the rest[i] vertices left in its own
                # class, or to one of the comp[j] vertices of a neighbour class j
                partners = [(rest[i], i)]
                m = self.class_adj[i]
                while m:
                    low = m & -m
                    j = low.bit_length() - 1
                    partners.append((comp[j], j))
                    m ^= low
                for weight, j in partners:
                    if weight:
                        rest[j] -= 1
                        sub = self._poly(tuple(rest))
                        rest[j] += 1
                        if len(total) < len(sub) + 1:
                            total = total + [0] * (len(sub) + 1 - len(total))
                        for d, c in enumerate(sub):
                            total[d + 1] += weight * c
                if len(self.memo) >= matching.MEMO_LIMIT:
                    raise MatchingLimitError(
                        f"memo entry cap {matching.MEMO_LIMIT} exceeded at {self.graph.n} vertices"
                    )
                self.memo[comp] = total
            result = _convolve(result, total)
        return result


def reference_validate(table: tuple[tuple[int, ...], ...]) -> None:
    """Check the group axioms exactly, at every order; raises GroupError
    naming the first witness found.  Inverses are checked per element,
    right (a 0 in its row) before left (a 0 in its column).  Associativity
    is Light's test: if (x·g)·y = x·(g·y) for all x, y and each g of a
    generating set, it holds for all triples, as the elements passing it
    are closed under products."""
    n = len(table)
    ident = tuple(range(n))
    if table[0] != ident or tuple(row[0] for row in table) != ident:
        # locate a genuine identity elsewhere to give the sharper error
        for e in range(1, n):
            if tuple(row[e] for row in table) == ident and table[e] == ident:
                raise GroupError(f"identity element is at index {e}, not 0")
        raise GroupError("element 0 is not an identity (row or column broken)")

    for x, column in enumerate(zip(*table)):
        if 0 not in table[x]:
            raise GroupError(f"element {x} has no right inverse")
        if 0 not in column:
            raise GroupError(f"element {x} has no left inverse")

    # `reached` is the closure of {0} under right multiplication by the
    # generators so far, a subgroup once they pass.  A passing g has a right
    # inverse g' with (x·g)·g' = x, so x -> x·g is injective and reached·g is
    # a disjoint coset: each generator at least doubles `reached`, so at most
    # floor(log2 n) generators are needed and no cap is.
    reached, gens = {0}, []
    while len(reached) < n:
        g = next(x for x in range(n) if x not in reached)
        row_g = table[g]
        through_g = operator.itemgetter(*row_g)  # row of x -> row of x·(g·y)
        for x, row_x in enumerate(table):
            row_xg = table[row_x[g]]
            if through_g(row_x) != row_xg:
                y = next(y for y in range(n) if row_xg[y] != row_x[row_g[y]])
                raise GroupError(
                    f"associativity fails at triple ({x}, {g}, {y}): "
                    f"({x}·{g})·{y} = {row_xg[y]} but {x}·({g}·{y}) = {row_x[row_g[y]]}"
                )
        gens.append(g)
        frontier = set(reached)
        while frontier:
            frontier = {table[r][h] for r in frontier for h in gens} - reached
            reached |= frontier


def family_sums_of_rows(k: int, p: int, mode: str) -> dict[str, int]:
    """The sum of each family's rows in the family table of (k, p) and mode."""
    sums = dict.fromkeys(FAMILY_TAGS, 0)
    for row in paper_hosoya_index(k, p, mode)[1]:
        sums[row["family"]] += row["count"]
    return sums
