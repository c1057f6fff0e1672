"""Independent oracles that only the tests use.

TwinEngine counts matchings by a pivot recursion memoized on how many
vertices of each closed-twin class remain; it shares no decomposition rule
with powg's MatchingEngine and reaches beyond brute-force size.
bfs_distances and all_pairs_distances build full distance tables by queue
BFS, against which the layer sizes of powg.distance are checked.
"""

from __future__ import annotations

from powg import matching
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
