"""Exact matching enumeration.

matching_polynomial counts i-edge matchings for every i with MatchingEngine,
a decomposition recursion memoized on vertex-subset bitmasks: components
are factored, a complete subgraph is read from the K_n row, universal
vertices are added one at a time to the count of the rest, and any other
subgraph pivots on a vertex of maximum degree, with neighbours of equal
closed neighbourhood taken once.  The oracle brute_force_matchings shares
none of that and enumerates every matching of up to 16 vertices; the tests
keep a second engine, memoized on closed-twin class counts, in
tests/oracles.py.  All counts are exact Python integers.
"""

from __future__ import annotations

import functools
import math
from collections import namedtuple

from .graphs import Graph, _components

# memo entries one run may store before it stops with MatchingLimitError
MEMO_LIMIT = 1 << 26
BRUTE_FORCE_MAX_VERTICES = 16


class MatchingLimitError(RuntimeError):
    """The memo entry cap, the recursion depth or memory ran out in a run."""


class MatchingPolynomial(namedtuple("MatchingPolynomial", "coeffs")):
    """Exact counts m_i of i-edge matchings; coeffs[0] = 1 (empty matching)."""

    __slots__ = ()

    @property
    def hosoya_index(self) -> int:
        return sum(self.coeffs)

    def m(self, i: int) -> int:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

    def render(self) -> str:
        body = ", ".join(f"m_{i}={c}" for i, c in enumerate(self.coeffs))
        return f"{body}\nZ={self.hosoya_index}"


def _convolve(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return out


def _add_universal(poly: list[int], n: int, count: int) -> list[int]:
    """Matching polynomial after count universal vertices join a graph on n
    vertices, one at a time: m_i(G + w) = m_i(G) + (n - 2i + 2) m_(i-1)(G).
    Trailing zero coefficients are dropped."""
    poly = list(poly)
    for size in range(n, n + count):
        poly.append(0)
        for i in range(len(poly) - 1, 0, -1):
            poly[i] += (size - 2 * i + 2) * poly[i - 1]
    while poly[-1] == 0:
        poly.pop()
    return poly


def _add_into(total: list[int], row: list[int], weight: int, shift: int = 0) -> None:
    """total += weight * x^shift * row, extending total as needed."""
    total.extend([0] * (len(row) + shift - len(total)))
    for i, c in enumerate(row):
        total[i + shift] += weight * c


class MatchingEngine:
    """One matching-polynomial computation by decomposition on vertex masks.

    Every connected subgraph of two or more vertices is memoized on its
    vertex mask and solved by the first rule that holds on it:
    - complete: every vertex is universal, so it is K_n, read from the
      closed-form row;
    - universal: r vertices see every other vertex; the rest is solved on
      its own and the r vertices are added one at a time (_add_universal);
    - pivot: a vertex v of maximum degree is unmatched, or matched to a
      neighbour u.  Neighbours with equal closed neighbourhoods are twins, so
      removing v and either one leaves isomorphic graphs: each such group is
      one subproblem weighted by its size.
    Every rule is checked on the live subgraph, so the engine is exact on
    any graph.  The memo lives for a single run and holds at most MEMO_LIMIT
    entries; a run that exhausts memory drops it and raises
    MatchingLimitError.
    """

    def __init__(self, graph: Graph):
        self.graph = graph
        self.memo: dict[int, list[int]] = {}

    def run(self) -> MatchingPolynomial:
        try:
            coeffs = self._poly((1 << self.graph.n) - 1)
        except RecursionError:  # a few frames per pivot level
            raise MatchingLimitError(
                f"recursion depth exceeded at {self.graph.n} vertices") from None
        except (MemoryError, SystemError):
            # CPython 3.11 raises SystemError when it cannot allocate a
            # frame; dropping the memo frees the room to raise and report
            self.memo.clear()
            raise MatchingLimitError(
                f"memory exhausted at {self.graph.n} vertices") from None
        return MatchingPolynomial(tuple(coeffs))

    @property
    def stats(self) -> dict[str, int]:
        # every memo miss stores one entry or raises, so the two are equal
        return {"memo_entries": len(self.memo), "subproblems": len(self.memo)}

    def _poly(self, mask: int) -> list[int]:
        result = [1]
        for comp in _components(self.graph.adj, mask):
            if comp & (comp - 1):
                result = _convolve(result, self._connected_poly(comp))
        return result

    def _connected_poly(self, cmask: int) -> list[int]:
        total = self.memo.get(cmask)
        if total is not None:
            return total
        adj = self.graph.adj
        # the vertices whose closed neighbourhood holds all of cmask
        universal = m = cmask
        while m and universal:
            low = m & -m
            universal &= adj[low.bit_length() - 1] | low
            m ^= low
        if universal == cmask:
            total = list(_k_n_row(cmask.bit_count(), "corrected"))
        elif universal:
            rest = cmask ^ universal
            total = _add_universal(self._poly(rest), rest.bit_count(), universal.bit_count())
        else:
            total = self._pivot_poly(cmask)
        if len(self.memo) >= MEMO_LIMIT:
            raise MatchingLimitError(
                f"memo entry cap {MEMO_LIMIT} exceeded at {self.graph.n} vertices"
            )
        self.memo[cmask] = total
        return total

    def _pivot_poly(self, cmask: int) -> list[int]:
        adj = self.graph.adj
        v, best = -1, -1
        m = cmask
        while m:
            low = m & -m
            d = (adj[low.bit_length() - 1] & cmask).bit_count()
            if d > best:
                v, best = low.bit_length() - 1, d
            m ^= low
        rest = cmask ^ 1 << v
        # v stays unmatched, or is matched to one neighbour of each group
        # of closed twins, weighted by the group's size
        total = self._poly(rest)
        groups: dict[int, list[int]] = {}
        nbrs = adj[v] & cmask
        while nbrs:
            low = nbrs & -nbrs
            group = groups.setdefault((adj[low.bit_length() - 1] | low) & cmask, [low, 0])
            group[1] += 1
            nbrs ^= low
        for low, weight in groups.values():
            _add_into(total, self._poly(rest ^ low), weight, 1)
        return total


def matching_polynomial(graph: Graph) -> MatchingPolynomial:
    """Exact matching polynomial of the graph, by the decomposition engine."""
    return MatchingEngine(graph).run()


def hosoya_index(graph: Graph) -> int:
    """Total number of matchings, the empty matching included."""
    return matching_polynomial(graph).hosoya_index


def brute_force_matchings(graph: Graph) -> MatchingPolynomial:
    """Independent oracle: exhaustive include/exclude over the edge list.

    No memoization, no factorization; limited to 16 vertices.
    """
    if graph.n > BRUTE_FORCE_MAX_VERTICES:
        raise ValueError(
            f"brute force is limited to {BRUTE_FORCE_MAX_VERTICES} vertices, "
            f"got {graph.n}"
        )
    masks = [(1 << u) | (1 << v) for u, v in graph.edges()]
    m = len(masks)
    counts = [0] * (graph.n // 2 + 1)
    counts[0] = 1

    def rec(start: int, used: int, size: int) -> None:
        nxt = size + 1
        for t in range(start, m):
            em = masks[t]
            if not em & used:
                counts[nxt] += 1
                rec(t + 1, used | em, nxt)

    rec(0, 0, 0)
    while len(counts) > 1 and counts[-1] == 0:
        counts.pop()
    return MatchingPolynomial(tuple(counts))


@functools.lru_cache(maxsize=128)
def _k_n_row(n: int, mode: str) -> tuple[int, ...]:
    """Tabled K_n matching counts for every order 0..n//2, by the ratio
    recurrence prod_j = prod_{j-1} * C(n-2j+2, 2).

    The product is divided by j (printed) or j! (corrected); every entry is
    asserted to divide exactly.  Callers validate mode first.
    """
    row = [1]
    prod = fact = 1
    for j in range(1, n // 2 + 1):
        prod *= math.comb(n - 2 * j + 2, 2)
        fact *= j
        div = j if mode == "printed" else fact
        count, rem = divmod(prod, div)
        if rem:
            raise ValueError(
                f"non-integral division in {mode} mode: {prod} / {div} for (n={n}, i={j})"
            )
        row.append(count)
    return tuple(row)


def complete_graph_matchings(n: int, i: int, mode: str = "corrected") -> int:
    """Closed-form count of i-edge matchings in the complete graph K_n.

    printed mode evaluates (1/i) * prod_{s<i} C(n-2s, 2) exactly as tabled;
    corrected mode uses the 1/i! factor, n! / (i! 2^i (n-2i)!).  Division is
    asserted exact; i = 0 returns 1 in either mode (empty matching).
    """
    if mode not in ("printed", "corrected"):
        raise ValueError(f"unknown mode {mode!r}")
    if i < 0 or 2 * i > n:
        raise ValueError(f"order {i} out of range for K_{n}")
    return _k_n_row(n, mode)[i]


def telephone_number(n: int) -> int:
    """Number of matchings of K_n (involutions of an n-set)."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return sum(_k_n_row(n, "corrected"))
