"""Exact matching enumeration.

matching_polynomial counts i-edge matchings for every i with a vertex-pivot
deletion recursion, connected-component factorization, and memoization keyed
by the vertex-subset bitmask.  brute_force_matchings is the structurally
independent oracle: plain include/exclude recursion over the edge list with
a vertex-use mask and no memoization.  All counts are exact Python integers.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from .graphs import Graph

DEFAULT_MEMO_LIMIT = 1 << 26
BRUTE_FORCE_MAX_VERTICES = 16
PIVOT_STRATEGIES = ("max-degree", "min-degree", "first")


class MatchingLimitError(RuntimeError):
    """The memo entry cap was exceeded; raised instead of exhausting memory."""


@dataclass(frozen=True)
class MatchingPolynomial:
    """Exact counts m_i of i-edge matchings; coeffs[0] = 1 (empty matching)."""

    coeffs: tuple[int, ...]

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


class MatchingEngine:
    """One matching-polynomial computation; the memo lives for a single run."""

    def __init__(self, graph: Graph, pivot: str = "max-degree",
                 memo_limit: int = DEFAULT_MEMO_LIMIT):
        if pivot not in PIVOT_STRATEGIES:
            raise ValueError(f"unknown pivot strategy {pivot!r}")
        self.graph = graph
        self.pivot = pivot
        self.memo_limit = memo_limit
        self.memo: dict[int, list[int]] = {}
        self.calls = 0

    def run(self) -> MatchingPolynomial:
        import sys

        old = sys.getrecursionlimit()
        sys.setrecursionlimit(max(old, 6 * self.graph.n + 200))
        try:
            full = (1 << self.graph.n) - 1
            coeffs = self._poly(full)
        finally:
            sys.setrecursionlimit(old)
        return MatchingPolynomial(tuple(coeffs))

    @property
    def stats(self) -> dict[str, int | str]:
        return {"memo_entries": len(self.memo), "subproblems": self.calls,
                "pivot": self.pivot}

    def _components(self, mask: int) -> list[int]:
        adj = self.graph.adj
        comps = []
        rest = mask
        while rest:
            seed = rest & -rest
            comp = seed
            frontier = seed
            while frontier:
                nxt = 0
                m = frontier
                while m:
                    low = m & -m
                    nxt |= adj[low.bit_length() - 1]
                    m ^= low
                frontier = nxt & mask & ~comp
                comp |= frontier
            comps.append(comp)
            rest &= ~comp
        return comps

    def _pick_pivot(self, cmask: int) -> int:
        adj = self.graph.adj
        best_v = -1
        best_d = -1 if self.pivot == "max-degree" else 1 << 62
        m = cmask
        while m:
            low = m & -m
            v = low.bit_length() - 1
            if self.pivot == "first":
                return v
            d = (adj[v] & cmask).bit_count()
            if self.pivot == "max-degree":
                if d > best_d:
                    best_v, best_d = v, d
            else:
                if d < best_d:
                    best_v, best_d = v, d
            m ^= low
        return best_v

    def _poly(self, mask: int) -> list[int]:
        if mask == 0:
            return [1]
        result = [1]
        for comp in self._components(mask):
            result = _convolve(result, self._component_poly(comp))
        return result

    def _component_poly(self, cmask: int) -> list[int]:
        if cmask & (cmask - 1) == 0:
            return [1]
        cached = self.memo.get(cmask)
        if cached is not None:
            return cached
        self.calls += 1

        v = self._pick_pivot(cmask)
        vbit = 1 << v
        # matchings avoiding v, then matchings using an edge v-u
        total = self._poly(cmask ^ vbit)
        nbrs = self.graph.adj[v] & cmask
        while nbrs:
            low = nbrs & -nbrs
            sub = self._poly(cmask ^ vbit ^ low)
            if len(total) < len(sub) + 1:
                total = total + [0] * (len(sub) + 1 - len(total))
            for i, c in enumerate(sub):
                total[i + 1] += c
            nbrs ^= low

        if len(self.memo) >= self.memo_limit:
            raise MatchingLimitError(
                f"memo entry cap {self.memo_limit} exceeded at {self.graph.n} vertices"
            )
        self.memo[cmask] = total
        return total


def matching_polynomial(graph: Graph, pivot: str = "max-degree",
                        memo_limit: int = DEFAULT_MEMO_LIMIT) -> MatchingPolynomial:
    """Exact matching polynomial of the graph."""
    return MatchingEngine(graph, pivot=pivot, memo_limit=memo_limit).run()


def hosoya_index(graph: Graph, pivot: str = "max-degree",
                 memo_limit: int = DEFAULT_MEMO_LIMIT) -> int:
    """Total number of matchings, the empty matching included."""
    return matching_polynomial(graph, pivot=pivot, memo_limit=memo_limit).hosoya_index


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
