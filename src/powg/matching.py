"""Exact matching enumeration.

matching_polynomial counts i-edge matchings for every i with MatchingEngine,
a decomposition recursion memoized on vertex-subset bitmasks: components
are factored, and each product of several factors is memoized too; a
complete subgraph is read from the K_n row, universal vertices are added
one at a time to the count of the rest, two cliques whose non-edges form a
Ferrers board are counted from that board's rook numbers, and any other
subgraph pivots on a vertex of maximum degree, with neighbours of equal
closed neighbourhood taken once.

Two steps here also serve the order-arithmetic count and the paper's family
table in powg.formulas.  _binomial_times multiplies a row by (1 + x)^c, the
factor of c disjoint edges (Farrell, "An introduction to matching
polynomials", 1979), as c whole-row passes of additions; the engine applies
it to all two-vertex components at once, after the larger components are
convolved.  _k_n_row builds the K_n row by one ratio per order: a running
value times C(n-2j+2, 2), divided by j, in both modes.

The oracle brute_force_matchings shares none of that and enumerates
every matching of up to 16 vertices; the tests keep a second engine,
memoized on closed-twin class counts, in tests/oracles.py.  All counts are
exact Python integers.
"""

from __future__ import annotations

import functools
import math
import operator
from collections import namedtuple

from .graphs import Graph, _components

# memo entries one run may store before it stops with MatchingLimitError
MEMO_LIMIT = 1 << 26
BRUTE_FORCE_MAX_VERTICES = 16

# the two evaluation modes of the K_n table: "printed" as tabled, with the
# 1/i factor, and "corrected", with 1/i!
MODES = ("printed", "corrected")


def _check_mode(mode: str) -> None:
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r} (expected {' or '.join(map(repr, MODES))})")


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
        body = ", ".join(f"m_{i}={_digits(c)}" for i, c in enumerate(self.coeffs))
        return f"{body}\nZ={_digits(self.hosoya_index)}"


def _digits(value: int) -> str:
    """str(value), also past Python 3.11's int-to-str digit limit."""
    try:
        return str(value)
    except ValueError:
        from decimal import Decimal  # only a number past the limit loads it

        return str(Decimal(value))


def _convolve(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return out


def _binomial_times(row: list[int], c: int) -> list[int]:
    """row * (1 + x)^c, the factor of c disjoint edges, by c whole-row passes
    of big-int additions, cheaper than the products of a convolution with
    the binomial row.  A new list when c > 0; row itself when c = 0."""
    for _ in range(c):
        row = list(map(operator.add, [0, *row], [*row, 0]))
    return row


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


def _ferrers_rooks(heights) -> list[int]:
    """Rook numbers r_0, r_1, ... of a Ferrers board, given its column
    heights in ascending order: t - 1 rooks in the lower columns leave
    h - t + 1 free rows in a column of height h, so r_t += (h - t + 1) r_(t-1)
    per column (Goldman, Joichi and White, "Rook theory I", 1975)."""
    rooks = [1]
    for h in heights:
        rooks = [r + (h - t + 1) * rooks[t - 1] if t else r
                 for t, r in enumerate(rooks + [0])]
        if rooks[-1] == 0:
            rooks.pop()
    return rooks


def _add_into(total: list[int], row: list[int], weight: int, shift: int = 0) -> None:
    """total += weight * x^shift * row, extending total as needed."""
    total.extend([0] * (len(row) + shift - len(total)))
    for i, c in enumerate(row):
        total[i + shift] += weight * c


class MatchingEngine:
    """One matching-polynomial computation by decomposition on vertex masks.

    A subgraph is split into components.  Its c two-vertex components are
    multiplied in last, by c passes of _binomial_times, and a product of two
    or more factors is memoized on (the masks of its larger components, c):
    removing one vertex of a pair or another leaves the same product.  Every connected
    subgraph of three or more vertices is memoized on its vertex mask and
    solved by the first rule that holds on it:
    - complete: every vertex is universal, so it is K_n, read from the
      closed-form row;
    - universal: r vertices see every other vertex; the rest is solved on
      its own and the r vertices are added one at a time (_add_universal);
    - chain leaf: the complement is connected and bipartite, so its sides X
      and Y are cliques, and the sets X - N(y) are nested, so the non-edges
      form a Ferrers board with rook numbers r_j.  Inclusion-exclusion over
      the non-edges a matching of K_n would use gives
      m_i = sum_j (-1)^j r_j m_(i-j)(K_(n-2j));
    - pivot: a vertex v of maximum degree is unmatched, or matched to a
      neighbour u.  Neighbours with equal closed neighbourhoods are twins, so
      removing v and either one leaves isomorphic graphs: each such group is
      one subproblem weighted by its size.
    Every rule is checked on the live subgraph, so the engine is exact on
    any graph.  The two memos live for a single run and hold at most
    MEMO_LIMIT entries together; a run that exhausts memory drops both and
    raises MatchingLimitError.
    """

    def __init__(self, graph: Graph):
        self.graph = graph
        self.memo: dict[int, list[int]] = {}
        self.products: dict[tuple[tuple[int, ...], int], list[int]] = {}
        self.leaf_hits = 0

    def run(self) -> MatchingPolynomial:
        try:
            coeffs = self._poly((1 << self.graph.n) - 1)
        except RecursionError:  # a few frames per pivot level
            raise MatchingLimitError(
                f"recursion depth exceeded at {self.graph.n} vertices") from None
        except (MemoryError, SystemError):
            # CPython 3.11 raises SystemError when it cannot allocate a
            # frame; dropping the memos frees the room to raise and report
            self.memo.clear()
            self.products.clear()
            raise MatchingLimitError(
                f"memory exhausted at {self.graph.n} vertices") from None
        return MatchingPolynomial(tuple(coeffs))

    @property
    def stats(self) -> dict[str, int]:
        # every memo miss stores one entry or raises, so the first two are equal
        return {"memo_entries": len(self.memo), "subproblems": len(self.memo),
                "product_entries": len(self.products), "leaf_hits": self.leaf_hits}

    def _store(self, table: dict, key, value: list[int]) -> None:
        """table[key] = value, unless the two memos are full."""
        if len(self.memo) + len(self.products) >= MEMO_LIMIT:
            raise MatchingLimitError(
                f"memo entry cap {MEMO_LIMIT} exceeded at {self.graph.n} vertices"
            )
        table[key] = value

    def _poly(self, mask: int) -> list[int]:
        """The matching polynomial of the subgraph on mask; the list may be
        a memo entry, so callers must not change it."""
        big, pairs = [], 0
        for comp in _components(self.graph.adj, mask):
            size = comp.bit_count()
            if size > 2:
                big.append(comp)
            elif size == 2:
                pairs += 1
        if len(big) + (pairs > 0) < 2:  # one factor or none
            return self._connected_poly(big[0]) if big else _binomial_times([1], pairs)
        key = (tuple(big), pairs)  # components come ordered by least vertex
        total = self.products.get(key)
        if total is None:
            total = self._connected_poly(big[0])
            for comp in big[1:]:
                total = _convolve(total, self._connected_poly(comp))
            # a new list, not a memo's own: pairs > 0 here, or _convolve made one
            total = _binomial_times(total, pairs)
            self._store(self.products, key, total)
        return total

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
            total = self._chain_leaf(cmask)
            if total is None:
                total = self._pivot_poly(cmask)
            else:
                self.leaf_hits += 1
        self._store(self.memo, cmask, total)
        return total

    def _chain_leaf(self, cmask: int) -> list[int] | None:
        """The chain-leaf count of a connected subgraph with no universal
        vertex, or None where the rule does not hold."""
        adj = self.graph.adj
        # 2-colour the complement by BFS layers from the least vertex; it is
        # bipartite unless two vertices of one layer are non-adjacent
        sides = [0, 0]
        seen = frontier = cmask & -cmask
        parity = 0
        while frontier:
            sides[parity] |= frontier
            nxt, m = 0, frontier
            while m:
                low = m & -m
                non = cmask & ~adj[low.bit_length() - 1]  # with the vertex itself
                if non & frontier != low:
                    return None
                nxt |= non
                m ^= low
            frontier = nxt & ~seen
            seen |= frontier
            parity ^= 1
        if seen != cmask:  # the complement is disconnected
            return None
        xs, m = sides
        boards = []
        while m:
            low = m & -m
            boards.append(xs & ~adj[low.bit_length() - 1])
            m ^= low
        boards.sort(key=int.bit_count)
        for lower, upper in zip(boards, boards[1:]):
            if lower & ~upper:
                return None
        n = cmask.bit_count()
        # a connected union of two cliques has a perfect or near-perfect
        # matching, so the j = 0 row sets the length and no zero trails
        total: list[int] = []
        for j, r in enumerate(_ferrers_rooks(map(int.bit_count, boards))):
            _add_into(total, _k_n_row(n - 2 * j, "corrected"), -r if j & 1 else r, j)
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
        total = list(self._poly(rest))
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
    """Tabled K_n matching counts for every order 0..n//2, by one ratio
    step per order: a running value is multiplied by C(n-2j+2, 2) and
    divided by j, every division asserted exact.

    In printed mode the value is the product prod_(s<j) C(n-2s, 2) and
    entry j its quotient by j, as tabled; in corrected mode the value is the
    quotient itself, K_j = K_(j-1) C(n-2j+2, 2) / j = n! / (j! 2^j (n-2j)!).
    Callers validate mode first.
    """
    row = [1]
    value = 1
    for j in range(1, n // 2 + 1):
        value *= math.comb(n - 2 * j + 2, 2)
        count, rem = divmod(value, j)
        if rem:
            raise ValueError(
                f"non-integral division in {mode} mode: {value} / {j} for (n={n}, i={j})"
            )
        row.append(count)
        if mode == "corrected":
            value = count
    return tuple(row)


def complete_graph_matchings(n: int, i: int, mode: str = "corrected") -> int:
    """Closed-form count of i-edge matchings in the complete graph K_n.

    printed mode evaluates (1/i) * prod_{s<i} C(n-2s, 2) exactly as tabled;
    corrected mode uses the 1/i! factor, n! / (i! 2^i (n-2i)!).  Division is
    asserted exact; i = 0 returns 1 in either mode (empty matching).
    """
    _check_mode(mode)
    if i < 0 or 2 * i > n:
        raise ValueError(f"order {i} out of range for K_{n}")
    return _k_n_row(n, mode)[i]


def telephone_number(n: int) -> int:
    """Number of matchings of K_n (involutions of an n-set)."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return sum(_k_n_row(n, "corrected"))
