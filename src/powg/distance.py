"""Exact distance-based invariants: distance distribution, reciprocal status
and their generating polynomials, all derived from one DistanceProfile of
per-vertex layer sizes.  When vertex 0 is universal, as the identity of a
power graph is, the diameter is at most 2 and the layers follow from the
degrees; otherwise each vertex gets one bitmask BFS.  The tests check the
layers against full distance tables built by queue BFS, an independent
oracle kept in tests/oracles.py.

Convention: the distance-0 count equals the number of vertices (self pairs
are counted), so the coefficient total is n + C(n, 2) for a connected graph.
Pairs at infinite distance are kept out of the polynomial and reported
separately so the total is always conserved.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import zip_longest

from .graphs import Graph


@dataclass(frozen=True)
class DistanceDistribution:
    """Counts of vertex pairs per distance; counts[0] is the vertex count."""

    counts: tuple[int, ...]
    unreachable_pairs: int

    @property
    def n(self) -> int:
        return self.counts[0]

    @property
    def diameter(self) -> int:
        return len(self.counts) - 1

    @property
    def wiener(self) -> int:
        return sum(i * c for i, c in enumerate(self.counts))

    def polynomial_string(self) -> str:
        parts = [str(c) if i == 0 else f"{c}x" if i == 1 else f"{c}x^{i}"
                 for i, c in enumerate(self.counts) if c]
        return " + ".join(parts) if parts else "0"


def _layer_sizes(graph: Graph, src: int) -> tuple[int, ...]:
    """Sizes of the BFS layers around src; entry d counts vertices at distance d."""
    adj, full = graph.adj, (1 << graph.n) - 1
    seen = frontier = 1 << src
    sizes = []
    while frontier:
        sizes.append(frontier.bit_count())
        if seen == full:  # every vertex reached: skip the last, empty expansion
            break
        nxt, m = 0, frontier
        while m:
            low = m & -m
            nxt |= adj[low.bit_length() - 1]
            m ^= low
        frontier = nxt & ~seen
        seen |= frontier
    return tuple(sizes)


@dataclass(frozen=True)
class DistanceProfile:
    """Layer sizes of every vertex: layers[v][d] vertices lie at distance d from v."""

    graph: Graph
    layers: tuple[tuple[int, ...], ...]

    def distribution(self) -> DistanceDistribution:
        """Distance counts (unordered pairs for d >= 1) and unreachable pairs."""
        n = self.graph.n
        pairs = [sum(col) for col in zip_longest(*self.layers, fillvalue=0)]
        return DistanceDistribution((n, *(c // 2 for c in pairs[1:])), (n * n - sum(pairs)) // 2)

    def rs_polynomial(self) -> RationalExponentPolynomial:
        """Sum of x^(rs(v) + rs(w)) over all edges vw; graph must be connected.
        Summed on the integer scale lcm(1..diam): one Fraction per exponent.
        The vertices fall into classes of equal status; the edges between two
        classes are counted by ANDing one class's mask into the adjacency
        rows of the other, one C-level pass per class pair."""
        if any(sum(sizes) != self.graph.n for sizes in self.layers):
            raise ValueError("graph is disconnected: reciprocal status is undefined")
        scale = math.lcm(*range(1, max(map(len, self.layers), default=1)))
        rs = [sum(c * (scale // d) for d, c in enumerate(sizes) if d) for sizes in self.layers]
        masks: dict[int, int] = {}  # rs value -> mask of the vertices that have it
        rows: dict[int, list[int]] = {}  # rs value -> adjacency rows of those vertices
        for v, (value, row) in enumerate(zip(rs, self.graph.adj)):
            masks[value] = masks.get(value, 0) | 1 << v
            rows.setdefault(value, []).append(row)
        terms: Counter = Counter()  # every edge is seen from both ends
        for value, class_rows in rows.items():
            for other, mask in masks.items():
                terms[value + other] += sum(map(int.bit_count, map(mask.__and__, class_rows)))
        return RationalExponentPolynomial(  # descending already, so the sort is one pass
            {Fraction(e, scale): c // 2 for e, c in sorted(terms.items(), reverse=True) if c})


def distance_profile(graph: Graph) -> DistanceProfile:
    """Layer sizes of every vertex.  When vertex 0 is universal, as the
    identity of a power graph is, every other vertex lies within distance 2,
    so v has layers (1, deg v, n - 1 - deg v) without trailing zeros.
    Otherwise one layer-size BFS per vertex."""
    n = graph.n
    if n and graph.adj[0] == (1 << n) - 2:
        return DistanceProfile(graph, tuple(
            (1, d, n - 1 - d) if d < n - 1 else (1, d) if d else (1,)
            for d in map(int.bit_count, graph.adj)))
    return DistanceProfile(graph, tuple(_layer_sizes(graph, v) for v in range(n)))


def hosoya_polynomial(graph: Graph) -> DistanceDistribution:
    """Distance distribution of the graph (unordered pairs for distance >= 1)."""
    return distance_profile(graph).distribution()


def reciprocal_status(graph: Graph, v: int) -> Fraction:
    """rs(v) = sum over w != v of 1/d(v, w), as an exact rational."""
    sizes = _layer_sizes(graph, v)
    if sum(sizes) != graph.n:
        raise ValueError(f"graph is disconnected: {v} does not reach every vertex")
    return sum((Fraction(c, d) for d, c in enumerate(sizes) if d), Fraction(0))


class RationalExponentPolynomial:
    """Polynomial with exact rational exponents and positive integer
    coefficients, used for the reciprocal-status edge polynomial."""

    def __init__(self, terms: dict[Fraction, int]):
        for e, c in terms.items():
            if c <= 0:
                raise ValueError(f"coefficient {c} at exponent {e} is not positive")
        self.terms = dict(sorted(((Fraction(e), int(c)) for e, c in terms.items()), reverse=True))

    def coefficient_total(self) -> int:
        return sum(self.terms.values())

    @staticmethod
    def exponent_string(e: Fraction) -> str:
        return str(e.numerator) if e.denominator == 1 else f"{e.numerator}/{e.denominator}"

    def term_strings(self) -> dict[str, int]:
        return {self.exponent_string(e): c for e, c in self.terms.items()}

    def render(self) -> str:
        """Descending exponents, terms as "c·x^e", halves rendered "a/2"."""
        parts = [f"{c}·x^{self.exponent_string(e)}" for e, c in self.terms.items()]
        return " + ".join(parts) if parts else "0"

    def __eq__(self, other) -> bool:
        return isinstance(other, RationalExponentPolynomial) and self.terms == other.terms

    def __repr__(self) -> str:
        return f"RationalExponentPolynomial({self.terms!r})"


def rs_hosoya_polynomial(graph: Graph) -> RationalExponentPolynomial:
    """Sum of x^(rs(v) + rs(w)) over all edges vw; graph must be connected."""
    return distance_profile(graph).rs_polynomial()


def wiener_index(graph: Graph) -> int:
    """Sum of distances over unordered reachable pairs: sum i * dis(i), i >= 1."""
    return hosoya_polynomial(graph).wiener


def diameter(graph: Graph):
    """Largest eccentricity; math.inf when the graph is disconnected."""
    dd = hosoya_polynomial(graph)
    return math.inf if dd.unreachable_pairs else dd.diameter
