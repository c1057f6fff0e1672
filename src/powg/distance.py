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
from collections import Counter, namedtuple
from fractions import Fraction
from itertools import zip_longest

from .graphs import Graph, _mask, _ordered


class DistanceDistribution(namedtuple("DistanceDistribution", "counts unreachable_pairs")):
    """Counts of vertex pairs per distance; counts[0] is the vertex count."""

    __slots__ = ()

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


class DistanceProfile(namedtuple("DistanceProfile", "graph layers")):
    """Layer sizes of every vertex: layers[v][d] vertices lie at distance d from v."""

    __slots__ = ()

    def distribution(self) -> DistanceDistribution:
        """Distance counts (unordered pairs for d >= 1) and unreachable pairs."""
        n = self.graph.n
        pairs = [sum(col) for col in zip_longest(*self.layers, fillvalue=0)]
        return DistanceDistribution((n, *(c // 2 for c in pairs[1:])), (n * n - sum(pairs)) // 2)

    def rs_polynomial(self) -> RationalExponentPolynomial:
        """Sum of x^(rs(v) + rs(w)) over all edges vw; graph must be connected.
        Summed on the integer scale lcm(1..diam): one Fraction per exponent.
        The vertices are grouped by status, computed once per layer tuple
        (distinct tuples can share one).  Each unordered pair of groups is
        one popcount pass over the rows of the smaller ANDed with the other's
        mask; it sees a cross edge once and an inner edge from both ends, so
        the cross counts are doubled and every count halved."""
        n, adj = self.graph.n, self.graph.adj
        by_layers: dict[tuple[int, ...], list[int]] = {}
        for v, sizes in enumerate(self.layers):
            by_layers.setdefault(sizes, []).append(v)
        if any(sum(sizes) != n for sizes in by_layers):
            raise ValueError("graph is disconnected: reciprocal status is undefined")
        scale = math.lcm(*range(1, max(map(len, by_layers), default=1)))
        by_status: dict[int, list[int]] = {}  # scaled status -> the vertices that have it
        for sizes, vertices in by_layers.items():
            value = sum(c * (scale // d) for d, c in enumerate(sizes) if d)
            by_status.setdefault(value, []).extend(vertices)
        classes = [(value, vertices, _mask(vertices)) for value, vertices in by_status.items()]
        terms: Counter = Counter()
        for i, (a, a_vertices, a_mask) in enumerate(classes):
            terms[2 * a] += _ordered(adj, a_vertices, a_mask)
            for b, b_vertices, b_mask in classes[i + 1:]:
                rows, mask = ((b_vertices, a_mask) if len(b_vertices) < len(a_vertices)
                              else (a_vertices, b_mask))
                terms[a + b] += 2 * _ordered(adj, rows, mask)
        return RationalExponentPolynomial(  # descending already: copied as it is
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
    coefficients, used for the reciprocal-status edge polynomial.  Fraction
    exponents in descending order with int coefficients, as rs_polynomial
    gives them, are copied; other terms are coerced and sorted."""

    def __init__(self, terms: dict[Fraction, int]):
        for e, c in terms.items():
            if c <= 0:
                raise ValueError(f"coefficient {c} at exponent {e} is not positive")
        exps = list(terms)
        if (set(map(type, exps)) == {Fraction} and set(map(type, terms.values())) == {int}
                and all(map(Fraction.__gt__, exps, exps[1:]))):
            self.terms = dict(terms)
        else:
            self.terms = dict(sorted(((Fraction(e), int(c)) for e, c in terms.items()),
                                     reverse=True))

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
