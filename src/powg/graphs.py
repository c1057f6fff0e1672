"""Undirected simple graphs on bit-vector adjacency rows, and power graphs.

The power graph of a finite group joins distinct x, y whenever one lies in
the cyclic subgroup generated by the other; the identity is therefore
adjacent to every other vertex.

The family's edge classification and structure check count edges by vertex
masks, one popcount per vertex, and never walk the edge list.  The prefix
<r> is checked against P(Z_N) as defined on element orders: x ~ y iff
o(x) | o(y) or o(y) | o(x), one row mask per divisor.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .groups import FiniteGroup, GroupPartition, cyclic_subgroups

# Tags of the edge-pattern table, after the E2 -> E10 and E3 -> E6 merges.
EDGE_PATTERN_TAGS = ("E1", "E4", "E5", "E6", "E7", "E8", "E9", "E10", "E11", "E12", "E13")
# Disjoint edge kinds used by the closed-form comparison (plus a catch-all).
EDGE_KINDS = ("eu", "eh1", "eh2", "eh3", "uh3", "vw", "yz")


class Graph(namedtuple("Graph", "n adj labels")):
    """Immutable simple graph; adj[v] is a bitmask of the neighbours of v."""

    __slots__ = ()

    def __new__(cls, n: int, adj: tuple[int, ...], labels: tuple[str, ...]) -> Graph:
        for v in range(n):
            if adj[v] >> v & 1:
                raise ValueError(f"self-loop at vertex {v}")
        return super().__new__(cls, n, adj, labels)

    @classmethod
    def _make(cls, iterable) -> Graph:  # so _replace validates too
        return cls(*iterable)

    @staticmethod
    def from_edges(n: int, edges, labels=None) -> "Graph":
        adj = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        if labels is None:
            labels = tuple(str(i) for i in range(n))
        return Graph(n, tuple(adj), tuple(labels))

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def neighbors(self, v: int):
        mask = self.adj[v]
        while mask:
            low = mask & -mask
            yield low.bit_length() - 1
            mask ^= low

    def edges(self):
        """Yield (u, v) with u < v in ascending lexicographic order."""
        for u in range(self.n):
            mask = self.adj[u] >> (u + 1) << (u + 1)
            while mask:
                low = mask & -mask
                yield (u, low.bit_length() - 1)
                mask ^= low

    @property
    def edge_count(self) -> int:
        return sum(self.adj[v].bit_count() for v in range(self.n)) // 2

    def validate_symmetric(self) -> None:
        for u in range(self.n):
            for v in range(u + 1, self.n):
                if (self.adj[u] >> v & 1) != (self.adj[v] >> u & 1):
                    raise ValueError(f"asymmetric adjacency at ({u}, {v})")


def build_power_graph(g: FiniteGroup) -> Graph:
    """Power graph of g: x ~ y (x != y) iff x in <y> or y in <x>.

    All generators of a cyclic subgroup C have the same closed neighbourhood,
    so one power walk per C suffices: every generator is joined to every
    member of C and every member to every generator, then the self bits are
    cleared.  That is |C| + phi(|C|) mask ORs per C.
    """
    n = g.order
    bit = [1 << v for v in range(n)]
    adj = [0] * n
    for powers, generators in cyclic_subgroups(g):
        members = sum(bit[v] for v in powers)
        gens = sum(bit[v] for v in generators)
        for v in powers:
            adj[v] |= gens
        for v in generators:
            adj[v] |= members
    return Graph(n, tuple(a & ~b for a, b in zip(adj, bit)), g.labels)


def induced_subgraph(graph: Graph, vertices) -> Graph:
    """Subgraph induced on the given vertices, reindexed in ascending order."""
    verts = sorted(set(vertices))
    for v in verts:
        if not 0 <= v < graph.n:
            raise ValueError(f"vertex {v} out of range")
    pos = {v: i for i, v in enumerate(verts)}
    adj = [0] * len(verts)
    for v in verts:
        for u in graph.neighbors(v):
            if u in pos:
                adj[pos[v]] |= 1 << pos[u]
    labels = tuple(graph.labels[v] for v in verts)
    return Graph(len(verts), tuple(adj), labels)


def _components(adj, mask: int) -> list[int]:
    """Connected components, as bitmasks, of the subgraph that the
    adjacency rows adj (one neighbour bitmask per vertex) induce on the
    vertices in mask, ordered by least vertex."""
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


def connected_components(graph: Graph) -> list[frozenset[int]]:
    """Vertex sets of the connected components, ordered by least vertex."""
    return [frozenset(v for v in range(graph.n) if comp >> v & 1)
            for comp in _components(graph.adj, (1 << graph.n) - 1)]


def degree_histogram(graph: Graph) -> dict[int, int]:
    """Multiset of vertex degrees as a degree -> multiplicity map."""
    hist: dict[int, int] = {}
    for v in range(graph.n):
        d = graph.degree(v)
        hist[d] = hist.get(d, 0) + 1
    return dict(sorted(hist.items()))


def _mask(vertices) -> int:
    return sum(1 << v for v in set(vertices))


def _rule(n: int, blocks) -> list[int]:
    """Edge rule: rule[x] masks the vertices that x may be joined to, so the
    rule selects the edges between s and t for each (s, t) in blocks."""
    rule = [0] * n
    for s, t in blocks:
        for a, b in ((s, t), (t, s)):
            while a:
                low = a & -a
                rule[low.bit_length() - 1] |= b
                a ^= low
    return rule


def _count(graph: Graph, rule: list[int]) -> int:
    """Edges that rule selects: one popcount per vertex, at the lower end."""
    return sum(((a & r) >> x >> 1).bit_count()
               for x, (a, r) in enumerate(zip(graph.adj, rule)) if r)


class EdgeClassification(namedtuple("EdgeClassification", "graph blocks counts")):
    """Edge classification of a family power graph.

    blocks maps each pattern tag (E1, E4..E13; E2 and E3 folded into E10
    and E6) and each of the seven kinds (eu, eh1, eh2, eh3, uh3, vw, yz) to
    the (s, t) vertex-mask pairs of its rule; counts holds the edge counts.
    Patterns overlap by design (E4, E5, E7, E8, E9, E12, E13 are
    sub-patterns of E1).  The kinds are disjoint, and "unclassified" counts
    the edges, such as u-h1, that none of them covers.  pattern_edges and
    kind_edges list the edges on demand.
    """

    __slots__ = ()

    def pattern_counts(self) -> dict[str, int]:
        return {tag: self.counts[tag] for tag in EDGE_PATTERN_TAGS}

    def kind_counts(self) -> dict[str, int]:
        return {kind: self.counts[kind] for kind in (*EDGE_KINDS, "unclassified")}

    @property
    def pattern_edges(self) -> dict[str, tuple[tuple[int, int], ...]]:
        return {tag: self._listed([tag]) for tag in EDGE_PATTERN_TAGS}

    @property
    def kind_edges(self) -> dict[str, tuple[tuple[int, int], ...]]:
        edges = {kind: self._listed([kind]) for kind in EDGE_KINDS}
        edges["unclassified"] = self._listed(EDGE_KINDS, keep=False)
        return edges

    def _listed(self, names, keep: bool = True) -> tuple[tuple[int, int], ...]:
        """Edges that the named rules select (keep=False: that none selects),
        in edges() order."""
        rule = _rule(self.graph.n, [st for name in names for st in self.blocks[name]])
        return tuple((x, y) for x, y in self.graph.edges() if bool(rule[x] >> y & 1) == keep)


def _check_order(graph: Graph, part: GroupPartition) -> None:
    order = 2 * part.n_r
    if graph.n != order:
        raise ValueError(f"partition is for order {order}, graph has {graph.n} vertices")


def classify_edges(graph: Graph, part: GroupPartition) -> EdgeClassification:
    """Classify every edge of a family power graph.

    Raises ValueError when the partition does not match the graph.
    """
    _check_order(graph, part)
    e, u = 1, 1 << part.u
    a1, a2, a3, a4, a5, a6, omega, h1, h2, h3 = (_mask(getattr(part, name)) for name in (
        "a1", "a2", "a3", "a4", "a5", "a6", "omega", "h1", "h2", "h3"))
    pairs = [(1 << y, 1 << z) for y, z in part.partner_pairs]
    blocks = {
        "E1": [(a1, a1)], "E4": [(a3, a3)], "E5": [(e, a3)], "E6": [(e, a2)],
        "E7": [(a5, a5)], "E8": [(omega, omega)], "E9": [(a5, omega)],
        "E10": [(a6, omega)], "E11": pairs, "E12": [(a4, a4)],
        # E13 as printed requires both endpoints in A4 and one equal to u,
        # but u is excluded from A4: the pattern is unsatisfiable.
        "E13": [(a4 & u, a4)],
        "eu": [(e, u)], "eh1": [(e, h1)], "eh2": [(e, h2)], "eh3": [(e, h3)],
        "uh3": [(u, h3)], "vw": [(h1, h1)], "yz": pairs,
    }
    counts = {name: _count(graph, _rule(graph.n, b)) for name, b in blocks.items()}
    counts["unclassified"] = graph.edge_count - sum(counts[kind] for kind in EDGE_KINDS)
    return EdgeClassification(graph, blocks, counts)


def _order_divisibility_rows(n: int) -> tuple[int, ...]:
    """Adjacency rows of P(Z_n) from element orders o(i) = n / gcd(i, n);
    no group table is built."""
    order = [n // math.gcd(i, n) for i in range(n)]
    of_order: dict[int, int] = {}
    for i, d in enumerate(order):
        of_order[d] = of_order.get(d, 0) | 1 << i
    row = {d: sum(m for c, m in of_order.items() if d % c == 0 or c % d == 0) for d in of_order}
    return tuple(row[d] & ~(1 << i) for i, d in enumerate(order))


class StructureReport(namedtuple("StructureReport", (
        "edges_total edges_in_r pendant_count pair_edge_count cyclic_edge_count "
        "prefix_matches_cyclic cover_ok disjoint_ok count_identity_ok"))):
    """Edge-decomposition check of the family power graph: five edge counts
    and four bools.

    The decomposition (shared vertices e and u allowed) is: edges inside
    <r>, one pendant edge per even-exponent reflection, and five edges per
    partner pair {y, z}: e-y, e-z, u-y, u-z, y-z.
    """

    __slots__ = ()

    @property
    def ok(self) -> bool:
        return (self.cover_ok and self.disjoint_ok and self.count_identity_ok
                and self.prefix_matches_cyclic)


def verify_structure_theorem(graph: Graph, part: GroupPartition) -> StructureReport:
    """Verify the edge-level structure decomposition.  Failures are report
    content, never exceptions; a partition for another order raises
    ValueError.  The prefix <r> is checked against the definition of P(Z_N)
    on element orders, not against a second group table."""
    _check_order(graph, part)
    n_r = part.n_r
    prefix, ends = (1 << n_r) - 1, 1 | 1 << part.u
    members = _mask(v for pair in part.partner_pairs for v in pair)
    pieces = [
        [(prefix, prefix)],
        [(1, _mask(part.h2))],  # one pendant at e per even reflection
        [(ends, members), *((1 << y, 1 << z) for y, z in part.partner_pairs)],
    ]
    in_r, pendants, pair_edges = (_count(graph, _rule(graph.n, b)) for b in pieces)
    union = _count(graph, _rule(graph.n, [st for b in pieces for st in b]))
    rows = _order_divisibility_rows(n_r)
    cyclic_edges = sum(row.bit_count() for row in rows) // 2
    count_ok = (graph.edge_count == cyclic_edges + n_r // 2 + 5 * (n_r // 4)
                and pendants == n_r // 2 and pair_edges == 5 * (n_r // 4))
    return StructureReport(
        edges_total=graph.edge_count, edges_in_r=in_r, pendant_count=pendants,
        pair_edge_count=pair_edges, cyclic_edge_count=cyclic_edges,
        prefix_matches_cyclic=all(graph.adj[x] & prefix == rows[x] for x in range(n_r)),
        cover_ok=union == graph.edge_count,
        disjoint_ok=in_r + pendants + pair_edges == union,
        count_identity_ok=count_ok,
    )


def export(graph: Graph, fmt: str = "dot") -> str:
    """Render the graph as DOT or as a plain edge list.

    DOT declares vertices first in index order, then one edge per line.
    The edge list holds one "i j" pair per line (i < j, ascending); isolated
    vertices are declared by a bare "i" line so every vertex appears.
    """
    if fmt == "dot":
        def q(label: str) -> str:
            return '"' + label.replace("\\", "\\\\").replace('"', '\\"') + '"'

        lines = ["graph powg {"]
        for v in range(graph.n):
            lines.append(f"  {q(graph.labels[v])};")
        for u, v in graph.edges():
            lines.append(f"  {q(graph.labels[u])} -- {q(graph.labels[v])};")
        lines.append("}")
        return "\n".join(lines) + "\n"
    if fmt == "edges":
        lines = [str(v) for v in range(graph.n) if graph.degree(v) == 0]
        lines += [f"{u} {v}" for u, v in graph.edges()]
        return "\n".join(lines) + ("\n" if lines else "")
    raise ValueError(f"unknown export format {fmt!r} (expected 'dot' or 'edges')")
