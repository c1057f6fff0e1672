"""Undirected simple graphs on bit-vector adjacency rows, and power graphs.

The power graph of a finite group joins distinct x, y whenever one lies in
the cyclic subgroup generated by the other; the identity is therefore
adjacent to every other vertex.

The family's edge classification and structure check count the edges
between two vertex classes of the partition by one popcount pass over the
rows of one class, ANDed with the other class's mask (see _between).
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
        return sum(map(int.bit_count, self.adj)) // 2

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
    """Bitmask of a vertex set; repeats are dropped first."""
    return sum(map((1).__lshift__, set(vertices)))


def _ordered(adj, vertices, mask: int) -> int:
    """Ordered adjacent pairs (x, y) with x in vertices and y in mask: one
    popcount pass over the rows of vertices, each ANDed with mask."""
    return sum(map(int.bit_count, map(mask.__and__, map(adj.__getitem__, vertices))))


def _between(adj, s, t) -> int:
    """Edges with one end in s and the other in t, for vertex classes given
    as (vertices, mask) pairs, overlapping or not: O(s, t) - E(s & t), as
    the ordered count O from the rows of s (the smaller class, ideally)
    sees each edge inside s & t from both ends."""
    (s_vertices, s_mask), (_, t_mask) = s, t
    ordered = _ordered(adj, s_vertices, t_mask)
    both = s_mask & t_mask
    if both == s_mask == t_mask:  # s = t: that pass read the rows of s & t
        inside = ordered
    else:
        inner = s_vertices if both == s_mask else [x for x in s_vertices if both >> x & 1]
        inside = _ordered(adj, inner, both)
    return ordered - inside // 2


def _linked_pairs(adj, pairs) -> set[tuple[int, int]]:
    """The listed pairs {y, z} that are edges, each once, as (min, max)."""
    return {(y, z) if y < z else (z, y) for y, z in pairs if adj[y] >> z & 1}


class EdgeClassification(namedtuple("EdgeClassification", "graph blocks counts")):
    """Edge classification of a family power graph.

    blocks maps each pattern tag (E1, E4..E13; E2 and E3 folded into E10
    and E6) and each of the seven kinds (eu, eh1, eh2, eh3, uh3, vw, yz) to
    the (s, t) vertex-mask pairs whose s-t edges it holds; counts holds the
    edge counts.  Patterns overlap by design (E4, E5, E7, E8, E9, E12, E13
    are sub-patterns of E1).  The kinds are disjoint unless a listed pair
    lies in another kind's block; "unclassified" counts the edges, such as
    u-h1, that none covers.  pattern_edges and kind_edges list them.
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
        """Edges that a block of the named entries selects (keep=False: that
        none selects), in edges() order."""
        blocks = [st for name in names for st in self.blocks[name]]
        return tuple(edge for edge in self.graph.edges() if _in_blocks(blocks, *edge) == keep)


def _in_blocks(blocks, x: int, y: int) -> bool:  # x-y is an s-t edge of one (s, t)
    return any((s >> x & t >> y | t >> x & s >> y) & 1 for s, t in blocks)


def _check_order(graph: Graph, part: GroupPartition) -> None:
    order = 2 * part.n_r
    if graph.n != order:
        raise ValueError(f"partition is for order {order}, graph has {graph.n} vertices")


def classify_edges(graph: Graph, part: GroupPartition) -> EdgeClassification:
    """Classify every edge of a family power graph.

    Each pattern and kind but E11 and yz is the block of edges between two
    vertex classes of the partition: {e}, {u}, H0..H3, the prefix <r> and
    <r> less e or u, counted by _between.  E11 and yz count the listed
    partner pairs that are edges, each pair once.

    Raises ValueError when the partition does not match the graph.
    """
    _check_order(graph, part)
    adj, n_r, u = graph.adj, part.n_r, part.u
    prefix, e, u_bit = (1 << n_r) - 1, 1, 1 << u
    classes = {  # (vertices, mask); A5 = <r> - H0 is H1, omega is H0, A6 is H3
        "e": ((0,), e), "u": ((u,), u_bit),
        "a1": (range(n_r), prefix), "a3": (range(1, n_r), prefix & ~e),
        "a4": ([*range(u), *range(u + 1, n_r)], prefix & ~u_bit),
        # E13 as printed requires both endpoints in A4 and one equal to u,
        # but u is excluded from A4: the pattern is unsatisfiable.
        "a4&u": ((), 0),
        **{name: (vs, _mask(vs)) for name, vs in (
            ("h0", part.h0), ("h1", part.h1), ("h2", part.h2), ("h3", part.h3))},
    }
    spec = {  # name -> (s, t) class names; None: the listed partner pairs
        "E1": ("a1", "a1"), "E4": ("a3", "a3"), "E5": ("e", "a3"), "E6": ("e", "h2"),
        "E7": ("h1", "h1"), "E8": ("h0", "h0"), "E9": ("h0", "h1"), "E10": ("h0", "h3"),
        "E11": None, "E12": ("a4", "a4"), "E13": ("a4&u", "a4"),
        "eu": ("e", "u"), "eh1": ("e", "h1"), "eh2": ("e", "h2"), "eh3": ("e", "h3"),
        "uh3": ("u", "h3"), "vw": ("h1", "h1"), "yz": None,
    }
    pairs = [(1 << y, 1 << z) for y, z in part.partner_pairs]
    linked = _linked_pairs(adj, part.partner_pairs)
    found = {st: _between(adj, classes[st[0]], classes[st[1]])
             for st in dict.fromkeys(spec.values()) if st}
    blocks = {name: [(classes[st[0]][1], classes[st[1]][1])] if st else pairs
              for name, st in spec.items()}
    counts = {name: found[st] if st else len(linked) for name, st in spec.items()}
    # the other kinds join disjoint class pairs, none inside H3: only a
    # linked pair in one of their blocks is in two kinds, and it is one edge
    others, h3 = [blocks[kind][0] for kind in EDGE_KINDS[:-1]], classes["h3"][1]
    twice = sum(_in_blocks(others, y, z) for y, z in linked if not h3 >> y & h3 >> z & 1)
    counts["unclassified"] = graph.edge_count - sum(counts[kind] for kind in EDGE_KINDS) + twice
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
    ValueError.

    The pieces are counted like the edge classes of classify_edges: <r>
    from its rows ANDed with the prefix mask, the pendants as the e-H2
    block, the pair edges as the {e, u}-members block plus the listed pairs
    that touch neither e nor u.  The union is counted apart from them, by
    where an edge lies: inside <r>, leaving it at e or u, or elsewhere,
    which only a listed pair covers.  The masked prefix rows are compared
    once with P(Z_N) as defined on element orders: x ~ y iff o(x) | o(y) or
    o(y) | o(x)."""
    _check_order(graph, part)
    adj, n_r, u = graph.adj, part.n_r, part.u
    prefix, ends = (1 << n_r) - 1, 1 | 1 << u
    members = {v for pair in part.partner_pairs for v in pair}
    h2, pair_mask, outside = _mask(part.h2), _mask(members), ~prefix
    in_prefix = tuple(map(prefix.__and__, adj[:n_r]))
    in_r = sum(map(int.bit_count, in_prefix)) // 2
    pendants = _between(adj, ((0,), 1), (part.h2, h2))  # one pendant at e per even reflection
    linked = _linked_pairs(adj, part.partner_pairs)
    apart = [(y, z) for y, z in linked if not (ends >> y & 1 or ends >> z & 1)]
    pair_edges = _between(adj, ((0, u), ends), (members, pair_mask)) + len(apart)
    union = (in_r + (adj[0] & (h2 | pair_mask) & outside).bit_count()
             + (adj[u] & pair_mask & outside).bit_count()
             + sum(z >= n_r for _, z in apart))  # y < z
    rows = _order_divisibility_rows(n_r)
    cyclic_edges = sum(map(int.bit_count, rows)) // 2
    count_ok = (graph.edge_count == cyclic_edges + n_r // 2 + 5 * (n_r // 4)
                and pendants == n_r // 2 and pair_edges == 5 * (n_r // 4))
    return StructureReport(
        edges_total=graph.edge_count, edges_in_r=in_r, pendant_count=pendants,
        pair_edge_count=pair_edges, cyclic_edge_count=cyclic_edges,
        prefix_matches_cyclic=in_prefix == rows,
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
