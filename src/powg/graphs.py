"""Undirected simple graphs on bit-vector adjacency rows, and power graphs.

The power graph of a finite group joins distinct x, y whenever one lies in
the cyclic subgroup generated by the other; the identity is therefore
adjacent to every other vertex.
"""

from __future__ import annotations

from dataclasses import dataclass

from .groups import FiniteGroup, GroupPartition, cyclic_subgroup

# Tags of the edge-pattern table, after the E2 -> E10 and E3 -> E6 merges.
EDGE_PATTERN_TAGS = ("E1", "E4", "E5", "E6", "E7", "E8", "E9", "E10", "E11", "E12", "E13")
# Disjoint edge kinds used by the closed-form comparison (plus a catch-all).
EDGE_KINDS = ("eu", "eh1", "eh2", "eh3", "uh3", "vw", "yz")


@dataclass(frozen=True)
class Graph:
    """Immutable simple graph; adj[v] is a bitmask of the neighbours of v."""

    n: int
    adj: tuple[int, ...]
    labels: tuple[str, ...]

    def __post_init__(self) -> None:
        for v in range(self.n):
            if self.adj[v] >> v & 1:
                raise ValueError(f"self-loop at vertex {v}")

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
    """Power graph of g: x ~ y (x != y) iff x in <y> or y in <x>."""
    adj = [0] * g.order
    for x in range(g.order):
        for t in cyclic_subgroup(g, x):
            if t != x:
                adj[x] |= 1 << t
                adj[t] |= 1 << x
    return Graph(g.order, tuple(adj), g.labels)


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


def connected_components(graph: Graph) -> list[frozenset[int]]:
    """Vertex sets of the connected components, ordered by least vertex."""
    seen = 0
    out = []
    for v in range(graph.n):
        if seen >> v & 1:
            continue
        comp = 1 << v
        frontier = 1 << v
        while frontier:
            nxt = 0
            m = frontier
            while m:
                low = m & -m
                nxt |= graph.adj[low.bit_length() - 1]
                m ^= low
            frontier = nxt & ~comp
            comp |= frontier
        seen |= comp
        out.append(frozenset(i for i in range(graph.n) if comp >> i & 1))
    return out


def degree_histogram(graph: Graph) -> dict[int, int]:
    """Multiset of vertex degrees as a degree -> multiplicity map."""
    hist: dict[int, int] = {}
    for v in range(graph.n):
        d = graph.degree(v)
        hist[d] = hist.get(d, 0) + 1
    return dict(sorted(hist.items()))


@dataclass(frozen=True)
class EdgeClassification:
    """Edge classification of a family power graph.

    pattern_edges maps each pattern tag (E1, E4..E13; E2 and E3 folded into
    E10 and E6) to every edge matching that membership pattern; patterns
    overlap by design (E4, E5, E7, E8, E9, E12, E13 are sub-patterns of E1).

    kind_edges is the disjoint partition into the seven named kinds
    (eu, eh1, eh2, eh3, uh3, vw, yz) plus "unclassified" for edges, such as
    u-h1, that none of the seven kinds covers.
    """

    pattern_edges: dict[str, tuple[tuple[int, int], ...]]
    kind_edges: dict[str, tuple[tuple[int, int], ...]]

    def pattern_counts(self) -> dict[str, int]:
        return {tag: len(v) for tag, v in self.pattern_edges.items()}

    def kind_counts(self) -> dict[str, int]:
        return {kind: len(v) for kind, v in self.kind_edges.items()}


def classify_edges(graph: Graph, part: GroupPartition) -> EdgeClassification:
    """Classify every edge of a family power graph.

    Raises ValueError when the partition does not match the graph.
    """
    order = 2 * part.n_r
    if graph.n != order:
        raise ValueError(f"partition is for order {order}, graph has {graph.n} vertices")

    u = part.u
    pair_of: dict[int, int] = {}
    for y, z in part.partner_pairs:
        pair_of[y] = z
        pair_of[z] = y

    a1, a2, a3 = part.a1, part.a2, part.a3
    a4, a5, a6 = part.a4, part.a5, part.a6
    omega = part.omega

    patterns: dict[str, list] = {tag: [] for tag in EDGE_PATTERN_TAGS}
    kinds: dict[str, list] = {kind: [] for kind in EDGE_KINDS}
    kinds["unclassified"] = []

    for x, y in graph.edges():
        if x in a1 and y in a1:
            patterns["E1"].append((x, y))
        if x in a3 and y in a3:
            patterns["E4"].append((x, y))
        if (x == 0 and y in a3) or (y == 0 and x in a3):
            patterns["E5"].append((x, y))
        if (x == 0 and y in a2) or (y == 0 and x in a2):
            patterns["E6"].append((x, y))
        if x in a5 and y in a5:
            patterns["E7"].append((x, y))
        if x in omega and y in omega:
            patterns["E8"].append((x, y))
        if (x in a5 and y in omega) or (y in a5 and x in omega):
            patterns["E9"].append((x, y))
        if (x in a6 and y in omega) or (y in a6 and x in omega):
            patterns["E10"].append((x, y))
        if pair_of.get(x) == y:
            patterns["E11"].append((x, y))
        if x in a4 and y in a4:
            patterns["E12"].append((x, y))
        # E13 as printed requires both endpoints in A4 and one equal to u,
        # but u is excluded from A4: the pattern is unsatisfiable.
        if x in a4 and y in a4 and u in (x, y):
            patterns["E13"].append((x, y))

        # disjoint kind assignment
        sx, sy = sorted((x, y))
        if (sx, sy) == (0, u):
            kinds["eu"].append((x, y))
        elif sx == 0 and sy in part.h1:
            kinds["eh1"].append((x, y))
        elif sx == 0 and sy in part.h2:
            kinds["eh2"].append((x, y))
        elif sx == 0 and sy in part.h3:
            kinds["eh3"].append((x, y))
        elif sx == u and sy in part.h3:
            kinds["uh3"].append((x, y))
        elif sx in part.h1 and sy in part.h1:
            kinds["vw"].append((x, y))
        elif pair_of.get(sx) == sy:
            kinds["yz"].append((x, y))
        else:
            kinds["unclassified"].append((x, y))

    return EdgeClassification(
        pattern_edges={tag: tuple(v) for tag, v in patterns.items()},
        kind_edges={kind: tuple(v) for kind, v in kinds.items()},
    )


@dataclass(frozen=True)
class StructureReport:
    """Edge-decomposition check of the family power graph.

    The decomposition (shared vertices e and u allowed) is: edges inside
    <r>, one pendant edge per even-exponent reflection, and five edges per
    partner pair {y, z}: e-y, e-z, u-y, u-z, y-z.
    """

    edges_total: int
    edges_in_r: int
    pendant_count: int
    pair_edge_count: int
    cyclic_edge_count: int
    prefix_matches_cyclic: bool
    cover_ok: bool
    disjoint_ok: bool
    count_identity_ok: bool

    @property
    def ok(self) -> bool:
        return (self.cover_ok and self.disjoint_ok and self.count_identity_ok
                and self.prefix_matches_cyclic)


def verify_structure_theorem(graph: Graph, part: GroupPartition) -> StructureReport:
    """Verify the edge-level structure decomposition; failures are report
    content, never exceptions."""
    from .groups import build_cyclic  # local import avoids cycle at module load

    n_r = part.n_r
    u = part.u
    all_edges = set(graph.edges())

    in_r = {e for e in all_edges if e[0] < n_r and e[1] < n_r}
    pendants = set()
    for h2 in sorted(part.h2):
        e = (0, h2)
        if e in all_edges:
            pendants.add(e)
    pair_edges = set()
    for y, z in part.partner_pairs:
        lo, hi = min(y, z), max(y, z)
        for e in ((0, y), (0, z), (u, y), (u, z), (lo, hi)):
            if e in all_edges:
                pair_edges.add(e)

    pieces = [in_r, pendants, pair_edges]
    union = set().union(*pieces)
    cover_ok = union == all_edges
    disjoint_ok = sum(len(s) for s in pieces) == len(union)

    cyclic_graph = build_power_graph(build_cyclic(n_r))
    cyclic_edges = cyclic_graph.edge_count
    prefix = induced_subgraph(graph, range(n_r))
    prefix_matches = prefix.adj == cyclic_graph.adj

    expected = cyclic_edges + n_r // 2 + 5 * (n_r // 4)
    count_ok = (
        graph.edge_count == expected
        and len(pendants) == n_r // 2
        and len(pair_edges) == 5 * (n_r // 4)
    )

    return StructureReport(
        edges_total=graph.edge_count,
        edges_in_r=len(in_r),
        pendant_count=len(pendants),
        pair_edge_count=len(pair_edges),
        cyclic_edge_count=cyclic_edges,
        prefix_matches_cyclic=prefix_matches,
        cover_ok=cover_ok,
        disjoint_ok=disjoint_ok,
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
    if fmt in ("edges", "edge-list"):
        lines = [str(v) for v in range(graph.n) if graph.degree(v) == 0]
        lines += [f"{u} {v}" for u, v in graph.edges()]
        return "\n".join(lines) + ("\n" if lines else "")
    raise ValueError(f"unknown export format {fmt!r} (expected 'dot' or 'edges')")
