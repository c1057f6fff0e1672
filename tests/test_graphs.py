import hashlib
import random

import pytest
from hypothesis import given, settings, strategies as st

from powg import (
    FamilyParams,
    Graph,
    build_cyclic,
    build_family,
    build_power_graph,
    classify_edges,
    connected_components,
    degree_histogram,
    export,
    induced_subgraph,
    partition,
    verify_structure_theorem,
)
from powg.graphs import EDGE_KINDS, EDGE_PATTERN_TAGS, StructureReport, _order_divisibility_rows
from conftest import complete_graph, oracle_groups

# the 15-case ladder, k = 2..6 and p = 3, 5, 7, and its n_r = 2^k p
LADDER = [(k, p) for k in range(2, 7) for p in (3, 5, 7)]
LADDER_N_R = sorted({2 ** k * p for k, p in LADDER})


def is_prime_power(n: int) -> bool:
    if n < 2:
        return False
    for q in range(2, n + 1):
        if q * q > n and q < n:
            continue
        if n % q:
            continue
        m = n
        while m % q == 0:
            m //= q
        return m == 1
    return True


def family_graph(k, p):
    params = FamilyParams(k, p)
    g = build_family(params)
    return build_power_graph(g), partition(g, params)


def test_power_graph_z4_is_k4():
    g = build_power_graph(build_cyclic(4))
    assert g.n == 4 and g.edge_count == 6


def test_power_graph_z6():
    g = build_power_graph(build_cyclic(6))
    assert g.edge_count == 13
    non_edges = [(u, v) for u in range(6) for v in range(u + 1, 6)
                 if not g.has_edge(u, v)]
    assert non_edges == [(2, 3), (3, 4)]


def test_power_graph_family_2_3():
    graph, _ = family_graph(2, 3)
    assert graph.n == 24
    assert graph.edge_count == 77


def _powers(g, x):
    """<x> by repeated multiplication, independent of cyclic_subgroup."""
    out, y = {0}, x
    while y != 0:
        out.add(y)
        y = g.mult(y, x)
    return out


def test_power_graph_matches_definition():
    # relabelled tables change which generator each cyclic subgroup's walk
    # starts from; the products and (Z_2)^k have many subgroups of one order
    for g in oracle_groups():
        graph = build_power_graph(g)
        subs = [_powers(g, x) for x in range(g.order)]
        for x in range(g.order):
            for y in range(g.order):
                adjacent = x != y and (y in subs[x] or x in subs[y])
                assert graph.has_edge(x, y) == adjacent, (g.order, x, y)


def test_power_graph_symmetric_loop_free():
    for g in (build_power_graph(build_cyclic(12)), family_graph(2, 3)[0]):
        g.validate_symmetric()
        for v in range(g.n):
            assert not g.has_edge(v, v)


def test_identity_dominates():
    for graph in (build_power_graph(build_cyclic(10)), family_graph(2, 3)[0]):
        assert graph.degree(0) == graph.n - 1


def test_prime_power_completeness_both_directions():
    for n in range(1, 61):
        g = build_power_graph(build_cyclic(n))
        complete = g.edge_count == n * (n - 1) // 2
        assert complete == (n == 1 or is_prime_power(n)), n


def test_induced_subgraph_trivial_cases():
    g = build_power_graph(build_cyclic(6))
    assert induced_subgraph(g, range(6)).adj == g.adj
    assert induced_subgraph(g, [3]).n == 1
    with pytest.raises(ValueError):
        induced_subgraph(g, [7])


def test_induced_r_prefix_equals_cyclic_power_graph():
    for k, p in [(2, 3), (2, 5), (3, 3)]:
        graph, part = family_graph(k, p)
        prefix = induced_subgraph(graph, range(part.n_r))
        cyc = build_power_graph(build_cyclic(part.n_r))
        assert prefix.adj == cyc.adj
    sub = induced_subgraph(family_graph(2, 3)[0], range(12))
    assert sub.edge_count == 56


def test_connected_components():
    assert connected_components(Graph.from_edges(0, [])) == []
    assert connected_components(complete_graph(4)) == [frozenset({0, 1, 2, 3})]
    two = Graph.from_edges(4, [(0, 1), (2, 3)])
    assert connected_components(two) == [frozenset({0, 1}), frozenset({2, 3})]


def test_degree_histogram():
    assert degree_histogram(complete_graph(5)) == {4: 5}
    graph, part = family_graph(2, 3)
    assert graph.degree(0) == 23
    assert graph.degree(part.u) == 15
    assert all(graph.degree(v) == 1 for v in part.h2)
    assert all(graph.degree(v) == 3 for v in part.h3)
    hist = degree_histogram(graph)
    assert sum(hist.values()) == 24
    assert hist[1] == 6 and hist[3] == 6 and hist[23] == 1


def test_classify_edges_family_2_3():
    graph, part = family_graph(2, 3)
    cls = classify_edges(graph, part)
    pat = cls.pattern_counts()
    assert pat["E6"] == 6
    assert pat["E11"] == 3
    assert pat["E10"] == 12
    assert pat["E13"] == 0  # unsatisfiable as printed
    kinds = cls.kind_counts()
    assert kinds["vw"] == 37
    assert kinds["unclassified"] == 8
    # the unclassified edges are exactly the u-h1 edges
    for x, y in cls.kind_edges["unclassified"]:
        assert part.u in (x, y)
        assert (set((x, y)) - {part.u}).pop() in part.h1


def classify_by_loop(graph, part):
    """The per-edge membership test of every pattern and kind: the oracle for
    the mask counts of classify_edges."""
    u = part.u
    pair_of = {}
    for y, z in part.partner_pairs:
        pair_of[y] = z
        pair_of[z] = y
    a1, a2, a3 = part.a1, part.a2, part.a3
    a4, a5, a6 = part.a4, part.a5, part.a6
    omega = part.omega
    patterns = {tag: [] for tag in EDGE_PATTERN_TAGS}
    kinds = {kind: [] for kind in (*EDGE_KINDS, "unclassified")}
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
        if x in a4 and y in a4 and u in (x, y):
            patterns["E13"].append((x, y))

        if (x, y) == (0, u):
            kinds["eu"].append((x, y))
        elif x == 0 and y in part.h1:
            kinds["eh1"].append((x, y))
        elif x == 0 and y in part.h2:
            kinds["eh2"].append((x, y))
        elif x == 0 and y in part.h3:
            kinds["eh3"].append((x, y))
        elif x == u and y in part.h3:
            kinds["uh3"].append((x, y))
        elif x in part.h1 and y in part.h1:
            kinds["vw"].append((x, y))
        elif pair_of.get(x) == y:
            kinds["yz"].append((x, y))
        else:
            kinds["unclassified"].append((x, y))
    return ({tag: tuple(v) for tag, v in patterns.items()},
            {kind: tuple(v) for kind, v in kinds.items()})


@pytest.mark.parametrize("k,p", [(2, 3), (2, 5), (3, 3), (4, 3), (3, 5)])
def test_classify_counts_match_edge_loop(k, p):
    graph, part = family_graph(k, p)
    cls = classify_edges(graph, part)
    patterns, kinds = classify_by_loop(graph, part)
    assert cls.pattern_counts() == {tag: len(v) for tag, v in patterns.items()}
    assert cls.kind_counts() == {kind: len(v) for kind, v in kinds.items()}
    assert cls.pattern_edges == patterns
    assert cls.kind_edges == kinds


def classification_digest(cases) -> str:
    """sha256 over a "k p" line, one "name count" line per classify_edges
    count and one "field value" line per verify_structure_theorem field,
    for every case."""
    digest = hashlib.sha256()
    for k, p in cases:
        graph, part = family_graph(k, p)
        digest.update(f"{k} {p}\n".encode("utf-8"))
        for name, count in sorted(classify_edges(graph, part).counts.items()):
            digest.update(f"{name} {count}\n".encode("utf-8"))
        rep = verify_structure_theorem(graph, part)
        for field, value in zip(rep._fields, rep):
            digest.update(f"{field} {value}\n".encode("utf-8"))
    return digest.hexdigest()


# recorded from the per-vertex shifted popcounts, before the counts became
# popcount passes over vertex-class rows; CI checks CLASSIFICATION_FULL_SHA256
# over every valid order
CLASSIFICATION_LADDER_SHA256 = "923b806391b1ed8555b9e2c5fcc420365a9d8ec73aab6258c154daaa04c61615"
CLASSIFICATION_FULL_SHA256 = "a3e556a3915527c6d5bac760eaa3dffd5dfea57a79f15c99b8dc903a5a2a9801"


def test_classification_pinned_on_the_ladder():
    assert classification_digest(LADDER) == CLASSIFICATION_LADDER_SHA256


def cyclic_order_arithmetic_mismatches(orders) -> list[int]:
    """The N at which the power graph walked on the rule of Z_N differs from
    the rows that _order_divisibility_rows reads off element orders, walking
    nothing, or whose labels are not 0..N-1 in decimal."""
    bad = []
    for n in orders:
        graph = build_power_graph(build_cyclic(n))
        if graph.adj != _order_divisibility_rows(n) or graph.labels != tuple(map(str, range(n))):
            bad.append(n)
    return bad


def test_order_divisibility_rows_are_cyclic_power_graphs():
    assert cyclic_order_arithmetic_mismatches([*range(1, 65), *LADDER_N_R]) == []


def perturbed(graph, add=(), remove=()):
    edges = (set(graph.edges()) | set(add)) - set(remove)
    return Graph.from_edges(graph.n, sorted(edges), graph.labels)


def test_added_h2_edge_is_a_finding():
    graph, part = family_graph(2, 3)
    a, b = sorted(part.h2)[:2]
    bad = perturbed(graph, add=[(a, b)])
    rep = verify_structure_theorem(bad, part)
    assert not rep.cover_ok and not rep.count_identity_ok
    assert rep.disjoint_ok and rep.prefix_matches_cyclic and not rep.ok
    before = classify_edges(graph, part).kind_counts()["unclassified"]
    assert classify_edges(bad, part).kind_counts()["unclassified"] == before + 1


def test_added_edge_across_two_pairs_is_unclassified():
    graph, part = family_graph(2, 3)
    (y, _), (_, z), *_ = part.partner_pairs
    bad = perturbed(graph, add=[(min(y, z), max(y, z))])
    before, after = (classify_edges(g, part).kind_counts() for g in (graph, bad))
    assert after["yz"] == before["yz"] == 3
    assert after["unclassified"] == before["unclassified"] + 1


def test_removed_prefix_edge_is_a_finding():
    graph, part = family_graph(2, 3)
    bad = perturbed(graph, remove=[(1, 2)])
    rep = verify_structure_theorem(bad, part)
    assert not rep.prefix_matches_cyclic and not rep.ok
    assert rep.edges_in_r == verify_structure_theorem(graph, part).edges_in_r - 1


def test_removed_pair_edge_lowers_the_pair_count():
    graph, part = family_graph(2, 3)
    y = part.partner_pairs[0][0]
    bad = perturbed(graph, remove=[(part.u, y)])
    rep = verify_structure_theorem(bad, part)
    assert rep.pair_edge_count == verify_structure_theorem(graph, part).pair_edge_count - 1
    assert rep.cover_ok and not rep.count_identity_ok


def test_pair_member_in_h2_is_not_disjoint():
    graph, part = family_graph(2, 3)
    (y, _), *rest = part.partner_pairs
    bad_part = part._replace(partner_pairs=((y, min(part.h2)), *rest))
    rep = verify_structure_theorem(graph, bad_part)
    assert not rep.disjoint_ok and not rep.ok


def test_classify_kind_partition_conserves_edges():
    for k, p in [(2, 3), (2, 5)]:
        graph, part = family_graph(k, p)
        cls = classify_edges(graph, part)
        kinds = cls.kind_edges
        assert sum(len(v) for v in kinds.values()) == graph.edge_count
        seen = set()
        for edges in kinds.values():
            for e in edges:
                assert e not in seen
                seen.add(e)
        # every edge appears in at least one pattern class
        pattern_union = set()
        for edges in cls.pattern_edges.values():
            pattern_union.update(edges)
        assert pattern_union == set(graph.edges())


def structure_by_loop(graph, part):
    """The per-edge membership test of every piece of the structure
    decomposition, and P(Z_N) walked on the group's rule: the oracle for
    verify_structure_theorem."""
    n_r, ends = part.n_r, (0, part.u)
    pairs = {frozenset(pair) for pair in part.partner_pairs}
    members = {v for pair in part.partner_pairs for v in pair}
    in_r = pendants = pair_edges = union = 0
    for x, y in graph.edges():
        inside = x < n_r and y < n_r
        pendant = (x == 0 and y in part.h2) or (y == 0 and x in part.h2)
        paired = ((x in ends and y in members) or (y in ends and x in members)
                  or {x, y} in pairs)
        in_r += inside
        pendants += pendant
        pair_edges += paired
        union += inside or pendant or paired
    cyclic = build_power_graph(build_cyclic(n_r))
    return StructureReport(
        edges_total=graph.edge_count, edges_in_r=in_r, pendant_count=pendants,
        pair_edge_count=pair_edges, cyclic_edge_count=cyclic.edge_count,
        prefix_matches_cyclic=induced_subgraph(graph, range(n_r)).adj == cyclic.adj,
        cover_ok=union == graph.edge_count,
        disjoint_ok=in_r + pendants + pair_edges == union,
        count_identity_ok=(graph.edge_count == cyclic.edge_count + n_r // 2 + 5 * (n_r // 4)
                           and pendants == n_r // 2 and pair_edges == 5 * (n_r // 4)),
    )


# partner-pair lists the classes must count exactly: as listed, with a pair
# repeated (once reversed), with a member in H2, with a pair at u and with a
# pair inside <r>.  The last two make a pair edge also a u-h3 or an h1-h1
# edge, so the seven kinds overlap there; classify_by_loop then gives each
# edge its first kind, and only the patterns and the structure are compared.
PAIR_EDITS = {
    "listed": lambda part, pairs: pairs,
    "repeated": lambda part, pairs: (*pairs, pairs[0], pairs[0][::-1]),
    "h2-member": lambda part, pairs: ((pairs[0][0], min(part.h2)), *pairs[1:]),
    "at-u": lambda part, pairs: ((part.u, pairs[0][1]), *pairs[1:]),
    "in-prefix": lambda part, pairs: ((1, 2), *pairs[1:]),
}
DISJOINT_KIND_EDITS = ("listed", "repeated", "h2-member")


@st.composite
def family_vertex_graphs(draw):
    """A graph on the vertex set of the family at (2,3), (2,5) or (3,3):
    random edges, or the family graph with random edges flipped; and the
    family's partition with an edited partner-pair list."""
    graph, part = family_graph(*draw(st.sampled_from([(2, 3), (2, 5), (3, 3)])))
    n = graph.n
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    if draw(st.booleans()):
        density = draw(st.floats(0.0, 1.0))
        edges = {(x, y) for x in range(n) for y in range(x + 1, n) if rng.random() < density}
    else:
        flips = {tuple(sorted(rng.sample(range(n), 2))) for _ in range(draw(st.integers(1, 30)))}
        edges = set(graph.edges()) ^ flips
    edit = draw(st.sampled_from(sorted(PAIR_EDITS)))
    part = part._replace(partner_pairs=PAIR_EDITS[edit](part, part.partner_pairs))
    return Graph.from_edges(n, sorted(edges), graph.labels), part, edit


@settings(max_examples=150, deadline=None)
@given(family_vertex_graphs())
def test_classes_match_edge_loops_on_any_graph(case):
    graph, part, edit = case
    cls = classify_edges(graph, part)
    patterns, kinds = classify_by_loop(graph, part)
    assert cls.pattern_counts() == {tag: len(v) for tag, v in patterns.items()}
    assert cls.pattern_edges == patterns
    # for every pair list, overlapping or not, each count is its list's length
    assert cls.kind_counts() == {kind: len(v) for kind, v in cls.kind_edges.items()}
    if edit in DISJOINT_KIND_EDITS:
        assert cls.kind_counts() == {kind: len(v) for kind, v in kinds.items()}
        assert cls.kind_edges == kinds
    assert verify_structure_theorem(graph, part) == structure_by_loop(graph, part)


@pytest.mark.parametrize("k,p", [(2, 3), (2, 5), (3, 3)])
@pytest.mark.parametrize("edit", sorted(PAIR_EDITS))
def test_structure_matches_edge_loop_on_family_graphs(k, p, edit):
    graph, part = family_graph(k, p)
    part = part._replace(partner_pairs=PAIR_EDITS[edit](part, part.partner_pairs))
    assert verify_structure_theorem(graph, part) == structure_by_loop(graph, part)


@pytest.mark.parametrize("edit", sorted(PAIR_EDITS))
def test_kind_counts_are_the_kind_list_lengths(edit):
    # a pair at u lies in the u-h3 block and a pair inside <r> in vw: each
    # such edge is listed under two kinds but is still one edge
    graph, part = family_graph(2, 3)
    part = part._replace(partner_pairs=PAIR_EDITS[edit](part, part.partner_pairs))
    cls = classify_edges(graph, part)
    assert cls.kind_counts() == {kind: len(v) for kind, v in cls.kind_edges.items()}


def test_classify_rejects_mismatched_partition():
    graph, _ = family_graph(2, 3)
    _, part5 = family_graph(2, 5)
    with pytest.raises(ValueError):
        classify_edges(graph, part5)


@pytest.mark.parametrize("k,p", [(2, 3), (2, 5), (3, 3)])
def test_structure_theorem(k, p):
    graph, part = family_graph(k, p)
    rep = verify_structure_theorem(graph, part)
    assert rep.cover_ok and rep.disjoint_ok and rep.count_identity_ok
    assert rep.prefix_matches_cyclic
    n_r = part.n_r
    assert rep.edges_total == rep.cyclic_edge_count + n_r // 2 + 5 * (n_r // 4)


def test_structure_theorem_2_3_numbers():
    graph, part = family_graph(2, 3)
    rep = verify_structure_theorem(graph, part)
    assert (rep.edges_total, rep.edges_in_r, rep.pendant_count, rep.pair_edge_count) \
        == (77, 56, 6, 15)


def test_export_edge_list():
    k2 = Graph.from_edges(2, [(0, 1)])
    assert export(k2, "edges") == "0 1\n"
    k1 = Graph.from_edges(1, [])
    assert export(k1, "edges") == "0\n"
    for fmt in ("gml", "edge-list"):
        with pytest.raises(ValueError):
            export(k1, fmt)


def test_export_dot():
    graph, _ = family_graph(2, 3)
    text = export(graph, "dot")
    lines = text.splitlines()
    assert lines[0] == "graph powg {"
    assert lines[-1] == "}"
    edge_lines = [ln for ln in lines if " -- " in ln]
    assert len(edge_lines) == 77
    vertex_lines = [ln for ln in lines if ln.endswith('";') and " -- " not in ln]
    assert len(vertex_lines) == 24
    assert lines.index(vertex_lines[-1]) < lines.index(edge_lines[0])
    assert '"e" -- "r";' in text
