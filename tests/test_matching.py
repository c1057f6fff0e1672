import hashlib
import inspect
import math
import random
import sys

import pytest
from hypothesis import assume, given, settings, strategies as st

from powg import matching
from powg import (
    FamilyParams,
    Graph,
    MatchingEngine,
    MatchingLimitError,
    brute_force_matchings,
    build_cyclic,
    build_family,
    build_power_graph,
    complete_graph_matchings,
    cyclic_subgroup,
    hosoya_index,
    matching_polynomial,
    telephone_number,
)
from conftest import complete_graph, random_graph
from oracles import TwinEngine

# sha256 of `powg invariant matching-poly --cyclic N` for N = 1..30, each
# rendering followed by a newline, as printed by the bitmask engine
# (max-degree pivot) before the twin engine existed
PINNED_CYCLIC_SHA256 = "30a4a6aec55ede780259e621a9e8acfd9a3171e721a9a3cef38deab2555f0042"


def test_small_graphs():
    path = Graph.from_edges(3, [(0, 1), (1, 2)])
    assert matching_polynomial(path).coeffs == (1, 2)
    assert matching_polynomial(complete_graph(4)).coeffs == (1, 6, 3)
    c4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    assert matching_polynomial(c4).coeffs == (1, 4, 2)


def test_closed_form_k4():
    n = 4
    expected = tuple(math.factorial(n) // (math.factorial(i) * 2**i * math.factorial(n - 2 * i))
                     for i in range(n // 2 + 1))
    assert matching_polynomial(complete_graph(4)).coeffs == expected == (1, 6, 3)


def test_hosoya_index_basics():
    assert hosoya_index(Graph.from_edges(5, [])) == 1
    assert hosoya_index(complete_graph(4)) == 10
    two_edges = Graph.from_edges(4, [(0, 1), (2, 3)])
    assert hosoya_index(two_edges) == 4


def test_brute_force_examples():
    assert brute_force_matchings(complete_graph(4)).coeffs == (1, 6, 3)
    assert brute_force_matchings(complete_graph(6)).m(3) == 15
    z6 = build_power_graph(build_cyclic(6))
    assert brute_force_matchings(z6) == matching_polynomial(z6)
    with pytest.raises(ValueError):
        brute_force_matchings(complete_graph(17))


def test_engine_matches_brute_force_random():
    rng = random.Random(3)
    for _ in range(60):
        n = rng.randint(1, 10)
        g = random_graph(rng, n, rng.uniform(0.2, 0.9))
        assert matching_polynomial(g) == brute_force_matchings(g)


def test_engine_matches_brute_force_cyclic_power_graphs():
    for n in range(1, 13):
        g = build_power_graph(build_cyclic(n))
        assert matching_polynomial(g) == brute_force_matchings(g)


def test_edge_recurrence():
    rng = random.Random(5)
    for _ in range(20):
        n = rng.randint(2, 10)
        g = random_graph(rng, n, 0.5)
        edges = list(g.edges())
        if not edges:
            continue
        u, v = edges[rng.randrange(len(edges))]
        without_edge = Graph.from_edges(n, [e for e in edges if e != (u, v)])
        keep = [w for w in range(n) if w not in (u, v)]
        pos = {w: i for i, w in enumerate(keep)}
        minus_uv = Graph.from_edges(
            len(keep),
            [(pos[a], pos[b]) for a, b in edges if a in pos and b in pos],
        )
        assert hosoya_index(g) == hosoya_index(without_edge) + hosoya_index(minus_uv)


def test_multiplicative_over_disjoint_union():
    rng = random.Random(9)
    for _ in range(20):
        n1, n2 = rng.randint(1, 6), rng.randint(1, 6)
        g1 = random_graph(rng, n1, 0.6)
        g2 = random_graph(rng, n2, 0.6)
        combined = Graph.from_edges(
            n1 + n2,
            list(g1.edges()) + [(u + n1, v + n1) for u, v in g2.edges()],
        )
        assert hosoya_index(combined) == hosoya_index(g1) * hosoya_index(g2)


def test_m1_is_edge_count():
    rng = random.Random(13)
    for _ in range(25):
        g = random_graph(rng, rng.randint(2, 11), 0.5)
        assert matching_polynomial(g).m(1) == g.edge_count


def test_telephone_numbers():
    assert [telephone_number(n) for n in range(9)] == \
        [1, 1, 2, 4, 10, 26, 76, 232, 764]


def test_engine_equals_telephone_numbers():
    for n in range(1, 13):
        assert hosoya_index(complete_graph(n)) == telephone_number(n)


def test_complete_graph_matchings_modes():
    assert complete_graph_matchings(12, 2, "printed") == 1485
    assert complete_graph_matchings(12, 2, "corrected") == 1485
    assert complete_graph_matchings(12, 3, "printed") == 27720
    assert complete_graph_matchings(12, 3, "corrected") == 13860
    assert complete_graph_matchings(10, 0) == 1
    with pytest.raises(ValueError):
        complete_graph_matchings(4, 3)
    with pytest.raises(ValueError):
        complete_graph_matchings(4, 1, "rounded")


def test_complete_graph_rows_match_factorial_identity():
    # independent of the ratio recurrence: corrected = n! / (i! 2^i (n-2i)!)
    # and printed = (i-1)! * corrected, since the two differ by i!/i
    for n in range(61):
        for i in range(n // 2 + 1):
            den = math.factorial(i) * 2 ** i * math.factorial(n - 2 * i)
            corrected, rem = divmod(math.factorial(n), den)
            assert rem == 0
            printed = math.factorial(i - 1) * corrected if i else 1
            assert complete_graph_matchings(n, i, "corrected") == corrected
            assert complete_graph_matchings(n, i, "printed") == printed
        assert telephone_number(n) == sum(
            complete_graph_matchings(n, i) for i in range(n // 2 + 1))


def test_complete_graph_rows_assert_exact_division(monkeypatch):
    import powg.matching as matching_mod

    matching_mod._k_n_row.cache_clear()
    # C(., 2) forced to 3 makes prod_2 = 9, which 2! does not divide
    monkeypatch.setattr(matching_mod.math, "comb", lambda a, b: 3)
    try:
        with pytest.raises(ValueError, match="non-integral division"):
            complete_graph_matchings(6, 2, "corrected")
    finally:
        matching_mod._k_n_row.cache_clear()


def test_corrected_mode_matches_brute_force():
    for n in (5, 8, 10):
        brute = brute_force_matchings(complete_graph(n))
        for i in range(n // 2 + 1):
            assert complete_graph_matchings(n, i, "corrected") == brute.m(i)


def test_printed_and_corrected_agree_up_to_order_two():
    for n in range(2, 17):
        for i in (1, 2):
            if 2 * i <= n:
                assert complete_graph_matchings(n, i, "printed") == \
                    complete_graph_matchings(n, i, "corrected")


def test_memo_limit_is_graceful(monkeypatch):
    # a 12-cycle: every pivot leaves paths, one memo entry per path and cycle
    g = Graph.from_edges(12, [(i, (i + 1) % 12) for i in range(12)])
    assert MatchingEngine(g).run().hosoya_index == 322  # Lucas number L_12
    monkeypatch.setattr(matching, "MEMO_LIMIT", 4)
    with pytest.raises(MatchingLimitError, match="memo entry cap 4 exceeded"):
        matching_polynomial(g)
    with pytest.raises(MatchingLimitError):
        TwinEngine(g).run()


def test_engine_stats():
    eng = MatchingEngine(complete_graph(6))
    poly = eng.run()
    assert poly.hosoya_index == telephone_number(6)
    # K_6 is one join of six universal vertices, read from the K_n row
    assert eng.stats == {"memo_entries": 1, "subproblems": 1}


def test_render():
    assert matching_polynomial(complete_graph(4)).render() == \
        "m_0=1, m_1=6, m_2=3\nZ=10"


def _cliques(*ranges):
    return {(u, v) for vs in ranges for u in vs for v in vs if u < v}


def _blow_up(draw, max_classes, max_vertices):
    """Order and edges of a random base graph with each vertex replaced by a
    clique of 1..4 vertices, adjacent classes joined completely."""
    sizes = draw(st.lists(st.integers(1, 4), min_size=1, max_size=max_classes)
                 .filter(lambda s: sum(s) <= max_vertices))
    pairs = [(i, j) for i in range(len(sizes)) for j in range(i + 1, len(sizes))]
    joined = draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    members, start = [], 0
    for size in sizes:
        members.append(range(start, start + size))
        start += size
    edges = _cliques(*members)
    edges |= {(u, v) for i, j in joined for u in members[i] for v in members[j]}
    return start, edges


@st.composite
def clique_blow_ups(draw):
    """A random graph of one of three shapes, relabelled at random, plus up
    to three noise edges that break some of its twin classes and joins:
    - a clique blow-up;
    - the complete join of two clique blow-ups;
    - two cliques X and Y whose cross neighbourhoods N(y) & X form a chain
      under inclusion (a Ferrers board)."""
    shape = draw(st.sampled_from(("blow-up", "join", "chain")))
    if shape == "blow-up":
        n, edges = _blow_up(draw, 8, 16)
    elif shape == "join":
        n1, edges = _blow_up(draw, 3, 6)
        n2, right = _blow_up(draw, 3, 6)
        n = n1 + n2
        edges |= {(u + n1, v + n1) for u, v in right}
        edges |= {(u, v) for u in range(n1) for v in range(n1, n)}
    else:
        x, y = draw(st.integers(1, 6)), draw(st.integers(1, 6))
        reach = sorted(draw(st.lists(st.integers(0, x), min_size=y, max_size=y)))
        n = x + y
        edges = _cliques(range(x), range(x, n))
        edges |= {(u, x + j) for j, r in enumerate(reach) for u in range(r)}
    perm = draw(st.permutations(range(n)))
    edges = {(min(perm[u], perm[v]), max(perm[u], perm[v])) for u, v in edges}
    noise = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                          max_size=3))
    edges |= {(min(u, v), max(u, v)) for u, v in noise if u != v}
    g = Graph.from_edges(n, sorted(edges))
    # keeps brute force (time proportional to the matching count) fast
    assume(math.prod(g.degree(v) + 1 for v in range(n)) <= 10 ** 12)
    return g


@settings(max_examples=400, deadline=None)
@given(clique_blow_ups())
def test_twin_engine_matches_brute_force_on_clique_blow_ups(g):
    assert TwinEngine(g).run() == brute_force_matchings(g)


@settings(max_examples=400, deadline=None)
@given(clique_blow_ups())
def test_matching_engine_matches_brute_force_on_clique_blow_ups(g):
    assert MatchingEngine(g).run() == brute_force_matchings(g)


def test_engines_agree_on_power_graphs():
    # every family case of order <= 80; the twin engine takes about 2 s at 80
    for k, p in [(2, 3), (2, 5), (2, 7), (3, 3), (3, 5)]:
        g = build_power_graph(build_family(FamilyParams(k, p)))
        assert MatchingEngine(g).run() == TwinEngine(g).run()
    rendered = []
    for n in range(1, 31):
        g = build_power_graph(build_cyclic(n))
        poly = MatchingEngine(g).run()
        assert poly == TwinEngine(g).run()
        rendered.append(poly.render() + "\n")
    digest = hashlib.sha256("".join(rendered).encode("utf-8")).hexdigest()
    assert digest == PINNED_CYCLIC_SHA256


def test_twin_engine_on_complete_graphs():
    for n in range(61):
        engine = TwinEngine(complete_graph(n))
        assert engine.run().hosoya_index == telephone_number(n)
        assert engine.stats["classes"] == min(n, 1)
        assert engine.stats["memo_entries"] <= n


def test_twin_engine_stats():
    group = build_family(FamilyParams(2, 3))
    engine = TwinEngine(build_power_graph(group))
    assert engine.run().hosoya_index == 2911488
    stats = engine.stats
    assert stats["pivot"] == "max-degree"
    # here every class is the generator set of one cyclic subgroup
    assert stats["classes"] == len({frozenset(cyclic_subgroup(group, x))
                                    for x in group.elements()}) == 15
    assert 0 < stats["memo_entries"] == stats["subproblems"]


def test_twin_engine_leaves_the_recursion_limit_alone():
    limit = sys.getrecursionlimit()
    g = build_power_graph(build_family(FamilyParams(2, 5)))
    TwinEngine(g).run()
    assert sys.getrecursionlimit() == limit
    # one frame per removed vertex: a clique larger than the limit is a
    # resource limit, not a RecursionError
    n = limit + 10
    full = (1 << n) - 1
    deep = Graph(n, tuple(full ^ 1 << v for v in range(n)), tuple(map(str, range(n))))
    with pytest.raises(MatchingLimitError, match="recursion depth"):
        TwinEngine(deep).run()
    assert sys.getrecursionlimit() == limit


def test_matching_engine_maps_deep_recursion_to_the_limit_error():
    limit = sys.getrecursionlimit()
    g = build_power_graph(build_family(FamilyParams(2, 5)))
    MatchingEngine(g).run()
    assert sys.getrecursionlimit() == limit
    # a path takes a few frames per pivot, one pivot per removed vertex;
    # its matchings are counted by the Fibonacci numbers
    n = 120
    path = Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])
    fib = [1, 1]
    while len(fib) <= n:
        fib.append(fib[-1] + fib[-2])
    assert MatchingEngine(path).run().hosoya_index == fib[n]
    sys.setrecursionlimit(len(inspect.stack(0)) + 60)
    try:
        with pytest.raises(MatchingLimitError, match="recursion depth"):
            MatchingEngine(path).run()
    finally:
        sys.setrecursionlimit(limit)
