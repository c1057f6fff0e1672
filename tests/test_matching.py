import math
import random

import pytest

from powg import (
    Graph,
    MatchingEngine,
    MatchingLimitError,
    brute_force_matchings,
    build_cyclic,
    build_power_graph,
    complete_graph_matchings,
    hosoya_index,
    matching_polynomial,
    telephone_number,
)
from conftest import complete_graph, random_graph


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


def test_pivot_strategies_agree():
    rng = random.Random(21)
    for _ in range(15):
        g = random_graph(rng, rng.randint(2, 11), 0.5)
        results = {matching_polynomial(g, pivot=piv).coeffs
                   for piv in ("max-degree", "min-degree", "first")}
        assert len(results) == 1
    with pytest.raises(ValueError):
        matching_polynomial(complete_graph(3), pivot="random")


def test_memo_limit_is_graceful():
    g = complete_graph(12)
    with pytest.raises(MatchingLimitError):
        matching_polynomial(g, memo_limit=4)


def test_engine_stats():
    eng = MatchingEngine(complete_graph(6))
    poly = eng.run()
    assert poly.hosoya_index == telephone_number(6)
    stats = eng.stats
    assert stats["memo_entries"] > 0
    assert stats["pivot"] == "max-degree"


def test_render():
    assert matching_polynomial(complete_graph(4)).render() == \
        "m_0=1, m_1=6, m_2=3\nZ=10"
