import hashlib
import itertools
import math
from fractions import Fraction

import pytest

from powg import (
    FamilyParams,
    Graph,
    MatchingEngine,
    brute_force_matchings,
    build_family,
    build_power_graph,
    eval_matching_family,
    family_orders,
    paper_degree_claims,
    paper_edge_type_counts,
    paper_hosoya_coeffs,
    paper_hosoya_index,
    paper_rs_hosoya,
)
from powg.formulas import FAMILY_TAGS, _chain_matchings, family_matching_polynomial
from powg.groups import _is_odd_prime


def test_hosoya_coeffs():
    assert paper_hosoya_coeffs(2, 3) == (24, 87, 189)
    assert paper_hosoya_coeffs(2, 5) == (40, 225, 555)


def test_hosoya_coeffs_conservation():
    for k in (2, 3, 4):
        for p in (3, 5, 7, 11):
            dis0, dis1, dis2 = paper_hosoya_coeffs(k, p)
            n = dis0
            assert dis0 + dis1 + dis2 == n + math.comb(n, 2)


def test_degree_claims():
    assert paper_degree_claims(2, 3) == {"e": 23, "u": 17, "h1": 11, "h2": 1, "h3": 3}
    assert paper_degree_claims(2, 5) == {"e": 39, "u": 29, "h1": 19, "h2": 1, "h3": 3}


def test_edge_type_counts():
    counts = paper_edge_type_counts(2, 3)
    assert counts == {"eu": 1, "eh1": 10, "eh2": 6, "eh3": 6, "uh3": 6,
                      "vw": 45, "yz": 3}
    assert sum(counts.values()) == 77
    counts33 = paper_edge_type_counts(3, 3)
    assert counts33["vw"] == 22 * 21 // 2 == 231
    assert sum(counts33.values()) == 296


def test_rs_hosoya_printed():
    poly = paper_rs_hosoya(2, 3, "printed")
    assert poly.terms == {Fraction(43): 1, Fraction(40): 10, Fraction(34): 51,
                          Fraction(36): 6, Fraction(33): 6, Fraction(26): 3}
    assert poly.coefficient_total() == 77


def test_rs_hosoya_corrected():
    poly = paper_rs_hosoya(2, 3, "corrected")
    assert poly.terms == {Fraction(43): 1, Fraction(40): 10, Fraction(35): 6,
                          Fraction(34): 45, Fraction(36): 6, Fraction(33): 6,
                          Fraction(26): 3}
    assert poly.coefficient_total() == 77


@pytest.mark.parametrize("k,p", [(2, 3), (2, 5), (3, 3), (3, 5)])
def test_rs_total_equals_edge_type_total(k, p):
    for mode in ("printed", "corrected"):
        assert paper_rs_hosoya(k, p, mode).coefficient_total() == \
            sum(paper_edge_type_counts(k, p).values())


def test_rs_modes_differ_only_on_pendant_term():
    printed = paper_rs_hosoya(2, 5, "printed").terms
    corrected = paper_rs_hosoya(2, 5, "corrected").terms
    n = 20
    assert corrected[Fraction(3 * n - 1)] == 10
    assert printed[Fraction(3 * n - 2)] - corrected.get(Fraction(3 * n - 2), 0) == 10
    for exp in set(printed) | set(corrected):
        if exp not in (Fraction(3 * n - 1), Fraction(3 * n - 2)):
            assert printed.get(exp) == corrected.get(exp)


def test_family_term_examples():
    assert eval_matching_family("M2", 1, 2, 3).count == 6
    assert eval_matching_family("M3", 1, 2, 3).count == 12
    assert eval_matching_family("M3", 2, 2, 3).count == 30
    assert eval_matching_family("M4", 2, 2, 3).count == 3
    assert eval_matching_family("M7", 2, 2, 3).count == 24
    assert eval_matching_family("M9", 2, 2, 3).count == 36
    assert eval_matching_family("M10", 2, 2, 3).count == 18


def test_family_terms_hand_checked():
    # spot values computed by hand from the displayed formulas at (2, 3)
    assert eval_matching_family("M1", 1, 2, 3).count == 66
    assert eval_matching_family("M1", 2, 2, 3).count == 1485
    assert eval_matching_family("M1", 3, 2, 3, "printed").count == 27720
    assert eval_matching_family("M1", 3, 2, 3, "corrected").count == 13860
    assert eval_matching_family("M5", 3, 2, 3).count == 12 * 990 + 15 * 45
    assert eval_matching_family("M6", 2, 2, 3).count == 66 * 3
    assert eval_matching_family("M8", 2, 2, 3).count == 6 * 55
    assert eval_matching_family("M13", 3, 2, 3).count == 36 * 2
    assert eval_matching_family("M13", 4, 2, 3).count == 36
    assert eval_matching_family("M14", 3, 2, 3).count == 72 * 45


def test_m5_order_two_flags_undefined_summand():
    term = eval_matching_family("M5", 2, 2, 3)
    assert term.count == 12 * 55  # only the defined summand contributes
    assert term.note is not None and "undefined" in term.note
    # both modes agree at order 2, per the congruence rule for low orders
    assert eval_matching_family("M5", 2, 2, 3, "corrected").count == term.count


def test_corrected_m1_matches_factorial_form():
    for k, p in [(2, 3), (2, 5), (3, 3)]:
        n = (1 << k) * p
        for i in family_orders("M1", k, p):
            expected = math.factorial(n) // (
                math.factorial(i) * 2**i * math.factorial(n - 2 * i))
            assert eval_matching_family("M1", i, k, p, "corrected").count == expected


def test_mode_congruence_where_deltas_inactive():
    # families with no table-derived factor are mode-independent everywhere
    for fam in ("M2", "M3", "M4", "M7", "M9", "M10", "M13"):
        for i in family_orders(fam, 2, 3):
            assert eval_matching_family(fam, i, 2, 3, "printed").count == \
                eval_matching_family(fam, i, 2, 3, "corrected").count
    # table-backed families agree while every engaged factor has order <= 2
    assert eval_matching_family("M8", 3, 2, 3, "printed").count == \
        eval_matching_family("M8", 3, 2, 3, "corrected").count
    assert eval_matching_family("M8", 4, 2, 3, "printed").count != \
        eval_matching_family("M8", 4, 2, 3, "corrected").count


def test_out_of_range_orders_raise():
    with pytest.raises(ValueError):
        eval_matching_family("M2", 2, 2, 3)
    with pytest.raises(ValueError):
        eval_matching_family("M1", 7, 2, 3)
    with pytest.raises(ValueError):
        eval_matching_family("M15", 3, 2, 3)
    with pytest.raises(ValueError):
        eval_matching_family("M99", 1, 2, 3)


def test_family_orders_2_3():
    assert family_orders("M1", 2, 3) == [1, 2, 3, 4, 5, 6]
    assert family_orders("M7", 2, 3) == [2]
    assert family_orders("M7", 2, 5) == [2, 3, 4]
    assert family_orders("M11", 2, 3) == list(range(3, 10))
    assert family_orders("M15", 2, 3) == list(range(4, 10))


def test_assembly_totals():
    for mode in ("printed", "corrected"):
        total, terms = paper_hosoya_index(2, 3, mode)
        assert total == 1 + sum(t.count for t in terms)
        seen = {(t.family, t.order) for t in terms}
        expected = {(fam, i) for fam in FAMILY_TAGS
                    for i in family_orders(fam, 2, 3)}
        assert seen == expected
        assert all(t.count >= 0 for t in terms)
    # deterministic across repeated evaluation
    assert paper_hosoya_index(2, 3, "printed") == paper_hosoya_index(2, 3, "printed")


def test_assembly_notes_only_m5_order_two():
    _, terms = paper_hosoya_index(2, 3, "printed")
    noted = [(t.family, t.order) for t in terms if t.note]
    assert noted == [("M5", 2)]


def test_invalid_params_raise():
    with pytest.raises(ValueError):
        paper_hosoya_coeffs(1, 3)
    with pytest.raises(ValueError):
        paper_hosoya_index(2, 4)
    with pytest.raises(ValueError):
        paper_rs_hosoya(2, 3, "fixed")


# sha256 over one "k p mode family order count note" line per term of
# paper_hosoya_index, for every valid (k, p) of order <= 512 in both modes;
# recorded from the term-at-a-time evaluators before the rows replaced them
ASSEMBLY_SHA256 = "b2e80030005e676eca62ad324a81a69b8556caf26e5e77c4f7266d6532e874b3"


def test_assembly_pinned_up_to_order_512():
    digest = hashlib.sha256()
    cases = [(k, p) for k in range(2, 8) for p in range(3, 64, 2)
             if all(p % d for d in range(3, p, 2)) and (2 << k) * p <= 512]
    assert len(cases) == 36
    for k, p in cases:
        for mode in ("printed", "corrected"):
            for t in paper_hosoya_index(k, p, mode)[1]:
                line = f"{k} {p} {mode} {t.family} {t.order} {t.count} {t.note}\n"
                digest.update(line.encode("utf-8"))
    assert digest.hexdigest() == ASSEMBLY_SHA256


def _family_graph(k, p):
    return build_power_graph(build_family(FamilyParams(k, p)))


SMALL_CASES = [(k, p) for k in range(2, 8) for p in range(3, 80, 2)
               if _is_odd_prime(p) and (2 << k) * p <= 160]
LADDER = [(k, p) for k in range(2, 7) for p in (3, 5, 7)]


def test_arithmetic_count_equals_the_engine_up_to_order_160():
    assert len(SMALL_CASES) == 12
    for k, p in SMALL_CASES:
        engine = MatchingEngine(_family_graph(k, p)).run()
        assert family_matching_polynomial(k, p) == list(engine.coeffs), (k, p)


@pytest.mark.parametrize("k,p", LADDER)
def test_arithmetic_count_low_orders_on_the_ladder(k, p):
    graph = _family_graph(k, p)
    m = family_matching_polynomial(k, p)
    edges = graph.edge_count
    m2 = math.comb(edges, 2) - sum(math.comb(graph.degree(v), 2) for v in range(graph.n))
    assert m[:3] == [1, edges, m2]
    assert len(m) <= graph.n // 2 + 1 and m[-1] > 0


def _chain_graph(xs, ys, gens):
    """Two cliques X and Y, Y level b joined to X levels a <= b, and gens
    vertices joined to everything, built edge by edge."""
    x_level = [a for a, c in enumerate(xs) for _ in range(c)]
    y_level = [b for b, c in enumerate(ys) for _ in range(c)]
    nx, ny = len(x_level), len(y_level)
    n = nx + ny + gens
    edges = [(i, j) for i in range(nx) for j in range(i + 1, nx)]
    edges += [(nx + i, nx + j) for i in range(ny) for j in range(i + 1, ny)]
    edges += [(i, nx + j) for i in range(nx) for j in range(ny) if x_level[i] <= y_level[j]]
    edges += [(w, v) for w in range(nx + ny, n) for v in range(w)]
    return Graph.from_edges(n, edges)


def test_chain_piece_matches_brute_force():
    # three X levels and two Y levels: Y sees no X, part of X or all but the
    # top X level, as in the family; up to two generators, 8 vertices in all
    checked = 0
    for gens, levels in itertools.product(range(3), itertools.product(range(9), repeat=5)):
        if sum(levels) + gens > 8:
            continue
        xs, ys = list(levels[:3]), list(levels[3:])
        poly = _chain_matchings(xs, ys, gens)
        while len(poly) > 1 and poly[-1] == 0:
            poly.pop()
        assert poly == list(brute_force_matchings(_chain_graph(xs, ys, gens)).coeffs), \
            (xs, ys, gens)
        checked += 1
    assert checked == 2541
