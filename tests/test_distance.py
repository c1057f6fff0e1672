import hashlib
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from powg import (
    FamilyParams,
    Graph,
    RationalExponentPolynomial,
    build_cyclic,
    build_family,
    build_power_graph,
    diameter,
    distance_profile,
    hosoya_polynomial,
    paper_rs_hosoya,
    reciprocal_status,
    rs_hosoya_polynomial,
    wiener_index,
)
from conftest import complete_graph, random_graph
from oracles import all_pairs_distances

# rs-sum term map of the (2, 3) family power graph, derived by hand from the
# oracle degrees: e:23, u:15, H1 degrees {11,11,11,11,9,9,8,8,7,7}, H2:1, H3:3,
# with rs(v) = deg(v) + (23 - deg(v))/2 on a diameter-2 graph.
FAMILY_2_3_RS_TERMS = {
    Fraction(42): 1,
    Fraction(40): 4,
    Fraction(39): 2,
    Fraction(77, 2): 2,
    Fraction(38): 2,
    Fraction(36): 10,
    Fraction(35): 8,
    Fraction(34): 8,
    Fraction(33): 8,
    Fraction(65, 2): 8,
    Fraction(32): 15,
    Fraction(63, 2): 4,
    Fraction(31): 1,
    Fraction(30): 1,
    Fraction(26): 3,
}


def family_graph(k, p):
    return build_power_graph(build_family(FamilyParams(k, p)))


def path_graph(n):
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def star_graph(leaves):
    return Graph.from_edges(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def test_all_pairs_distances():
    k4 = complete_graph(4)
    table = all_pairs_distances(k4)
    assert all(table[u][v] == 1 for u in range(4) for v in range(4) if u != v)
    p3 = path_graph(3)
    assert all_pairs_distances(p3)[0][2] == 2
    z6 = build_power_graph(build_cyclic(6))
    assert all_pairs_distances(z6)[2][3] == 2


def test_hosoya_polynomial_basics():
    for n in (2, 4, 7):
        dd = hosoya_polynomial(complete_graph(n))
        assert dd.counts == (n, n * (n - 1) // 2)
    z6 = hosoya_polynomial(build_power_graph(build_cyclic(6)))
    assert z6.counts == (6, 13, 2)
    assert sum(z6.counts) == 6 + math.comb(6, 2)
    fam = hosoya_polynomial(family_graph(2, 3))
    assert fam.counts == (24, 77, 199)
    assert fam.unreachable_pairs == 0


def test_hosoya_polynomial_disconnected():
    g = Graph.from_edges(4, [(0, 1), (2, 3)])
    dd = hosoya_polynomial(g)
    assert dd.counts == (4, 2)
    assert dd.unreachable_pairs == 4
    assert sum(dd.counts) + dd.unreachable_pairs == 4 + math.comb(4, 2)


def test_conservation_random_graphs():
    rng = random.Random(7)
    for _ in range(100):
        n = rng.randint(1, 12)
        g = random_graph(rng, n, rng.uniform(0.1, 0.9))
        dd = hosoya_polynomial(g)
        assert sum(dd.counts) + dd.unreachable_pairs == n + math.comb(n, 2)
        if len(dd.counts) > 1:
            assert dd.counts[1] == g.edge_count
        else:
            assert g.edge_count == 0


def test_conservation_cyclic_power_graphs():
    for n in range(1, 31):
        g = build_power_graph(build_cyclic(n))
        dd = hosoya_polynomial(g)
        assert sum(dd.counts) + dd.unreachable_pairs == n + math.comb(n, 2)
        if n > 1:
            assert dd.counts[1] == g.edge_count
        # the identity dominates, so no power graph exceeds diameter 2
        assert diameter(g) <= 2


def test_reciprocal_status():
    for n in (3, 5):
        g = complete_graph(n)
        assert all(reciprocal_status(g, v) == n - 1 for v in range(n))
    star = star_graph(3)
    assert reciprocal_status(star, 0) == 3
    assert reciprocal_status(star, 1) == 2
    with pytest.raises(ValueError):
        reciprocal_status(Graph.from_edges(4, [(0, 1), (2, 3)]), 0)


@pytest.mark.parametrize("k,p", [(2, 3), (2, 5)])
def test_diameter_two_closed_form(k, p):
    g = family_graph(k, p)
    n = g.n
    for v in range(n):
        rs = reciprocal_status(g, v)
        d = g.degree(v)
        assert rs == Fraction(d) + Fraction(n - 1 - d, 2)
        assert rs.denominator in (1, 2)


def test_rs_hosoya_small():
    k3 = complete_graph(3)
    assert rs_hosoya_polynomial(k3).terms == {Fraction(4): 3}
    star = star_graph(3)
    assert rs_hosoya_polynomial(star).terms == {Fraction(5): 3}
    k4 = build_power_graph(build_cyclic(4))
    assert rs_hosoya_polynomial(k4).terms == {Fraction(6): 6}


def test_rs_hosoya_family_2_3_full_terms():
    poly = rs_hosoya_polynomial(family_graph(2, 3))
    assert poly.terms == FAMILY_2_3_RS_TERMS
    assert poly.coefficient_total() == 77


# Found by brute force over connected graphs, fewest vertices and then fewest
# edges first (none on 7 vertices or fewer with up to n + 3 edges): vertices 1
# and 5 have different layer tuples but one status, and they are adjacent,
# so one status class holds two layer tuples and an edge between them.
EQUAL_STATUS_TREE = Graph.from_edges(8, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 5), (5, 6), (5, 7)])


def test_rs_classes_merge_layer_tuples_of_equal_status():
    g = EQUAL_STATUS_TREE
    layers = distance_profile(g).layers
    assert layers[1] == (1, 2, 5) and layers[5] == (1, 3, 1, 3)
    assert reciprocal_status(g, 1) == reciprocal_status(g, 5) == Fraction(9, 2)
    check_profile_against_oracle(g)
    assert rs_hosoya_polynomial(g).terms == {
        Fraction(29, 3): 1, Fraction(9): 1, Fraction(17, 2): 3, Fraction(91, 12): 2}


@pytest.mark.parametrize("terms", [
    {Fraction(9, 2): 3, Fraction(4): 1, Fraction(1, 3): 2},  # descending already
    {Fraction(4): 1, Fraction(9, 2): 3, Fraction(1, 3): 2},  # out of order
    {Fraction(9, 2): 3, 4: 1, Fraction(1, 3): 2},  # an int exponent
    {Fraction(9, 2): 3, Fraction(4): True, Fraction(1, 3): 2},  # a bool coefficient
])
def test_rs_polynomial_terms_are_exact_and_descending(terms):
    poly = RationalExponentPolynomial(terms)
    assert list(poly.terms.items()) == [(Fraction(9, 2), 3), (Fraction(4), 1), (Fraction(1, 3), 2)]
    assert {type(e) for e in poly.terms} == {Fraction}
    assert {type(c) for c in poly.terms.values()} == {int}
    poly.terms[Fraction(9, 2)] = 0
    assert terms[Fraction(9, 2)] == 3  # the caller's dict is not shared


@st.composite
def scaled_term_dicts(draw):
    """(terms, scale, counts): terms maps Fraction or int exponents with
    denominators 1..12 to positive coefficients; counts holds the same terms
    as integer numerators over scale, a multiple of their common denominator."""
    terms = {}
    for _ in range(draw(st.integers(0, 8))):
        num, den = draw(st.integers(-60, 240)), draw(st.integers(1, 12))
        key = num // den if num % den == 0 and draw(st.booleans()) else Fraction(num, den)
        terms[key] = draw(st.integers(1, 10 ** 6))
    exps = list(map(Fraction, terms))
    scale = math.lcm(*(e.denominator for e in exps)) * draw(st.integers(1, 6))
    counts = {e.numerator * (scale // e.denominator): c for e, c in zip(exps, terms.values())}
    return terms, scale, counts


@settings(max_examples=300, deadline=None)
@given(scaled_term_dicts())
def test_rs_polynomial_integer_scale_matches_fraction_terms(case):
    terms, scale, counts = case
    by_fraction = RationalExponentPolynomial(terms)
    by_numerator = RationalExponentPolynomial.from_scaled(scale, counts)
    expected = dict(sorted(((Fraction(e), c) for e, c in terms.items()), reverse=True))
    texts = {str(e): c for e, c in expected.items()}
    for poly in (by_fraction, by_numerator):
        assert list(poly.terms.items()) == list(expected.items())
        assert {type(e) for e in poly.terms} <= {Fraction}
        assert list(poly.term_strings().items()) == list(texts.items())
        assert poly.render() == (" + ".join(f"{c}·x^{e}" for e, c in texts.items()) or "0")
        assert poly.coefficient_total() == sum(terms.values())
    assert by_fraction == by_numerator
    for e, c in counts.items():  # one coefficient more is another polynomial
        assert by_fraction != RationalExponentPolynomial.from_scaled(scale, {**counts, e: c + 1})
    halved = RationalExponentPolynomial.from_scaled(2 * scale, counts)  # every exponent halved
    assert (halved == by_fraction) == (set(counts) <= {0})


@pytest.mark.parametrize("coeff", [0, -1])
def test_rs_polynomial_rejects_a_non_positive_coefficient(coeff):
    with pytest.raises(ValueError, match="not positive"):
        RationalExponentPolynomial({Fraction(5): 1, Fraction(3): coeff})


def test_rs_hosoya_total_equals_edge_count():
    rng = random.Random(11)
    graphs = [build_power_graph(build_cyclic(n)) for n in range(2, 16)]
    for _ in range(30):
        n = rng.randint(2, 10)
        g = random_graph(rng, n, 0.7)
        if not hosoya_polynomial(g).unreachable_pairs:
            graphs.append(g)
    for g in graphs:
        assert rs_hosoya_polynomial(g).coefficient_total() == g.edge_count


def test_rs_hosoya_render():
    star = star_graph(3)
    assert rs_hosoya_polynomial(star).render() == "3·x^5"
    g = Graph.from_edges(3, [(0, 1)])  # disconnected: rs undefined
    with pytest.raises(ValueError):
        rs_hosoya_polynomial(g)


def test_render_half_exponents():
    poly = rs_hosoya_polynomial(path_graph(4))
    # rs values on P4: ends 1 + 1/2 + 1/3 = 11/6, middles 2.5 -> not halves;
    # just check formatting of non-integer exponents stays exact
    assert "x^" in poly.render()
    assert poly.coefficient_total() == 3


def test_wiener_index():
    assert wiener_index(complete_graph(4)) == 6
    assert wiener_index(path_graph(3)) == 4
    assert wiener_index(build_power_graph(build_cyclic(6))) == 17
    assert wiener_index(family_graph(2, 3)) == 77 + 2 * 199


def test_diameter():
    assert diameter(complete_graph(5)) == 1
    assert diameter(family_graph(2, 3)) == 2
    assert diameter(Graph.from_edges(4, [(0, 1), (2, 3)])) == math.inf
    assert diameter(Graph.from_edges(1, [])) == 0


def test_polynomial_string():
    dd = hosoya_polynomial(build_power_graph(build_cyclic(6)))
    assert dd.polynomial_string() == "6 + 13x + 2x^2"


LADDER = [(k, p) for k in range(2, 7) for p in (3, 5, 7)]


def rs_digest(cases) -> str:
    """sha256 over a "k p" line and one "exponent coefficient" line per term
    of the reciprocal-status polynomial of the family power graph, for every
    case."""
    digest = hashlib.sha256()
    for k, p in cases:
        digest.update(f"{k} {p}\n".encode("utf-8"))
        for exponent, count in rs_hosoya_polynomial(family_graph(k, p)).term_strings().items():
            digest.update(f"{exponent} {count}\n".encode("utf-8"))
    return digest.hexdigest()


# recorded from the per-vertex statuses and the ordered count of every class
# pair, before the statuses were computed once per layer tuple and each class
# pair counted once; CI checks RS_FULL_SHA256 over every valid order
RS_LADDER_SHA256 = "0e8595ab79d93d0e38c6c54b6c46a77fca47d254e4497117027b2a5d0983907c"
RS_FULL_SHA256 = "e29b77b1a57d8f1212e0dcab5377ce8672459c34855e9d76062dc76b42c8d9bb"


def test_rs_polynomial_pinned_on_the_ladder():
    assert rs_digest(LADDER) == RS_LADDER_SHA256


def rs_text_digest(cases) -> str:
    """sha256 over a "k p" line and then, for the oracle polynomial and for
    paper_rs_hosoya in printed and in corrected mode, one "exponent
    coefficient" line per term of term_strings() and the render() line, for
    every case."""
    digest = hashlib.sha256()
    for k, p in cases:
        digest.update(f"{k} {p}\n".encode("utf-8"))
        polys = [rs_hosoya_polynomial(family_graph(k, p)),
                 *(paper_rs_hosoya(k, p, mode) for mode in ("printed", "corrected"))]
        for poly in polys:
            for exponent, count in poly.term_strings().items():
                digest.update(f"{exponent} {count}\n".encode("utf-8"))
            digest.update(f"{poly.render()}\n".encode("utf-8"))
    return digest.hexdigest()


# recorded while every exponent was a Fraction, before they were kept as
# integer numerators on one scale; CI checks RS_TEXT_FULL_SHA256 over every
# valid order
RS_TEXT_LADDER_SHA256 = "a9b5e5135d88822ad5eda903dd7f10cc4836ce4e04eb0e6520d0d69512bad8f1"
RS_TEXT_FULL_SHA256 = "5fff3a85f56baf0759e94e1ad5f789cf73374cf1f455fa2951202e87658dda0c"


def test_rs_text_pinned_on_the_ladder():
    assert rs_text_digest(LADDER) == RS_TEXT_LADDER_SHA256


@st.composite
def small_graphs(draw):
    """Random graphs on 1..12 vertices; half of them have vertex 0 joined to
    every vertex, as the identity of a power graph is."""
    n = draw(st.integers(1, 12))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    if draw(st.booleans()):
        edges |= {(0, v) for v in range(1, n)}
    return Graph.from_edges(n, sorted(edges))


@settings(max_examples=300, deadline=None)
@given(small_graphs())
def test_profile_matches_all_pairs_oracle(g):
    check_profile_against_oracle(g)


@pytest.mark.parametrize("g", [
    Graph.from_edges(1, []),
    Graph.from_edges(2, [(0, 1)]),
    complete_graph(7),
    star_graph(6),
    # vertex 3 is universal, vertex 0 is not
    Graph.from_edges(6, [(3, v) for v in range(6) if v != 3] + [(0, 1), (4, 5)]),
    build_power_graph(build_cyclic(12)),
    family_graph(2, 3),
], ids=["n1", "n2", "k7", "star", "universal-3", "z12", "family-2-3"])
def test_profile_fixed_cases(g):
    check_profile_against_oracle(g)


def check_profile_against_oracle(g):
    table = all_pairs_distances(g)
    ordered = [d for row in table for d in row]
    n = g.n
    reach = [d for d in ordered if d > 0]
    oracle_counts = (n, *(reach.count(d) // 2 for d in range(1, max(reach, default=0) + 1)))

    profile = distance_profile(g)
    assert profile.layers == tuple(tuple(row.count(d) for d in range(max(row) + 1))
                                   for row in table)
    dd = profile.distribution()
    assert dd.counts == oracle_counts
    assert dd.unreachable_pairs == ordered.count(-1) // 2
    assert wiener_index(g) == dd.wiener == sum(reach) // 2
    connected = -1 not in ordered
    assert diameter(g) == (max(reach, default=0) if connected else math.inf)

    for v in range(n):
        if -1 in table[v]:
            with pytest.raises(ValueError):
                reciprocal_status(g, v)
        else:
            assert reciprocal_status(g, v) == sum(
                (Fraction(1, d) for d in table[v] if d > 0), Fraction(0))
    if connected:
        rs = [sum((Fraction(1, d) for d in row if d > 0), Fraction(0)) for row in table]
        terms = {}
        for u, v in g.edges():
            terms[rs[u] + rs[v]] = terms.get(rs[u] + rs[v], 0) + 1
        assert rs_hosoya_polynomial(g).terms == terms
    else:
        with pytest.raises(ValueError):
            rs_hosoya_polynomial(g)
