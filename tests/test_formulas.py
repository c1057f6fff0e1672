import hashlib
import itertools
import math
import operator
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from powg import (
    FamilyParams,
    Graph,
    MatchingEngine,
    brute_force_matchings,
    build_family,
    build_power_graph,
    paper_degree_claims,
    paper_edge_type_counts,
    paper_hosoya_coeffs,
    paper_hosoya_index,
    paper_rs_hosoya,
)
import powg.formulas
from powg.formulas import (
    FAMILY_TAGS,
    M5_ORDER_2_NOTE,
    MODES,
    FamilyTable,
    _chain_matchings,
    _clique_product,
    _cut_binomial_product,
    _family_table,
    family_matching_polynomial,
)
from powg.groups import MAX_ORDER, _is_odd_prime
import powg.matching
from powg.matching import _binomial_times, _convolve, _k_n_row, complete_graph_matchings


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


def family_rows(k, p, mode="printed"):
    """The family table of paper_hosoya_index keyed by (family, order)."""
    return {(row["family"], row["order"]): row for row in paper_hosoya_index(k, p, mode)[1]}


def family_count(family, i, k, p, mode="printed"):
    return family_rows(k, p, mode)[family, i]["count"]


def family_orders(family, k, p):
    return [i for fam, i in family_rows(k, p) if fam == family]


def test_family_term_examples():
    assert family_count("M2", 1, 2, 3) == 6
    assert family_count("M3", 1, 2, 3) == 12
    assert family_count("M3", 2, 2, 3) == 30
    assert family_count("M4", 2, 2, 3) == 3
    assert family_count("M7", 2, 2, 3) == 24
    assert family_count("M9", 2, 2, 3) == 36
    assert family_count("M10", 2, 2, 3) == 18


def test_family_terms_hand_checked():
    # spot values computed by hand from the displayed formulas at (2, 3)
    assert family_count("M1", 1, 2, 3) == 66
    assert family_count("M1", 2, 2, 3) == 1485
    assert family_count("M1", 3, 2, 3, "printed") == 27720
    assert family_count("M1", 3, 2, 3, "corrected") == 13860
    assert family_count("M5", 3, 2, 3) == 12 * 990 + 15 * 45
    assert family_count("M6", 2, 2, 3) == 66 * 3
    assert family_count("M8", 2, 2, 3) == 6 * 55
    assert family_count("M13", 3, 2, 3) == 36 * 2
    assert family_count("M13", 4, 2, 3) == 36
    assert family_count("M14", 3, 2, 3) == 72 * 45


def test_m5_order_two_flags_undefined_summand():
    row = family_rows(2, 3)["M5", 2]
    assert row["count"] == 12 * 55  # only the defined summand contributes
    assert row["note"] is not None and "undefined" in row["note"]
    # both modes agree at order 2, per the congruence rule for low orders
    assert family_count("M5", 2, 2, 3, "corrected") == row["count"]


def test_corrected_m1_matches_factorial_form():
    for k, p in [(2, 3), (2, 5), (3, 3)]:
        n = (1 << k) * p
        rows = family_rows(k, p, "corrected")
        assert family_orders("M1", k, p) == list(range(1, n // 2 + 1))
        for i in family_orders("M1", k, p):
            expected = math.factorial(n) // (
                math.factorial(i) * 2**i * math.factorial(n - 2 * i))
            assert rows["M1", i]["count"] == expected


def test_mode_congruence_where_deltas_inactive():
    printed, corrected = family_rows(2, 3, "printed"), family_rows(2, 3, "corrected")
    assert printed.keys() == corrected.keys()
    # families with no table-derived factor are mode-independent everywhere
    for fam in ("M2", "M3", "M4", "M7", "M9", "M10", "M13"):
        for key in [key for key in printed if key[0] == fam]:
            assert printed[key]["count"] == corrected[key]["count"]
    # table-backed families agree while every engaged factor has order <= 2
    assert printed["M8", 3]["count"] == corrected["M8", 3]["count"]
    assert printed["M8", 4]["count"] != corrected["M8", 4]["count"]


def test_out_of_range_orders_raise():
    rows = family_rows(2, 3)
    assert ("M2", 2) not in rows
    assert ("M1", 7) not in rows
    assert ("M15", 3) not in rows
    assert all(family != "M99" for family, _ in rows)


def test_family_orders_2_3():
    assert family_orders("M1", 2, 3) == [1, 2, 3, 4, 5, 6]
    assert family_orders("M7", 2, 3) == [2]
    assert family_orders("M7", 2, 5) == [2, 3, 4]
    assert family_orders("M11", 2, 3) == list(range(3, 10))
    assert family_orders("M15", 2, 3) == list(range(4, 10))


def test_assembly_totals():
    for mode in ("printed", "corrected"):
        total, rows = paper_hosoya_index(2, 3, mode)
        assert total == 1 + sum(row["count"] for row in rows)
        assert [row["family"] for row in rows] == sorted(
            (row["family"] for row in rows), key=FAMILY_TAGS.index)
        assert {row["family"] for row in rows} == set(FAMILY_TAGS)
        assert len({(row["family"], row["order"]) for row in rows}) == len(rows)
        assert all(list(row) == ["family", "order", "count", "note"] for row in rows)
        assert all(row["count"] >= 0 for row in rows)
    # deterministic across repeated evaluation
    assert paper_hosoya_index(2, 3, "printed") == paper_hosoya_index(2, 3, "printed")


def test_assembly_notes_only_m5_order_two():
    _, rows = paper_hosoya_index(2, 3, "printed")
    noted = [(row["family"], row["order"]) for row in rows if row["note"]]
    assert noted == [("M5", 2)]


def test_family_table_keeps_the_row_contract():
    families = _family_table(FamilyParams(2, 3), "printed")
    total, table = paper_hosoya_index(2, 3, "printed")
    rows = list(table)
    assert len(table) == len(rows) == sum(len(orders) for orders, _ in families.values())
    assert all(list(row) == ["family", "order", "count", "note"] for row in rows)
    assert [row["count"] for row in rows] == [c for _, counts in families.values() for c in counts]
    assert [row["order"] for row in rows if row["family"] == "M5"] == list(families["M5"][0])
    assert [row["note"] for row in rows].count(M5_ORDER_2_NOTE) == 1
    assert table == FamilyTable(families) == paper_hosoya_index(2, 3, "printed")[1]
    assert table != paper_hosoya_index(2, 3, "corrected")[1]  # same layout, other counts
    assert table.layout == paper_hosoya_index(2, 3, "corrected")[1].layout
    assert table != paper_hosoya_index(2, 5, "printed")[1]
    orders, counts = families["M9"]
    changed = FamilyTable({**families, "M9": (orders, [counts[0] + 1])})
    assert table != changed and len(changed) == len(table)


@pytest.mark.parametrize("family", ["M1", "M5", "M15"])
def test_family_table_rejects_a_count_list_one_short(family):
    families = _family_table(FamilyParams(2, 5), "corrected")
    orders, counts = families[family]
    with pytest.raises(ValueError):
        FamilyTable({**families, family: (orders, counts[:-1])})
    with pytest.raises(ValueError):
        FamilyTable({**families, family: (orders, counts + [0])})


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
                line = f"{k} {p} {mode} {t['family']} {t['order']} {t['count']} {t['note']}\n"
                digest.update(line.encode("utf-8"))
    assert digest.hexdigest() == ASSEMBLY_SHA256


def _family_graph(k, p):
    return build_power_graph(build_family(FamilyParams(k, p)))


SMALL_CASES = [(k, p) for k in range(2, 8) for p in range(3, 80, 2)
               if _is_odd_prime(p) and (2 << k) * p <= 160]
LADDER = [(k, p) for k in range(2, 7) for p in (3, 5, 7)]


def family_table_digest(cases) -> str:
    """sha256 over a "k p mode total" line and then one "family order count
    note" line per term of paper_hosoya_index, for every case in both modes."""
    digest = hashlib.sha256()
    for k, p in cases:
        for mode in MODES:
            total, rows = paper_hosoya_index(k, p, mode)
            digest.update(f"{k} {p} {mode} {total}\n".encode("utf-8"))
            for t in rows:
                line = f"{t['family']} {t['order']} {t['count']} {t['note']}\n"
                digest.update(line.encode("utf-8"))
    return digest.hexdigest()


def arithmetic_count_digest(cases) -> str:
    """sha256 over one "k p m_0 m_1 ..." line of family_matching_polynomial
    per case."""
    digest = hashlib.sha256()
    for k, p in cases:
        line = f"{k} {p} {' '.join(map(str, family_matching_polynomial(k, p)))}\n"
        digest.update(line.encode("utf-8"))
    return digest.hexdigest()


# recorded from the six-convolution table, before m12 and m11_p were derived
# by Pascal's rule; CI checks FULL_TABLE_SHA256 over every valid order
LADDER_TABLE_SHA256 = "b796015716b7486d2f97daa034d6a62288ab8b784148b97a07798b31549c86a3"
FULL_TABLE_SHA256 = "88b43622f7c7b731bf279c7d9a06d367558507878dc9ba7a7cc80c3bb913f675"
VALID_CASES = [(k, p) for k in range(2, 10) for p in range(3, 257, 2)
               if _is_odd_prime(p) and (2 << k) * p <= MAX_ORDER]


def test_family_table_pinned_on_the_ladder():
    assert len(VALID_CASES) == 66
    assert family_table_digest(LADDER) == LADDER_TABLE_SHA256


# recorded from the count that expanded at u and evaluated the chain 2k times;
# CI checks ARITHMETIC_FULL_SHA256 over every valid order
ARITHMETIC_LADDER_SHA256 = "7d766d65e9a2af3e1b20539d126301a58257c1fb65e78a52405e391bc8e3d06a"
ARITHMETIC_FULL_SHA256 = "67ec64d9637fab3e7a735efb91b7823a2da883dd781083a37812f87656a75caa"


def test_arithmetic_count_pinned_on_the_ladder():
    assert arithmetic_count_digest(LADDER) == ARITHMETIC_LADDER_SHA256


def binomial_product(row, power):
    """row * (1 + x)^power by a direct convolution with the binomial row."""
    return _convolve(row, [math.comb(power, j) for j in range(power + 1)])


@pytest.mark.parametrize("k,p", LADDER)
def test_pascal_rows_equal_direct_convolutions(k, p):
    # the five T (1 + x)^l that _family_table takes from whole-row passes
    # below RECURRENCE_MIN_QUARTER: m6 over T(n), m11_n and m12 over T(n-1),
    # m11_q and m11_p over T(n-2)
    params = FamilyParams(k, p)
    n, q = params.n_r, params.quarter
    for mode in MODES:
        for m, powers in ((n, (q,)), (n - 1, (q - 1, q)), (n - 2, (q - 2, q - 1))):
            t_row = [0, *_k_n_row(m, mode)[1:]]
            for power in powers:
                assert _binomial_times(t_row, power) == binomial_product(t_row, power), \
                    (m, power, mode)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(-10 ** 30, 10 ** 30), min_size=1, max_size=12), st.integers(0, 12))
def test_binomial_times_on_random_rows(row, power):
    before = list(row)
    assert _binomial_times(row, power) == binomial_product(row, power)
    assert row == before  # the input row is left as it was


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(MODES), st.integers(0, 80), st.integers(0, 60), st.integers(1, 70))
@example("printed", 0, 5, 3)
@example("corrected", 1, 5, 3)
@example("printed", 40, 7, 20)  # cut > n: the whole row (1 + x)^n
@example("corrected", 40, 7, 8)  # cut = n + 1, where c = 0 too
@example("printed", 41, 60, 1)  # b = 1
def test_recurrence_kernel_equals_the_convolution(mode, m, n, cut):
    expected = _convolve(list(_k_n_row(m, mode)),
                         [math.comb(n, j) for j in range(min(cut, n + 1))])
    assert _cut_binomial_product(m, mode, n, cut) == expected


def kernel_grid_mismatches(top: int) -> list[tuple[str, int, int, int]]:
    """The (mode, m, n, cut) with m, n <= top and 1 <= cut <= n + 2 where the
    recurrence kernel differs from the convolution of the full K_m row with
    the cut binomial row; CI runs it at top = 40."""
    return [(mode, m, n, cut) for mode in MODES for m in range(top + 1)
            for n in range(top + 1) for cut in range(1, n + 3)
            if _cut_binomial_product(m, mode, n, cut)
            != _convolve(list(_k_n_row(m, mode)),
                         [math.comb(n, j) for j in range(min(cut, n + 1))])]


def _derivative(poly):
    return [j * c for j, c in enumerate(poly)][1:]


def _combine(*terms):
    """The sum of c x^s poly over the (c, s, poly) terms."""
    total = [0] * max(s + len(poly) for _, s, poly in terms)
    for c, s, poly in terms:
        for j, a in enumerate(poly):
            total[s + j] += c * a
    return total


def test_k_n_rows_solve_their_differential_equations():
    # the premise of the recurrence kernel, checked coefficient by coefficient
    for m in range(151):
        t = list(_k_n_row(m, "corrected"))
        t1 = _derivative(t)
        t2 = _derivative(t1)
        # 4x^2 t'' - ((4m - 6)x + 2) t' + m(m - 1) t = 0
        assert not any(_combine((4, 2, t2), (6 - 4 * m, 1, t1), (-2, 0, t1),
                                (m * (m - 1), 0, t))), m
        t = list(_k_n_row(m, "printed"))
        t1 = _derivative(t)
        t2 = _derivative(t1)
        t3 = _derivative(t2)
        # 4x^3 t''' + (14 - 4m) x^2 t'' + ((m - 2)(m - 3)x - 2) t' + m(m - 1) = 0
        assert not any(_combine((4, 3, t3), (14 - 4 * m, 2, t2), ((m - 2) * (m - 3), 1, t1),
                                (-2, 0, t1), (m * (m - 1), 0, [1]))), m


def test_k_n_rows_follow_the_clique_recurrence():
    # K_n = K_(n-1) + (n-1) x D(K_(n-2)), the premise of _clique_product: D is
    # the identity in corrected mode, and theta = x d/dx plus the constant 1 in
    # printed mode, whose entry j is (j-1)! times the corrected one
    for n in range(3, 401):
        for mode in MODES:
            row = list(_k_n_row(n - 2, mode))
            if mode == "printed":
                row = _combine((1, 0, [j * c for j, c in enumerate(row)]), (1, 0, [1]))
            assert _combine((1, 0, _k_n_row(n - 1, mode)), (n - 1, 1, row)) == \
                list(_k_n_row(n, mode)), (n, mode)


def _zeroed(row):
    return [0, *row[1:]]


@pytest.mark.parametrize("k,p", LADDER)
def test_clique_product_equals_the_convolution_on_either_path(k, p):
    # m6 = T(n) (1 + x)^q from m12 and m11_p, each taken as _family_table
    # takes it below RECURRENCE_MIN_QUARTER (passes) and from it on (kernel)
    params = FamilyParams(k, p)
    n, q = params.n_r, params.quarter
    for mode in MODES:
        t_n, t_n1, t_n2 = (_zeroed(_k_n_row(m, mode)) for m in (n, n - 1, n - 2))
        by_kernel = [list(map(operator.sub, _cut_binomial_product(m, mode, power, power + 1),
                              [math.comb(power, j) for j in range(power + 1)] + [0] * m))
                     for m, power in ((n - 1, q - 1), (n - 2, q - 2))]
        for m11_n, m11_q in ((_binomial_times(t_n1, q - 1), _binomial_times(t_n2, q - 2)),
                             by_kernel):
            m12, m11_p = _binomial_times(m11_n, 1), _binomial_times(m11_q, 1)
            assert _clique_product(m12, m11_p, n, q, mode) == binomial_product(t_n, q), mode


def test_both_mode_checks_raise_one_message():
    assert powg.formulas.MODES is powg.matching.MODES == ("printed", "corrected")
    message = "unknown mode 'x' (expected 'printed' or 'corrected')"
    for call in (lambda: complete_graph_matchings(4, 1, "x"), lambda: paper_rs_hosoya(2, 3, "x"),
                 lambda: paper_hosoya_index(2, 3, "x")):
        with pytest.raises(ValueError) as info:
            call()
        assert str(info.value) == message


def kernel_product_mismatches(cases) -> list[tuple[int, int, str, str]]:
    """The (k, p, mode, product) where a product t b of the recurrence kernel
    differs from the (1 + x) passes or the convolution that _family_table
    takes below RECURRENCE_MIN_QUARTER; called directly, so every q is
    checked.  t is the full K_m row.  Also "m6 clique", where the m6 that
    _family_table derives from m12 and m11_p by the clique recurrence
    differs from T(n) (1 + x)^q by passes, T the row with index 0 set to 0."""
    bad = []
    for k, p in cases:
        params = FamilyParams(k, p)
        n, q = params.n_r, params.quarter
        for mode in MODES:
            t_n, t_n1, t_n2 = (list(_k_n_row(m, mode)) for m in (n, n - 1, n - 2))
            cut_row = [math.comb(n - 1, j) for j in range(q)]
            m12, m11_p = _binomial_times(_zeroed(t_n1), q), _binomial_times(_zeroed(t_n2), q - 1)
            pairs = {"m6": (_cut_binomial_product(n, mode, q, q + 1), _binomial_times(t_n, q)),
                     "m6 clique": (_clique_product(m12, m11_p, n, q, mode),
                                   _binomial_times(_zeroed(t_n), q)),
                     "m11_n": (_cut_binomial_product(n - 1, mode, q - 1, q),
                               _binomial_times(t_n1, q - 1)),
                     "m11_q": (_cut_binomial_product(n - 2, mode, q - 2, q - 1),
                               _binomial_times(t_n2, q - 2)),
                     "m15": (_cut_binomial_product(n - 2, mode, n - 1, q),
                             _convolve(t_n2, cut_row))}
            bad += [(k, p, mode, name) for name, (got, want) in pairs.items() if got != want]
    return bad


@pytest.mark.parametrize("k,p", LADDER)
def test_kernel_products_equal_the_pascal_rows(k, p):
    assert kernel_product_mismatches([(k, p)]) == []
    params = FamilyParams(k, p)
    n, q = params.n_r, params.quarter
    for mode in MODES:
        for m, power in ((n, q), (n - 1, q - 1), (n - 2, q - 2)):
            t_row = list(_k_n_row(m, mode))
            row = _cut_binomial_product(m, mode, power, power + 1)
            assert row == binomial_product(t_row, power)
            # m12 and m11_p: one more (1 + x) step
            assert _binomial_times(row, 1) == binomial_product(t_row, power + 1)


@pytest.mark.parametrize("q_min", [0, 1 << 30])
def test_family_table_pinned_on_the_ladder_by_either_path(q_min, monkeypatch):
    monkeypatch.setattr(powg.formulas, "RECURRENCE_MIN_QUARTER", q_min)
    assert family_table_digest(LADDER) == LADDER_TABLE_SHA256


def test_recurrence_kernel_raises_on_an_inexact_division(monkeypatch):
    # a row that solves neither differential equation leaves a remainder,
    # which raises and is never rounded
    monkeypatch.setattr(powg.formulas, "_k_n_row", lambda m, mode: (1, 1, 1))
    for mode in MODES:
        with pytest.raises(ValueError, match=f"non-integral division in the {mode} recurrence"):
            _cut_binomial_product(5, mode, 3, 4)


def engine_count_mismatches(cases) -> list[tuple[int, int]]:
    """The cases where MatchingEngine on the family graph and
    family_matching_polynomial disagree; CI runs it on every valid order."""
    return [(k, p) for k, p in cases
            if list(MatchingEngine(_family_graph(k, p)).run().coeffs)
            != family_matching_polynomial(k, p)]


def test_arithmetic_count_equals_the_engine_up_to_order_160():
    assert len(SMALL_CASES) == 12
    assert engine_count_mismatches(SMALL_CASES) == []


def test_arithmetic_count_equals_the_engine_on_the_ladder():
    assert engine_count_mismatches(LADDER) == []


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
        assert poly == list(brute_force_matchings(_chain_graph(xs, ys, gens)).coeffs), \
            (xs, ys, gens)
        checked += 1
    assert checked == 2541
