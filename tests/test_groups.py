import pytest
from hypothesis import example, given, settings, strategies as st

from powg import (
    FamilyParams,
    FiniteGroup,
    GroupError,
    build_cyclic,
    build_family,
    build_power_graph,
    cyclic_subgroup,
    cyclic_subgroups,
    element_order,
    load_cayley_table,
    partition,
)
from powg import groups as groups_mod
from powg.groups import MAX_ORDER, _generators, _light_passes, _walk_starts
from conftest import cayley_text, explicit_rows, oracle_groups, relabelled, rows_text, \
    table_group
from oracles import reference_validate

# a magma with identity 0 in which 1 * 1 = 1, so no power of 1 is e
NON_GROUP = FiniteGroup(2, ((0, 1), (1, 1)), ("0", "1"))


def family(k, p):
    return build_family(FamilyParams(k, p))


def test_family_orders():
    assert family(2, 3).order == 24
    assert family(3, 3).order == 48
    assert family(2, 5).order == 40


def test_family_rejects_bad_params():
    for k, p in [(1, 3), (0, 3), (2, 2), (2, 4), (2, 9), (2, 1)]:
        with pytest.raises(ValueError):
            FamilyParams(k, p)


def test_family_relations():
    params = FamilyParams(2, 3)
    g = family(2, 3)
    r, s = 1, params.n_r
    assert g.power(r, params.n_r) == 0
    assert g.mult(s, s) == 0
    assert g.mult(g.mult(s, r), g.inverse(s)) == g.power(r, params.twist)


def family_table_by_definition(params):
    """The family's Cayley table entry by entry: (a1, b1) * (a2, b2) =
    (a1 + a2 * m^b1 mod 2^k p, b1 xor b2), encoded a + b * 2^k p."""
    n, m = params.n_r, params.twist
    table = []
    for idx1 in range(params.order):
        a1, b1 = idx1 % n, idx1 // n
        fac = m if b1 else 1
        row = []
        for idx2 in range(params.order):
            a2, b2 = idx2 % n, idx2 // n
            row.append((a1 + a2 * fac) % n + (b1 ^ b2) * n)
        table.append(tuple(row))
    return tuple(table)


def cyclic_table_by_definition(n):
    """The Cayley table of Z_n entry by entry: a * b = a + b mod n."""
    return tuple(tuple((a + b) % n for b in range(n)) for a in range(n))


@pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("p", [3, 5, 7])
def test_family_table_matches_definition(k, p):
    # the family has no table; its rule gives every entry of the definition
    params = FamilyParams(k, p)
    g = build_family(params)
    assert g.table is None
    assert tuple(map(tuple, explicit_rows(g))) == family_table_by_definition(params)


def power_graph_mismatches(cases) -> list[tuple[int, int]]:
    """The (k, p) at which the power graph walked on the family's product
    rule differs from the one walked on the table of family_table_by_definition
    (labels included)."""
    bad = []
    for k, p in cases:
        params = FamilyParams(k, p)
        g = build_family(params)
        by_table = FiniteGroup(g.order, family_table_by_definition(params), g.labels)
        if build_power_graph(g) != build_power_graph(by_table):
            bad.append((k, p))
    return bad


def test_power_graph_by_rule_equals_the_table_walk_on_the_ladder():
    ladder = [(k, p) for k in range(2, 7) for p in (3, 5, 7)]
    assert power_graph_mismatches(ladder) == []


def cyclic_power_graph_mismatches(orders) -> list[int]:
    """The N at which the power graph walked on the rule of Z_N differs from
    the one walked on the table of cyclic_table_by_definition (labels
    included)."""
    bad = []
    for n in orders:
        g = build_cyclic(n)
        by_table = FiniteGroup(n, cyclic_table_by_definition(n), g.labels)
        if build_power_graph(g) != build_power_graph(by_table):
            bad.append(n)
    return bad


def test_cyclic_power_graph_by_rule_equals_the_table_walk():
    assert build_cyclic(24).table is None and build_cyclic(MAX_ORDER).table is None
    assert cyclic_power_graph_mismatches([*range(1, 65), 210, 256, 1024]) == []


def test_a_group_needs_a_table_or_a_family():
    g, params = build_cyclic(24), FamilyParams(2, 3)
    message = "a group without a table needs its product rule"
    for build in (lambda: FiniteGroup(24, None, g.labels),
                  lambda: g._replace(rule=None),
                  lambda: FiniteGroup._make([24, None, g.labels, None]),
                  lambda: build_family(params)._replace(rule=None)):
        with pytest.raises(GroupError, match=message):
            build()


def test_a_group_has_the_order_of_its_rule_or_table():
    # 48 labels on the 24 elements of (2, 3) would give a power graph with
    # 24 vertices that are no group elements
    g, z = build_family(FamilyParams(2, 3)), build_cyclic(6)
    labels = tuple(map(str, range(48)))
    rule_message = r"^order 48 is neither n nor 2n for the rule \(12, 5\)$"
    for build in (lambda: FiniteGroup(48, None, labels, g.rule),
                  lambda: g._replace(order=48, labels=labels),
                  lambda: FiniteGroup._make([48, None, labels, g.rule])):
        with pytest.raises(GroupError, match=rule_message):
            build()
    with pytest.raises(GroupError, match=r"^order 3 is neither n nor 2n for the rule \(6, 1\)$"):
        z._replace(order=3, labels=z.labels[:3])
    assert z._replace(order=12, labels=labels[:12]).order == 12  # Z_6 x Z_2, a group
    rows = cyclic_table_by_definition(6)
    table_message = r"^order 5 but the table has 6 rows$"
    for build in (lambda: FiniteGroup(5, rows, z.labels[:5]),
                  lambda: table_group(rows)._replace(order=5, labels=z.labels[:5]),
                  lambda: FiniteGroup._make([5, rows, z.labels[:5], None])):
        with pytest.raises(GroupError, match=table_message):
            build()


def test_relations_reject_a_twist_that_is_no_involution(monkeypatch):
    # 3 is a unit mod 20, so the labels stay distinct, and the rule itself
    # reads the twist, so r^N = s^2 = e and s r s^-1 = r^3 hold
    monkeypatch.setattr(FamilyParams, "twist", property(lambda self: 3))
    with pytest.raises(GroupError, match=r"^twist exponent is not an involution mod 2\^k p$"):
        build_family(FamilyParams(2, 5))


@pytest.mark.parametrize("rule,message", [
    # b1 or b2 in place of b1 xor b2: s·s = s
    (lambda n, m, x, y: (x + y * (m if x >= n else 1)) % n + ((x >= n) | (y >= n)) * n,
     r"^family construction violates r\^\(2\^k p\) = s\^2 = e$"),
    # m^b1 dropped: the rule of Z_n x Z_2, in which s r s^-1 = r
    (lambda n, m, x, y: (x + y) % n + ((x >= n) ^ (y >= n)) * n,
     r"^family construction violates s r s\^-1 = r\^m$"),
])
def test_relations_reject_a_broken_rule(rule, message, monkeypatch):
    # r^N, s^2 and s r s^-1 involve the twist only through the rule, so
    # these two checks are reached by breaking the rule itself
    monkeypatch.setattr(groups_mod, "_family_product", rule)
    with pytest.raises(GroupError, match=message):
        build_family(FamilyParams(2, 5))


def test_rule_walk_steps_right_multiplication_as_the_table_walk_does(monkeypatch):
    # with twist 3 at (2, 5) the rule is no group: x·y and y·x differ for some
    # power y of x, yet every right-power walk still reaches e, and the walk on
    # the rule must take the same steps y -> y·x as the walk on its table
    monkeypatch.setattr(FamilyParams, "twist", property(lambda self: 3))
    params = FamilyParams(2, 5)
    labels = tuple(map(str, range(params.order)))
    g = FiniteGroup(params.order, None, labels, (params.n_r, params.twist))
    x = params.n_r + 1
    assert g.mult(x, g.mult(x, x)) != g.mult(g.mult(x, x), x)
    assert list(cyclic_subgroups(g)) == list(cyclic_subgroups(table_group(explicit_rows(g))))


def test_family_sr_squares_to_u():
    # (s·r)^2 = u, so s·r has order 4
    params = FamilyParams(2, 3)
    g = family(2, 3)
    sr = g.mult(params.n_r, 1)
    u = g.power(1, params.half)
    assert g.mult(sr, sr) == u
    assert element_order(g, sr) == 4


def test_build_cyclic():
    assert build_cyclic(1).order == 1
    g6 = build_cyclic(6)
    assert g6.order == 6
    assert element_order(g6, 1) == 6
    assert element_order(build_cyclic(12), 4) == 3
    with pytest.raises(ValueError):
        build_cyclic(0)


def test_element_order():
    g = family(2, 3)
    assert element_order(g, 0) == 1
    assert element_order(g, 12) == 2       # s
    assert element_order(g, g.mult(12, 1)) == 4  # s·r


def test_element_order_stops_on_non_group_table():
    with pytest.raises(GroupError, match="never reach the identity"):
        element_order(NON_GROUP, 1)


def test_cyclic_subgroup():
    g = family(2, 3)
    assert cyclic_subgroup(g, 0) == frozenset({0})
    assert cyclic_subgroup(build_cyclic(12), 4) == frozenset({0, 4, 8})
    sr = g.mult(12, 1)
    u = 6
    sr3 = g.mult(sr, g.mult(sr, sr))
    assert cyclic_subgroup(g, sr) == frozenset({0, sr, u, sr3})


def test_cyclic_subgroup_stops_on_non_group_table():
    with pytest.raises(GroupError, match="never reach the identity"):
        cyclic_subgroup(NON_GROUP, 1)


def test_cyclic_subgroups_walk_each_subgroup_once():
    for g in oracle_groups():
        generated = []
        for powers, generators in cyclic_subgroups(g):
            x = powers[0]
            assert powers == [g.power(x, t) for t in range(1, len(powers) + 1)]
            sub = cyclic_subgroup(g, x)
            assert set(powers) == sub and len(powers) == len(sub)
            assert generators == [y for y in powers if cyclic_subgroup(g, y) == sub]
            generated += generators
        assert sorted(generated) == list(g.elements()), g.order
    with pytest.raises(GroupError, match="powers of element 1 never reach the identity"):
        list(cyclic_subgroups(NON_GROUP))


@pytest.mark.parametrize("k,p,sizes", [(2, 3, (2, 10, 6, 6)), (2, 5, (2, 18, 10, 10))])
def test_partition_sizes(k, p, sizes):
    g = family(k, p)
    part = partition(g, FamilyParams(k, p))
    assert part.sizes() == sizes
    assert part.h0 | part.h1 | part.h2 | part.h3 == frozenset(range(g.order))
    assert sum(sizes) == g.order


def test_partition_partner_pairs():
    params = FamilyParams(2, 3)
    g = family(2, 3)
    part = partition(g, params)
    by_label = {g.labels[y]: (g.labels[y], g.labels[z]) for y, z in part.partner_pairs}
    assert by_label["s·r"] == ("s·r", "s·r^7")
    # z = y^3 and y^2 = u for every pair
    for y, z in part.partner_pairs:
        assert g.mult(y, y) == part.u
        assert g.mult(y, g.mult(y, y)) == z


def test_partition_requires_family_group():
    params = FamilyParams(2, 3)
    g = family(2, 3)
    for other in (build_cyclic(24), g._replace(order=12, labels=g.labels[:12]),
                  family(2, 5), g._replace(rule=(12, 1))):
        with pytest.raises(ValueError, match="not built by build_family with these parameters"):
            partition(other, params)


def test_identity_and_inverses():
    for g in (family(2, 3), build_cyclic(7)):
        for x in g.elements():
            assert g.mult(0, x) == x == g.mult(x, 0)
            assert g.mult(x, g.inverse(x)) == 0


def test_conjugation_by_s_is_involution():
    for k, p in [(2, 3), (2, 5), (3, 3)]:
        params = FamilyParams(k, p)
        g = family(k, p)
        s = params.n_r
        assert params.twist ** 2 % params.n_r == 1
        for x in g.elements():
            once = g.mult(g.mult(s, x), g.inverse(s))
            twice = g.mult(g.mult(s, once), g.inverse(s))
            assert twice == x


def test_lagrange_small_groups():
    groups = [build_cyclic(n) for n in range(1, 17)]
    groups += [family(2, 3), family(2, 5), family(3, 3)]
    for g in groups:
        for x in g.elements():
            assert g.order % element_order(g, x) == 0


@pytest.mark.parametrize("k,p", [(2, 3), (2, 5), (3, 3)])
def test_h2_order_two_and_h3_order_four(k, p):
    g = family(k, p)
    part = partition(g, FamilyParams(k, p))
    assert all(element_order(g, x) == 2 for x in part.h2)
    assert all(element_order(g, x) == 4 for x in part.h3)
    sizes = part.sizes()
    assert sizes == (2, FamilyParams(k, p).n_r - 2,
                     FamilyParams(k, p).half, FamilyParams(k, p).half)


def test_cayley_roundtrip_z4():
    g = load_cayley_table(cayley_text(build_cyclic(4)))
    assert g.order == 4
    assert element_order(g, 2) == 2


def test_cayley_roundtrip_z2_crlf_and_labels():
    text = "2\r\n0 1\r\n1 0\r\nlabel 0 e\r\nlabel 1 flip\r\n"
    g = load_cayley_table(text)
    assert g.order == 2
    assert g.labels == ("e", "flip")


def test_cayley_label_keeps_other_line_breaks():
    # str.splitlines would end a line at each of these
    g = load_cayley_table("2\n0 1\n1 0\nlabel 0 a\x85b\u2028c\x0cd\x1ce\r\n")
    assert g.labels == ("a\x85b\u2028c\x0cd\x1ce", "1")


def test_cayley_roundtrip_family():
    g = load_cayley_table(cayley_text(family(2, 3)))
    assert g.table == family_table_by_definition(FamilyParams(2, 3))


def test_cayley_rejects_non_associative():
    # identity and inverses hold, associativity fails at (1,1,2)
    text = "3\n0 1 2\n1 0 0\n2 0 1\n"
    with pytest.raises(GroupError) as exc:
        load_cayley_table(text)
    assert "associativity" in str(exc.value)
    assert "(" in str(exc.value)  # names a witness triple



def test_cayley_rejects_loop_that_passes_the_first_generator():
    # Z_3 x Q for a non-associative 5-element loop Q, index a + 3q: the first
    # generator (1, e) passes, so only a later generator can expose Q
    q = [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3], [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]]
    rows = [[(i + j) % 3 + 3 * q[i // 3][j // 3] for j in range(15)] for i in range(15)]
    with pytest.raises(GroupError, match=r"associativity fails at triple \(\d+, 3, \d+\)"):
        load_cayley_table(rows_text(rows))

def test_cayley_rejects_identity_elsewhere():
    # Z_2 with elements swapped: identity sits at index 1
    text = "2\n1 0\n0 1\n"
    with pytest.raises(GroupError) as exc:
        load_cayley_table(text)
    assert "index 1" in str(exc.value)


def test_cayley_exact_validation_at_order_130():
    g = load_cayley_table(cayley_text(build_cyclic(130)))
    assert g.table == cyclic_table_by_definition(130)
    # a corrupted cell that keeps identity and inverses intact
    rows = [list(r) for r in cyclic_table_by_definition(130)]
    rows[5][7] = (rows[5][7] + 1) % 130 or 1
    with pytest.raises(GroupError, match=r"associativity fails at triple \(\d+, \d+, \d+\)"):
        load_cayley_table(rows_text(rows))


FAMILY_PARAMS = [(k, p) for k in range(2, 9) for p in (3, 5, 7, 11, 13)
                 if (1 << (k + 1)) * p <= MAX_ORDER]


@st.composite
def corrupted_tables(draw):
    """A relabelled Z_n or family table (identity kept at 0) with one cell
    outside row 0 and column 0 changed; orders are log-uniform up to
    MAX_ORDER so large tables stay rare."""
    if draw(st.booleans()):
        bits = draw(st.integers(1, MAX_ORDER.bit_length() - 1))
        table = cyclic_table_by_definition(draw(st.integers(2, 1 << bits)))
    else:
        table = explicit_rows(build_family(FamilyParams(*draw(st.sampled_from(FAMILY_PARAMS)))))
    n = len(table)
    perm = [0] + draw(st.permutations(range(1, n)))
    rows = [[0] * n for _ in range(n)]
    for a, row in enumerate(table):
        out = rows[perm[a]]
        for b, ab in enumerate(row):
            out[perm[b]] = perm[ab]
    x, y = draw(st.integers(1, n - 1)), draw(st.integers(1, n - 1))
    rows[x][y] = (rows[x][y] + draw(st.integers(1, n - 1))) % n
    return rows


@settings(max_examples=40, deadline=None)
@given(corrupted_tables())
def test_single_cell_corruption_is_rejected_at_every_order(rows):
    # a changed cell breaks the Latin-square property, so no group remains
    with pytest.raises(GroupError):
        load_cayley_table(rows_text(rows))


def test_cayley_parse_errors():
    with pytest.raises(GroupError):
        load_cayley_table("")
    with pytest.raises(GroupError):
        load_cayley_table("2\n0 1\n")           # missing row
    with pytest.raises(GroupError):
        load_cayley_table("2\n0 1 1\n1 0\n")     # wrong row width
    with pytest.raises(GroupError):
        load_cayley_table("2\n0 7\n1 0\n")       # entry out of range
    with pytest.raises(GroupError):
        load_cayley_table("2\n0 x\n1 0\n")       # non-integer


# walks 1, 3, 0 and 2, 3, 5, 1, 4, 0: the longer walk starts at 2
LOOP_FAILING_ITS_LONGEST_WALK = [[0, 1, 2, 3, 4, 5], [1, 3, 4, 0, 5, 2], [2, 5, 3, 4, 0, 1],
                                 [3, 0, 5, 1, 2, 4], [4, 2, 0, 5, 1, 3], [5, 4, 1, 2, 3, 0]]


@pytest.mark.parametrize("text,message", [
    ("2\n0 1\n-1 0\n", "line 3: entry -1 out of range 0..1"),
    ("2\n0 2\n1 0\n", "line 2: entry 2 out of range 0..1"),
    ("3\n0 1 2\n1 2 0\n2 0 3\n", "line 4: entry 3 out of range 0..2"),
    ("2\n0 1\nx 0\n", "line 3: non-integer entry"),
    ("2\n0 1.0\n1 0\n", "line 2: non-integer entry"),
    # the whole row is read before its range is checked
    ("2\n0 1\n5 x\n", "line 3: non-integer entry"),
    ("3\n0 1 2\n1 0 2\n2 0 1\n", "element 2 has no left inverse"),
    ("3\n0 1 2\n1 0 0\n2 2 1\n", "element 2 has no right inverse"),
    # elements in index order, the right inverse before the left one
    ("3\n0 1 2\n1 1 0\n2 2 1\n", "element 1 has no left inverse"),
    ("3\n0 1 2\n1 1 2\n2 2 0\n", "element 1 has no right inverse"),
    # a monoid: it passes Light's test, but no power of 1 is 0
    ("2\n0 1\n1 1\n", "element 1 has no right inverse"),
    # a loop whose longest walk starts at 2, which fails Light's test; the
    # witness is still the first one in index order, at g = 1
    (rows_text(LOOP_FAILING_ITS_LONGEST_WALK),
     "associativity fails at triple (2, 1, 2): (2·1)·2 = 1 but 2·(1·2) = 0"),
    # blank lines are skipped but still counted in the line numbers
    ("2\n\n0 1\n1 0 0\n", "line 4: expected 2 entries, got 3"),
    ("\n\n2\n0 1\n1 0\nlabel 5 a\n", "line 6: label index 5 out of range"),
    ("\n\nx\n", "line 3: expected the order, got 'x'"),
    ("1\n1\n", "line 2: entry 1 out of range 0..0"),
    # only LF ends a line: a NEL inside a label does not
    ("1\n0\nlabel 0 a\x85b\nx\n", "line 4: expected 'label <index> <string>'"),
    # a second label for one index names both lines; it is not applied
    ("2\n0 1\n1 0\nlabel 1 x\nlabel 1 y\n", "line 5: index 1 already labelled on line 4"),
])
def test_cayley_error_messages_are_pinned(text, message):
    with pytest.raises(GroupError) as exc:
        load_cayley_table(text)
    assert str(exc.value) == message


def test_cayley_non_canonical_spellings_load_as_canonical():
    canonical = load_cayley_table("3\n0 1 2\n1 2 0\n2 0 1\nlabel 1 a\n")
    for text in ("3\n0 01 2\n+1 2 00\n2 -0 0_1\nlabel 1 a\n",
                 "3\n00 +1 02\n1 2 0\n2 0 1\nlabel 01 a\n",
                 "3\n0 1 2\n+1 2 00\n2 0 1\nlabel 1 a\n"):
        g = load_cayley_table(text)
        assert (g.order, g.table, g.labels) == (canonical.order, canonical.table,
                                                canonical.labels)


def test_cayley_order_one():
    # one key is a scalar to operator.itemgetter, so n = 1 reads its row apart
    for text in ("1\n0\n", "1\n00\n", "1\n+0\nlabel 0 e\n"):
        assert load_cayley_table(text).table == ((0,),)


@st.composite
def small_magmas(draw):
    """An n x n table, n <= 6, with row 0 and column 0 the identity's and
    every other cell drawn from 0..n-1."""
    n = draw(st.integers(1, 6))
    cells = iter(draw(st.lists(st.integers(0, n - 1), min_size=(n - 1) ** 2,
                               max_size=(n - 1) ** 2)))
    return [list(range(n))] + [[x] + [next(cells) for _ in range(n - 1)]
                               for x in range(1, n)]


@settings(max_examples=300, deadline=None)
@given(small_magmas())
@example([[0, 1, 2], [1, 2, 0], [2, 0, 1]])             # Z_3: accepted
@example([[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]])  # Klein four
@example([[0, 1, 2], [1, 0, 0], [2, 0, 0]])             # two 0s in a row, none missing
@example([[0, 1, 2], [1, 0, 2], [2, 0, 1]])             # a 0 in every row, not column
@example([[0, 1, 2], [1, 2, 1], [2, 0, 1]])             # a row with no 0
@example([[0, 1], [1, 1]])                               # a monoid: passes Light's test
@example([[0, 1, 2, 3], [1, 0, 2, 2], [2, 1, 1, 0], [3, 0, 0, 0]])  # walk 2, 1, 2, .. misses 0
@example(LOOP_FAILING_ITS_LONGEST_WALK)                 # index order names another witness
def test_validation_matches_the_per_element_oracle(rows):
    # the proof by walks and Light's test accepts and rejects exactly as the
    # per-element check did, and its slow path names the same first witness
    try:
        reference_validate(tuple(map(tuple, rows)))
        expected = None
    except GroupError as exc:
        expected = str(exc)
    try:
        g = load_cayley_table(rows_text(rows))
    except GroupError as exc:
        assert str(exc) == expected
    else:
        assert expected is None and g.table == tuple(map(tuple, rows))


@pytest.mark.parametrize("n", [2, 3, 12, 30, 64, 255, 256, 700, MAX_ORDER])
def test_walks_choose_one_generator_for_a_cyclic_table(n):
    # the generators the validator runs Light's test on: the walk of a
    # generator of Z_n is the longest, and it reaches every element
    for seed in (1, 2):
        table = relabelled(table_group(cyclic_table_by_definition(n)), seed).table
        gens = list(_generators(table, _walk_starts(table)))
        assert len(gens) == 1 and all(_light_passes(table, g) for g in gens)


@pytest.mark.parametrize("k,p", [(2, 3), (3, 7), (4, 5), (6, 7), (7, 3)])
def test_walks_choose_two_generators_for_a_family_table(k, p):
    # a generator of <r> walks longest; any element outside <r> completes it
    for seed in (1, 2):
        table = relabelled(family(k, p), seed).table
        gens = list(_generators(table, _walk_starts(table)))
        assert len(gens) == 2 and all(_light_passes(table, g) for g in gens)
