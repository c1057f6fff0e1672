import pytest
from hypothesis import given, settings, strategies as st

from powg import (
    FamilyParams,
    FiniteGroup,
    GroupError,
    build_cyclic,
    build_family,
    cyclic_subgroup,
    element_order,
    load_cayley_table,
    partition,
)
from powg.groups import MAX_ORDER

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


@pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("p", [3, 5, 7])
def test_family_table_matches_definition(k, p):
    params = FamilyParams(k, p)
    assert build_family(params).table == family_table_by_definition(params)


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
    with pytest.raises(ValueError):
        partition(build_cyclic(24), FamilyParams(2, 3))


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


def rows_text(rows) -> str:
    return "\n".join([str(len(rows))] + [" ".join(map(str, r)) for r in rows]) + "\n"


def cayley_text(g) -> str:
    return rows_text(g.table)


def test_cayley_roundtrip_z4():
    g = load_cayley_table(cayley_text(build_cyclic(4)))
    assert g.order == 4
    assert element_order(g, 2) == 2


def test_cayley_roundtrip_z2_crlf_and_labels():
    text = "2\r\n0 1\r\n1 0\r\nlabel 0 e\r\nlabel 1 flip\r\n"
    g = load_cayley_table(text)
    assert g.order == 2
    assert g.labels == ("e", "flip")


def test_cayley_roundtrip_family():
    g0 = family(2, 3)
    g = load_cayley_table(cayley_text(g0))
    assert g.table == g0.table


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
    assert g.table == build_cyclic(130).table
    # a corrupted cell that keeps identity and inverses intact
    rows = [list(r) for r in build_cyclic(130).table]
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
        g = build_cyclic(draw(st.integers(2, 1 << bits)))
    else:
        g = build_family(FamilyParams(*draw(st.sampled_from(FAMILY_PARAMS))))
    n = g.order
    perm = [0] + draw(st.permutations(range(1, n)))
    rows = [[0] * n for _ in range(n)]
    for a, row in enumerate(g.table):
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
