import os
import random
from itertools import repeat
from pathlib import Path

import powg
from powg import FamilyParams, FiniteGroup, Graph, build_cyclic, build_family, \
    load_cayley_table

# CLI tests spawn `python -m powg`; let the child import the package under test
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [str(Path(powg.__file__).parents[1]), os.environ.get("PYTHONPATH")]))


def complete_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def random_graph(rng: random.Random, n: int, density: float = 0.4) -> Graph:
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < density]
    return Graph.from_edges(n, edges)


def explicit_rows(g: FiniteGroup) -> list[list[int]]:
    """The multiplication table of g, row a holding a·b, read from g.mult, so
    that a built-in group (Z_n or the family), which has no table, gets one
    too.  A test that needs Z_n's table by definition takes it from
    test_groups.cyclic_table_by_definition instead."""
    n = g.order
    return [list(map(g.mult, repeat(a, n), range(n))) for a in range(n)]


def relabelled(g: FiniteGroup, seed: int) -> FiniteGroup:
    """Copy of g under a seeded random permutation of its indices fixing 0."""
    n = g.order
    rest = list(range(1, n))
    random.Random(seed).shuffle(rest)
    perm = [0] + rest
    rows = [[0] * n for _ in range(n)]
    for a, row in enumerate(g.table or explicit_rows(g)):
        for b, ab in enumerate(row):
            rows[perm[a]][perm[b]] = perm[ab]
    return table_group(rows)


def table_group(rows) -> FiniteGroup:
    n = len(rows)
    return FiniteGroup(n, tuple(map(tuple, rows)), tuple(str(i) for i in range(n)))


def cyclic_product(m: int, n: int) -> FiniteGroup:
    """Z_m x Z_n on indices a * n + b."""
    return table_group([[(a + c) % m * n + (b + d) % n for c in range(m) for d in range(n)]
                        for a in range(m) for b in range(n)])


def elementary_abelian_2(k: int) -> FiniteGroup:
    """(Z_2)^k on bit vectors: the product is xor."""
    return table_group([[a ^ b for b in range(1 << k)] for a in range(1 << k)])


def rows_text(rows) -> str:
    """Cayley-table file text for the given rows."""
    return "\n".join([str(len(rows))] + [" ".join(map(str, r)) for r in rows]) + "\n"


def cayley_text(g: FiniteGroup) -> str:
    return rows_text(explicit_rows(g))


def ingest_tables() -> list[FiniteGroup]:
    """sdl(3,7), Z_256 and sdl(4,5), relabelled and loaded from Cayley text,
    as a table-file user would give them."""
    groups = [build_family(FamilyParams(3, 7)), build_cyclic(256),
              build_family(FamilyParams(4, 5))]
    return [load_cayley_table(cayley_text(relabelled(g, seed)))
            for seed, g in enumerate(groups, start=1)]


def oracle_groups() -> list[FiniteGroup]:
    """Groups on which the power graph and the element orders are checked
    against their per-element definitions."""
    groups = [build_cyclic(n) for n in range(1, 31)]
    groups += [build_family(FamilyParams(k, p)) for k, p in [(2, 3), (2, 5), (3, 3)]]
    groups += [relabelled(build_cyclic(n), n) for n in (2, 12, 30, 64)]
    groups += [relabelled(build_family(FamilyParams(k, p)), k * p) for k, p in [(2, 3), (3, 5)]]
    groups += [cyclic_product(m, n) for m, n in [(2, 3), (3, 4), (2, 2), (2, 4), (4, 6), (3, 9)]]
    groups += [relabelled(cyclic_product(4, 6), 7)]
    groups += [elementary_abelian_2(k) for k in range(1, 6)]
    groups += ingest_tables()
    return groups
