"""Numeric evaluators for the published closed forms on the family's power
graph: distance-distribution coefficients, reciprocal-status edge polynomial,
degree and edge-type claims, and the full matching-count assembly over the
fifteen matching families.

Every evaluator takes a mode:

* "printed" reproduces the text exactly, including the 1/i factor in the
  complete-graph matching table and the transmission-sum exponent
  3*2^k p - 2 for the pendant edges;
* "corrected" applies only the two deltas the published derivation itself
  implies: the table factor becomes 1/i!, and the pendant-edge exponent
  becomes 3*2^k p - 1.

Where a displayed formula is undefined at a requested order (the 1/(i-2)
factor at i = 2), the summand contributes zero and the row's note says so;
values are never rounded or silently repaired.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction

from .distance import RationalExponentPolynomial
from .groups import FamilyParams
from .matching import _add_into, _add_universal, _convolve, _k_n_row

MODES = ("printed", "corrected")

FAMILY_TAGS = tuple(f"M{j}" for j in range(1, 16))


def _check_mode(mode: str) -> None:
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r} (expected 'printed' or 'corrected')")


def paper_hosoya_coeffs(k: int, p: int) -> tuple[int, int, int]:
    """Distance-distribution coefficients (dis0, dis1, dis2) as published."""
    params = FamilyParams(k, p)
    n = params.n_r
    dis0 = 2 * n
    dis1 = n * n // 2 + 5 * p * (1 << (k - 2))
    dis2 = 3 * n * n // 2 - 9 * p * (1 << (k - 2))
    return (dis0, dis1, dis2)


def paper_degree_claims(k: int, p: int) -> dict[str, int]:
    """Published per-class degrees in the family power graph."""
    params = FamilyParams(k, p)
    n = params.n_r
    return {
        "e": 2 * n - 1,
        "u": 3 * params.half - 1,
        "h1": n - 1,
        "h2": 1,
        "h3": 3,
    }


def paper_edge_type_counts(k: int, p: int) -> dict[str, int]:
    """Published counts of the seven edge kinds."""
    params = FamilyParams(k, p)
    n = params.n_r
    return {
        "eu": 1,
        "eh1": n - 2,
        "eh2": params.half,
        "eh3": params.half,
        "uh3": params.half,
        "vw": (n - 2) * (n - 3) // 2,
        "yz": params.quarter,
    }


def paper_rs_hosoya(k: int, p: int, mode: str = "printed") -> RationalExponentPolynomial:
    """Published reciprocal-status edge polynomial.

    In corrected mode the pendant-edge exponent moves from 3*2^k p - 2
    (which collides with the within-<r> term) to 3*2^k p - 1.
    """
    _check_mode(mode)
    params = FamilyParams(k, p)
    n = params.n_r
    half, quarter = params.half, params.quarter

    eh2_exp = 3 * n - 2 if mode == "printed" else 3 * n - 1
    terms: dict[Fraction, int] = {}

    def add(exp: int, coeff: int) -> None:
        key = Fraction(exp)
        terms[key] = terms.get(key, 0) + coeff

    add(15 * quarter - 2, 1)                      # e-u
    add(7 * half - 2, n - 2)                      # e-h1
    add(eh2_exp, half)                            # e-h2
    add(3 * n, half)                              # e-h3
    add(11 * quarter, half)                       # u-h3
    add(3 * n - 2, (n - 2) * (n - 3) // 2)        # within H1
    add(2 * n + 2, quarter)                       # partner pairs
    return RationalExponentPolynomial(terms)


def _family_table(params: FamilyParams, mode: str) -> dict[str, tuple[range, list[int]]]:
    """The stated order range and the counts M_family^i over it of every
    family, exactly as displayed, in the order M1..M15; q is the quarter.

    T(m) is the tabled K_m row and B(l) the row of C(l, j), both with index
    0 set to 0, so each nested sum over j of T(m, j) C(l, i - j) with j >= 1
    and i - j >= 1 is coefficient i of their product.  The five products
    with a whole binomial row come from one Pascal chain per T row: m6 from
    T(n), m11_n and m12 from T(n-1), m11_q and m11_p from T(n-2).  Only m15,
    whose row is cut off at q, is a convolution.  Each count list sums
    slices of these rows, each scaled by one map(c.__mul__) and added by one
    map(operator.add); a trailing 0 is an order past the end of a row (K_m
    has at most m // 2 edges).
    """
    n, half, q = params.n_r, params.half, params.quarter
    t_n, t_n1, t_n2 = ([0, *_k_n_row(m, mode)[1:]] for m in (n, n - 1, n - 2))

    def comb(m: int, lo: int, hi: int) -> list[int]:  # C(m, lo .. hi - 1)
        return [math.comb(m, j) for j in range(lo, hi)]

    def lin(*terms) -> list[int]:  # the sum of c * row over the (c, row) terms
        (c, row), *rest = terms
        total = map(c.__mul__, row)
        for c, row in rest:
            total = map(operator.add, total, map(c.__mul__, row))
        return list(total)

    (m6,) = _pascal_chain(t_n, q)
    m11_n, m12 = _pascal_chain(t_n1, q - 1, q)
    m11_q, m11_p = _pascal_chain(t_n2, q - 2, q - 1)
    # printed as C(2^k p - 1, m) but cut off beyond q - 1
    m15 = _convolve(t_n2, [0, *comb(n - 1, 1, q)])
    m4 = comb(q, 1, q + 1)
    pairs = half * (half - 1) // 2
    return {
        "M1": (range(1, half + 1), t_n[1:]),
        "M2": (range(1, 2), [half]),
        "M3": (range(1, 3), [n, half * (half - 1)]),
        "M4": (range(1, q + 1), m4),
        # the second summand's 1/(i-2) factor is undefined at i = 2, where
        # T(n-2)[0] = 0 makes it contribute 0 (the row carries a note)
        "M5": (range(2, half + 2), lin((n, t_n1[1:] + [0]), (pairs, t_n2))),
        "M6": (range(2, 3 * q + 1), m6[2:]),
        # the statement lists the order-2 term separately, then 3..q-1
        "M7": (range(2, q), [n * (q - 1)] + lin(
            (n, comb(q - 1, 2, q - 1)),
            (2 * q, comb(q - 1, 1, q - 2)),
            (half * (half - 2), comb(q - 2, 1, q - 2)))),
        "M8": (range(2, half + 1), lin((half, t_n1[1:]))),
        "M9": (range(2, 3), [half * half]),
        "M10": (range(2, q + 2), lin((half, m4))),
        # at the top order 3q only the last summand is printed: the middle
        # one, half T(n-2, half-1) and not zero, is left out as displayed
        "M11": (range(3, 3 * q + 1), lin(
            (n, m11_n[2:]), (half, m11_p[1:-1]), (half * (half - 1), m11_q[1:])) + [0]),
        "M12": (range(3, 3 * q + 1), lin((half, m12[2:]))),
        "M13": (range(3, q + 2), lin((half * half, comb(q - 1, 1, q)))),
        "M14": (range(3, half + 2), lin((half * n, t_n2[1:]))),
        "M15": (range(4, 3 * q + 1), lin((half * n, m15[2:]))),
    }


def _pascal_chain(t_row: list[int], *powers: int) -> list[list[int]]:
    """conv(T, B(l)) for each of the ascending powers l, where B(l) is the
    binomial row [0, C(l, 1), ..., C(l, l)] = (1 + x)^l - 1: T (1 + x)^l - T,
    multiplying T by (1 + x) once per power by one whole-row pass of big-int
    additions, cheaper than the products of a convolution."""
    rows, row, done = [], t_row, 0
    for power in powers:
        for _ in range(done, power):
            row = list(map(operator.add, [0, *row], [*row, 0]))
        done = power
        rows.append(list(map(operator.sub, row, t_row)) + row[len(t_row):])
    return rows


M5_ORDER_2_NOTE = \
    "second summand undefined as displayed at order 2 (1/(i-2) factor); contributed 0"


def paper_hosoya_index(k: int, p: int, mode: str = "printed") -> tuple[int, list[dict]]:
    """Assemble the published total matching count: 1 plus the sum of every
    family count over the stated ranges.  Returns the total and one row per
    (family, order), the family table as the report writes it: a dict with
    the keys "family", "order", "count" and "note" (None except on M5 at
    order 2), in that order."""
    _check_mode(mode)
    families = _family_table(FamilyParams(k, p), mode)
    rows = [{"family": family, "order": i, "count": count, "note": None}
            for family, (orders, counts) in families.items()
            for i, count in zip(orders, counts, strict=True)]
    # M5 opens at order 2, after the rows of M1..M4
    rows[sum(len(families[family][1]) for family in FAMILY_TAGS[:4])]["note"] = M5_ORDER_2_NOTE
    total = 1 + sum(sum(counts) for _, counts in families.values())
    return total, rows


def family_matching_polynomial(k: int, p: int) -> list[int]:
    """Matching polynomial m_0, m_1, ... of the family's power graph from
    (k, p) alone, by order arithmetic: no table, graph or partition is read,
    so it is a structurally different check on the matching engines.

    With N = 2^k p: e is universal, the N/2 involutions s r^(2j) hang at e,
    and the N/4 pairs {y, y^3} of order 4 are K2s joined to u = r^(N/2).
    P(Z_N) - e is the phi(N) generators joined to two cliques: X holds the
    orders 2^a (a >= 1), Y the orders p 2^b (b < k), and p 2^b sees 2^a when
    a <= b.  u has order 2, so it is X level 1 and the pairs are all of G - e
    outside the chain: u is matched to none of the N/2 pair vertices, leaving
    P(Z_N) - e, or to one of them, leaving P(Z_N) - {e, u}.
    """
    params = FamilyParams(k, p)
    n_r, q = params.n_r, params.quarter
    phi2 = [1] + [1 << (a - 1) for a in range(1, k + 1)]  # phi(2^a)
    gens = phi2[k] * (p - 1)  # phi(N)
    ys = [phi2[b] * (p - 1) for b in range(k)]  # Y level b: order p 2^b
    # X level a: the elements of order 2^a, without e, with and without u
    with_u = _chain_matchings([0, *phi2[1:]], ys, gens)
    without_u = _chain_matchings([0, 0, *phi2[2:]], ys, gens)
    # a pair that u is not matched into is unmatched or matched along its edge
    m = _convolve([math.comb(q, j) for j in range(q + 1)], with_u)
    _add_into(m, _convolve([math.comb(q - 1, j) for j in range(q)], without_u), n_r // 2, 1)
    return _add_universal(m, 2 * n_r - 1, 1)  # e joins G - e


def _chain_matchings(xs: list[int], ys: list[int], gens: int = 0) -> list[int]:
    """Matching polynomial of gens universal vertices joined to two cliques,
    with xs[a] X vertices at level a and ys[b] Y vertices at level b, where
    level b of Y sees the X levels a <= b.  The cross edges are a Ferrers
    board with the heights h sorted level by level; its rook numbers take
    r_t += (h - t + 1) r_(t-1) per column (Goldman, Joichi and White, "Rook
    theory I", 1975).  t rooks leave cliques of |X| - t and |Y| - t
    vertices, so before the gens join, m = sum_t r_t x^t K(|X|-t) K(|Y|-t)."""
    rooks = [1]
    for b, size in enumerate(ys):
        height = sum(xs[:b + 1])
        for _ in range(size):
            rooks = [r + (height - t + 1) * rooks[t - 1] if t else r
                     for t, r in enumerate(rooks + [0])]
            if rooks[-1] == 0:
                rooks.pop()
    nx, ny = sum(xs), sum(ys)
    poly: list[int] = []
    for t, r in enumerate(rooks):
        _add_into(poly, _convolve(_k_n_row(nx - t, "corrected"),
                                  _k_n_row(ny - t, "corrected")), r, t)
    return _add_universal(poly, nx + ny, gens)

