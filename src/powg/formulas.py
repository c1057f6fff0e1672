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
factor at i = 2), the summand contributes zero and the returned term carries
a note; values are never rounded or silently repaired.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction

from .distance import RationalExponentPolynomial
from .groups import FamilyParams
from .matching import _convolve, _k_n_row

MODES = ("printed", "corrected")

FAMILY_TAGS = tuple(f"M{j}" for j in range(1, 16))


def _check_mode(mode: str) -> None:
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r} (expected 'printed' or 'corrected')")


@dataclass(frozen=True)
class MatchingFamilyTerm:
    """One per-family, per-order count in the matching-count assembly."""

    family: str
    order: int
    count: int
    note: str | None = None


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


def _family_ranges(params: FamilyParams) -> dict[str, range]:
    half, quarter = params.half, params.quarter
    return {
        "M1": range(1, half + 1),
        "M2": range(1, 2),
        "M3": range(1, 3),
        "M4": range(1, quarter + 1),
        "M5": range(2, half + 2),
        "M6": range(2, 3 * quarter + 1),
        # the statement lists the order-2 term separately, then 3..quarter-1
        "M7": range(2, quarter),
        "M8": range(2, half + 1),
        "M9": range(2, 3),
        "M10": range(2, quarter + 2),
        "M11": range(3, 3 * quarter + 1),
        "M12": range(3, 3 * quarter + 1),
        "M13": range(3, quarter + 2),
        "M14": range(3, half + 2),
        "M15": range(4, 3 * quarter + 1),
    }


def _family_counts(params: FamilyParams, mode: str) -> dict[str, Callable[[int], int]]:
    """The count expression M_family^i of every family, exactly as displayed.

    T(m) is the tabled K_m row and B(l) the row of C(l, j); both have index 0
    set to 0, so each nested sum over j of T(m, j) C(l, i - j) with j >= 1 and
    i - j >= 1 is coefficient i of their convolution, taken once per case.
    Indexing past the end of a row reads 0: K_m hosts at most m // 2 edges.
    """
    n, half, quarter = params.n_r, params.half, params.quarter
    t_n, t_n1, t_n2 = ([0, *_k_n_row(m, mode)[1:]] for m in (n, n - 1, n - 2))

    def conv(t_row: list[int], top: int, stop: int) -> list[int]:
        return _convolve(t_row, [0] + [math.comb(top, j) for j in range(1, stop)])

    def at(row: list[int], i: int) -> int:
        return row[i] if i < len(row) else 0

    m6 = conv(t_n, quarter, quarter + 1)
    m11_n = conv(t_n1, quarter - 1, quarter)
    m11_p = conv(t_n2, quarter - 1, quarter)
    m11_q = conv(t_n2, quarter - 2, quarter - 1)
    m12 = conv(t_n1, quarter, quarter + 1)
    # printed as C(2^k p - 1, m) but cut off beyond quarter - 1
    m15 = conv(t_n2, n - 1, quarter)
    pairs = half * (half - 1) // 2
    return {
        "M1": lambda i: t_n[i],
        "M2": lambda i: half,
        "M3": lambda i: n if i == 1 else half * (half - 1),
        "M4": lambda i: math.comb(quarter, i),
        # the second summand's 1/(i-2) factor is undefined at i = 2, where
        # T(n-2)[0] = 0 makes it contribute 0 (the term carries a note)
        "M5": lambda i: n * at(t_n1, i - 1) + pairs * t_n2[i - 2],
        "M6": lambda i: m6[i],
        "M7": lambda i: n * (quarter - 1) if i == 2 else (
            n * math.comb(quarter - 1, i - 1) + 2 * quarter * math.comb(quarter - 1, i - 2)
            + half * (half - 2) * math.comb(quarter - 2, i - 2)),
        "M8": lambda i: half * t_n1[i - 1],
        "M9": lambda i: half * half,
        "M10": lambda i: half * math.comb(quarter, i - 1),
        # the top order 3q is printed with the last summand alone; the middle
        # one is half T(n-2, half-1) there, not zero, so the omission changes
        # the count and is reproduced as displayed
        "M11": lambda i: (n * at(m11_n, i - 1)
                          + (half * m11_p[i - 2] if i < 3 * quarter else 0)
                          + half * (half - 1) * at(m11_q, i - 2)),
        "M12": lambda i: half * m12[i - 1],
        "M13": lambda i: half * half * math.comb(quarter - 1, i - 2),
        "M14": lambda i: half * n * t_n2[i - 2],
        "M15": lambda i: half * n * m15[i - 2],
    }


def _term(family: str, i: int, count: int) -> MatchingFamilyTerm:
    note = None
    if (family, i) == ("M5", 2):
        note = "second summand undefined as displayed at order 2 (1/(i-2) factor); contributed 0"
    return MatchingFamilyTerm(family, i, count, note)


def family_orders(family: str, k: int, p: int) -> list[int]:
    """The orders the assembly sums for one family, per the stated ranges."""
    r = _family_ranges(FamilyParams(k, p)).get(family)
    if r is None:
        raise ValueError(f"unknown matching family {family!r}")
    return list(r)


def eval_matching_family(family: str, i: int, k: int, p: int,
                         mode: str = "printed") -> MatchingFamilyTerm:
    """Evaluate one family count M_family^i exactly as displayed.

    Raises ValueError when (family, i) falls outside the stated summation
    range for these parameters.
    """
    _check_mode(mode)
    params = FamilyParams(k, p)
    if i not in family_orders(family, k, p):
        raise ValueError(f"order {i} outside the stated range of {family} at (k={k}, p={p})")
    return _term(family, i, _family_counts(params, mode)[family](i))


def paper_hosoya_index(k: int, p: int, mode: str = "printed"
                       ) -> tuple[int, list[MatchingFamilyTerm]]:
    """Assemble the published total matching count: 1 plus the sum of every
    family term over the stated ranges.  Returns the total and the full
    per-term breakdown."""
    _check_mode(mode)
    params = FamilyParams(k, p)
    ranges, counts = _family_ranges(params), _family_counts(params, mode)
    terms = [_term(family, i, counts[family](i))
             for family in FAMILY_TAGS for i in ranges[family]]
    total = 1 + sum(t.count for t in terms)
    return total, terms


def family_matching_polynomial(k: int, p: int) -> list[int]:
    """Matching polynomial m_0, m_1, ... of the family's power graph from
    (k, p) alone, by order arithmetic: no table, graph or partition is read,
    so it is a structurally different check on the matching engines.

    With N = 2^k p: e is universal, the N/2 involutions s r^(2j) hang at e,
    and the N/4 pairs {y, y^3} of order 4 are K2s joined to u = r^(N/2).
    Q = P(Z_N) - {e, u} is the phi(N) generators joined to two cliques: X
    holds the orders 2^a (a >= 2), Y the orders p 2^b (b < k), and p 2^b
    sees 2^a when a <= b.  Expand at u, which sees the even orders of Q.
    """
    params = FamilyParams(k, p)
    n_r, q = params.n_r, params.quarter
    phi2 = [1] + [1 << (a - 1) for a in range(1, k + 1)]  # phi(2^a)
    gens = phi2[k] * (p - 1)  # phi(N)
    xs = [0, 0] + phi2[2:]  # X level a: the elements of order 2^a
    ys = [phi2[b] * (p - 1) for b in range(k)]  # Y level b: order p 2^b
    m_q = _chain_matchings(xs, ys, gens)
    # the sum of m(Q - w) over the neighbours w of u, one term per order
    s = [gens * c for c in _chain_matchings(xs, ys, gens - 1)]
    for a in range(2, k + 1):
        _add_into(s, _chain_matchings([c - (j == a) for j, c in enumerate(xs)], ys, gens), xs[a])
    for b in range(1, k):
        _add_into(s, _chain_matchings(xs, [c - (j == b) for j, c in enumerate(ys)], gens), ys[b])
    # u unmatched, matched to one of the N/2 pair vertices, or matched into Q
    binom = [math.comb(q, j) for j in range(q + 1)]
    m = _convolve(binom, m_q)
    _add_into(m, _convolve([math.comb(q - 1, j) for j in range(q)], m_q), n_r // 2, 1)
    _add_into(m, _convolve(binom, s), 1, 1)
    m = _add_universal(m, 2 * n_r - 1, 1)  # e joins G - e
    while m[-1] == 0:
        m.pop()
    return m


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


def _add_universal(poly: list[int], n: int, count: int) -> list[int]:
    """Matching polynomial after count universal vertices join a graph on n
    vertices, one at a time: m_i(G + w) = m_i(G) + (n - 2i + 2) m_(i-1)(G)."""
    poly = list(poly)
    for size in range(n, n + count):
        poly.append(0)
        for i in range(len(poly) - 1, 0, -1):
            poly[i] += (size - 2 * i + 2) * poly[i - 1]
    return poly


def _add_into(total: list[int], row: list[int], weight: int, shift: int = 0) -> None:
    """total += weight * x^shift * row, extending total as needed."""
    total.extend([0] * (len(row) + shift - len(total)))
    for i, c in enumerate(row):
        total[i + shift] += weight * c
