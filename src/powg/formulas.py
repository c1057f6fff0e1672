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
from itertools import accumulate

from .distance import RationalExponentPolynomial
from .groups import FamilyParams
from .matching import (
    MODES,
    _add_into,
    _add_universal,
    _binomial_times,
    _check_mode,
    _convolve,
    _ferrers_rooks,
    _k_n_row,
)

FAMILY_TAGS = tuple(f"M{j}" for j in range(1, 16))


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
    terms: dict[int, int] = {}

    def add(exp: int, coeff: int) -> None:
        terms[exp] = terms.get(exp, 0) + coeff

    add(15 * quarter - 2, 1)                      # e-u
    add(7 * half - 2, n - 2)                      # e-h1
    add(eh2_exp, half)                            # e-h2
    add(3 * n, half)                              # e-h3
    add(11 * quarter, half)                       # u-h3
    add(3 * n - 2, (n - 2) * (n - 3) // 2)        # within H1
    add(2 * n + 2, quarter)                       # partner pairs
    return RationalExponentPolynomial.from_scaled(1, terms)  # integer exponents


def _family_table(params: FamilyParams, mode: str) -> dict[str, tuple[range, list[int]]]:
    """The stated order range and the counts M_family^i over it of every
    family, exactly as displayed, in the order M1..M15; q is the quarter.

    T(m) is the tabled K_m row and B(l) the row of C(l, j), both with index
    0 set to 0, so each nested sum over j of T(m, j) C(l, i - j) with j >= 1
    and i - j >= 1 is coefficient i of their product: m6 over T(n) and
    B(q), m11_n and m12 over T(n-1) and B(q-1), B(q), m11_q and m11_p over
    T(n-2) and B(q-2), B(q-1), and m15 over T(n-2) and B(n-1) cut off at
    q.  Each count list sums slices of these rows, each scaled by one
    map(c.__mul__) and added by one map(operator.add); a trailing 0 is an
    order past the end of a row (K_m has at most m // 2 edges).

    Every product is first taken as T b, where b is the binomial row with
    index 0 kept (b = 1 + B), and then zeroed once: T B = T b - T.  For a
    whole row b = (1 + x)^l, so m12 and m11_p are one (1 + x) step of the
    engine's _binomial_times on the T b of m11_n and m11_q, and m6 follows
    from those two by the clique recurrence K_n = K_(n-1) + (n-1) x K_(n-2)
    (Farrell, "An introduction to matching polynomials", 1979).  Printed
    mode tables T(n, j) = (j-1)! K_n[j], so there T(n) = T(n-1) + (n-1) x
    (theta T(n-2) + 1), with theta = x d/dx, and theta(T) b = theta(T b) -
    q x T (1 + x)^(q-1); with b = (1 + x)^q,
        corrected: T(n) b = m12 + (n-1) x ((1 + x) m11_p + b),
        printed:   T(n) b = m12 + (n-1) x (theta((1 + x) m11_p) - q x m11_p + b).
    The three other T b (m11_n, m11_q, m15) are read off coefficient
    recurrences as t b - b (_cut_binomial_product, with t the full K_m row,
    t_0 = 1), O(n) big-int operations: t solves
        corrected: 4x^2 t'' - ((4m-6)x + 2) t' + m(m-1) t = 0,
        printed:   4x^3 t''' + (14-4m) x^2 t'' + ((m-2)(m-3)x - 2) t' + m(m-1) = 0,
    and the cut row b = sum_(j<cut) C(N, j) x^j solves
        (1 + x) b' = N b - c x^(cut-1),  c = (N - cut + 1) C(N, cut - 1),
    and a product of D-finite series is D-finite (Stanley, "Differentiably
    finite power series", 1980).
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

    def by_recurrence(m: int, power: int, cut: int) -> list[int]:  # T b = t b - b
        u = _cut_binomial_product(m, mode, power, cut)
        u[:cut] = map(operator.sub, u, comb(power, 0, cut))  # cut <= power + 1 here
        return u

    # m15's row is printed as C(2^k p - 1, m) but cut off beyond q - 1
    m11_n, m11_q = by_recurrence(n - 1, q - 1, q), by_recurrence(n - 2, q - 2, q - 1)
    m15 = by_recurrence(n - 2, n - 1, q)
    m12, m11_p = _binomial_times(m11_n, 1), _binomial_times(m11_q, 1)
    m6 = _clique_product(m12, m11_p, n, q, mode)
    m6, m11_n, m12, m11_q, m11_p, m15 = (
        list(map(operator.sub, u, t)) + u[len(t):] for u, t in (
            (m6, t_n), (m11_n, t_n1), (m12, t_n1), (m11_q, t_n2), (m11_p, t_n2), (m15, t_n2)))
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


def _clique_product(m12: list[int], m11_p: list[int], n: int, q: int, mode: str) -> list[int]:
    """T(n) (1 + x)^q from m12 = T(n-1) (1 + x)^q and m11_p = T(n-2)
    (1 + x)^(q-1), where T(m) is the mode's tabled K_m row with index 0 set
    to 0 and n is even, by the clique recurrence as _family_table states it:
    m12 + (n-1) x d, d by mode."""
    d = _binomial_times(m11_p, 1)
    if mode == "printed":
        d = list(map(operator.mul, range(len(d)), d))  # theta
        d[1:] = map(operator.sub, d[1:], map(q.__mul__, m11_p))
    d[:q + 1] = map(operator.add, d, [math.comb(q, j) for j in range(q + 1)])
    return [0, *map(operator.add, m12[1:] + [0], map((n - 1).__mul__, d))]


def _cut_binomial_product(m: int, mode: str, n: int, cut: int) -> list[int]:
    """u = t b, where t is the mode's full K_m row (t_0 = 1) and b the cut
    binomial row sum_(j<cut) C(n, j) x^j (cut >= 1), read off the coefficient
    recurrences that the differential equations of t and b (see
    _family_table) give for u, y = t' b and, in printed mode, z = t'' b.
    With c = (n - cut + 1) C(n, cut - 1), t_j = 0 off the row and
    y_(-1) = z_(-1) = z_(-2) = 0, from u_0 = 1 and y_0 = t_1, each k takes
    the u step of b's equation, the same in both modes,
        u_(k+1) = ((n-k) u_k + y_k + y_(k-1) - c t_(k+1-cut)) / (k+1),
    then the y step of t's equation, which alone (with printed z) depends on mode:
      corrected:
        y_(k+1) = ((4k+4-4m) y_k + (4k+2-4m-4n) y_(k-1) + m(m-1)(u_(k+1) + u_k)
                   + 4c (k+1-cut) t_(k+1-cut)) / 2;
      printed:
        y_(k+1) = ((4k+10-4m) z_(k-1) + (4k+6-4m-4n) z_(k-2)
                   + (m-2)(m-3)(y_k + y_(k-1)) - 2 y_k + m(m-1)(b_(k+1) + b_k)
                   + 4c (k+1-cut)(k-cut) t_(k+1-cut)) / 2,
        z_k = (k+1) y_(k+1) + (k-n) y_k - z_(k-1) + c (k+2-cut) t_(k+2-cut).
    Every division is checked exact; a remainder raises ValueError.
    """
    t = _k_n_row(m, mode)
    width = min(cut, n + 1)  # of b
    size = len(t) + width - 1
    c = (n - cut + 1) * math.comb(n, cut - 1)  # 0 when cut > n
    ct = [0] * (size + 2)  # ct[k + 1] = c t_(k+1-cut)
    if c:
        ct[cut:cut + len(t)] = [c * tj for tj in t]
    printed = mode == "printed"
    if printed:
        b = [0] * (size + 1)
        b[:width] = [math.comb(n, j) for j in range(width)]
    u = [1] * size
    uk, y0, y1 = 1, 0, t[1] if len(t) > 1 else 0  # u_k, y_(k-1), y_k
    z1 = z2 = 0  # z_(k-1), z_(k-2)
    mm, m23 = m * (m - 1), (m - 2) * (m - 3)
    for k in range(size - 1):
        un, ru = divmod((n - k) * uk + y1 + y0 - ct[k + 1], k + 1)
        if printed:
            yn, ry = divmod((4 * k + 10 - 4 * m) * z1 + (4 * k + 6 - 4 * m - 4 * n) * z2
                            + m23 * (y1 + y0) - 2 * y1 + mm * (b[k + 1] + b[k])
                            + 4 * (k + 1 - cut) * (k - cut) * ct[k + 1], 2)
            z2, z1 = z1, (k + 1) * yn + (k - n) * y1 - z1 + (k + 2 - cut) * ct[k + 2]
        else:
            yn, ry = divmod((4 * k + 4 - 4 * m) * y1 + (4 * k + 2 - 4 * m - 4 * n) * y0
                            + mm * (un + uk) + 4 * (k + 1 - cut) * ct[k + 1], 2)
        if ru or ry:
            raise ValueError(f"non-integral division in the {mode} recurrence for "
                             f"K_{m} times C({n}, j < {cut})")
        u[k + 1] = uk = un
        y0, y1 = y1, yn
    return u


M5_ORDER_2_NOTE = \
    "second summand undefined as displayed at order 2 (1/(i-2) factor); contributed 0"


def paper_hosoya_index(k: int, p: int, mode: str = "printed") -> tuple[int, list[dict]]:
    """Assemble the published total matching count: 1 plus the sum of every
    family count over the stated ranges.  Returns the total and the family
    rows, which paper eval prints row by row: one dict with the keys
    "family", "order", "count" and "note" per family and order, M1..M15.
    The note is M5_ORDER_2_NOTE at ("M5", 2) and None elsewhere; a count
    list that does not fit its family's orders raises ValueError."""
    _check_mode(mode)
    rows = [{"family": family, "order": i, "count": count,
             "note": M5_ORDER_2_NOTE if family == "M5" and i == 2 else None}
            for family, (orders, counts) in _family_table(FamilyParams(k, p), mode).items()
            for i, count in zip(orders, counts, strict=True)]
    return 1 + sum(row["count"] for row in rows), rows


def paper_family_sums(k: int, p: int, mode: str = "printed") -> dict[str, int]:
    """The sum of each family's displayed counts, M1..M15, with no row built:
    a family's sum is its polynomial at x = 1.  Every row of _family_table
    that holds a product T B has count 0 at orders 0 and 1, so its slice
    sums to the product of the two rows' sums.  With S(m) = sum(T(m)), the
    mode's K_m row less its index 0, b(l) = 2^l - 1 = sum(B(l)), top the
    last count of T(n-2), which M11's middle summand leaves out, and
    C(m, lo..hi) the sum of C(m, j) over lo <= j <= hi:
        M1 = S(n), M2 = half, M3 = n + half(half-1), M4 = b(q),
        M5 = n S(n-1) + pairs S(n-2), M6 = S(n) b(q),
        M7 = n(q-1) + n C(q-1, 2..q-2) + 2q C(q-1, 1..q-3)
             + half(half-2) C(q-2, 1..q-3),
        M8 = half S(n-1), M9 = half^2, M10 = half b(q),
        M11 = n S(n-1) b(q-1) + half (S(n-2) b(q-1) - top)
              + half(half-1) S(n-2) b(q-2),
        M12 = half S(n-1) b(q), M13 = half^2 b(q-1), M14 = half n S(n-2),
        M15 = half n S(n-2) C(n-1, 1..q-1).
    """
    _check_mode(mode)
    params = FamilyParams(k, p)
    n, half, q = params.n_r, params.half, params.quarter
    s_n, s_n1, s_n2 = (sum(_k_n_row(m, mode)) - 1 for m in (n, n - 1, n - 2))
    top = _k_n_row(n - 2, mode)[-1]
    b_q, b_q1, b_q2 = ((1 << l) - 1 for l in (q, q - 1, q - 2))

    def comb(m: int, lo: int, hi: int) -> int:  # C(m, lo..hi)
        return sum(math.comb(m, j) for j in range(lo, hi + 1))

    return dict(zip(FAMILY_TAGS, [
        s_n, half, n + half * (half - 1), b_q,
        n * s_n1 + half * (half - 1) // 2 * s_n2, s_n * b_q,
        n * (q - 1) + n * comb(q - 1, 2, q - 2) + 2 * q * comb(q - 1, 1, q - 3)
        + half * (half - 2) * comb(q - 2, 1, q - 3),
        half * s_n1, half * half, half * b_q,
        n * s_n1 * b_q1 + half * (s_n2 * b_q1 - top) + half * (half - 1) * s_n2 * b_q2,
        half * s_n1 * b_q, half * half * b_q1, half * n * s_n2,
        half * n * s_n2 * comb(n - 1, 1, q - 1),
    ]))


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
    m = _binomial_times(with_u, q)
    _add_into(m, _binomial_times(without_u, q - 1), n_r // 2, 1)
    return _add_universal(m, 2 * n_r - 1, 1)  # e joins G - e


def _chain_matchings(xs: list[int], ys: list[int], gens: int = 0) -> list[int]:
    """Matching polynomial of gens universal vertices joined to two cliques,
    with xs[a] X vertices at level a and ys[b] Y vertices at level b, where
    level b of Y sees the X levels a <= b.  The cross edges are a Ferrers
    board whose columns, level by level, have the heights xs[0] + .. + xs[b].
    t rooks on it leave cliques of |X| - t and |Y| - t vertices, so before
    the gens join, m = sum_t r_t x^t K(|X|-t) K(|Y|-t)."""
    heights = (h for h, size in zip(accumulate(xs), ys) for _ in range(size))
    nx, ny = sum(xs), sum(ys)
    poly: list[int] = []
    for t, r in enumerate(_ferrers_rooks(heights)):
        _add_into(poly, _convolve(_k_n_row(nx - t, "corrected"),
                                  _k_n_row(ny - t, "corrected")), r, t)
    return _add_universal(poly, nx + ny, gens)
