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
