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
from dataclasses import dataclass
from fractions import Fraction

from .distance import RationalExponentPolynomial
from .groups import FamilyParams
from .matching import _k_n_row

MODES = ("printed", "corrected")

FAMILY_TAGS = tuple(f"M{j}" for j in range(1, 16))


def _check_mode(mode: str) -> None:
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r} (expected 'printed' or 'corrected')")


def _binom(n: int, k: int) -> int:
    if k < 0 or n < 0 or k > n:
        return 0
    return math.comb(n, k)


def _table_count(n: int, j: int, mode: str) -> int:
    """Matchings of order j >= 1 in K_n per the tabled closed form; zero
    once the order exceeds what n vertices can host (zero-extension)."""
    if j < 1:
        raise ValueError("table factor requires order >= 1; order 0 is handled by callers")
    return _k_n_row(n, mode)[j] if 2 * j <= n else 0


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
        "M8": range(2, half + 1),
        "M9": range(2, 3),
        "M10": range(2, quarter + 2),
        "M11": range(3, 3 * quarter + 1),
        "M12": range(3, 3 * quarter + 1),
        "M13": range(3, quarter + 2),
        "M14": range(3, half + 2),
        "M15": range(4, 3 * quarter + 1),
    }


def family_orders(family: str, k: int, p: int) -> list[int]:
    """The orders the assembly sums for one family, per the stated ranges."""
    params = FamilyParams(k, p)
    quarter = params.quarter
    if family == "M7":
        # the statement lists the order-2 term separately, then 3..quarter-1
        return [2] + list(range(3, quarter))
    r = _family_ranges(params).get(family)
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

    n = params.n_r
    half, quarter = params.half, params.quarter
    note = None

    if family == "M1":
        count = _table_count(n, i, mode)

    elif family == "M2":
        count = half

    elif family == "M3":
        count = n if i == 1 else half * (half - 1)

    elif family == "M4":
        count = _binom(quarter, i)

    elif family == "M5":
        if i <= half:
            count = n * _table_count(n - 1, i - 1, mode)
            if i == 2:
                note = ("second summand undefined as displayed at order 2 "
                        "(1/(i-2) factor); contributed 0")
            else:
                count += half * (half - 1) // 2 * _table_count(n - 2, i - 2, mode)
        else:  # boundary order half + 1
            count = half * (half - 1) // 2 * _table_count(n - 2, half - 1, mode)

    elif family == "M6":
        count = sum(
            _table_count(n, j, mode) * _binom(quarter, i - j)
            for j in range(1, i)
        )

    elif family == "M7":
        if i == 2:
            count = n * (quarter - 1)
        else:
            count = (n * _binom(quarter - 1, i - 1)
                     + 2 * quarter * _binom(quarter - 1, i - 2)
                     + half * (half - 2) * _binom(quarter - 2, i - 2))

    elif family == "M8":
        count = half * _table_count(n - 1, i - 1, mode)

    elif family == "M9":
        count = half * half

    elif family == "M10":
        count = half * _binom(quarter, i - 1)

    elif family == "M11":
        def n_case(order: int) -> int:
            return sum(
                n * _table_count(n - 1, j, mode) * _binom(quarter - 1, order - j - 1)
                for j in range(1, order - 1)
            )

        def p_case(order: int) -> int:
            return sum(
                half * _table_count(n - 2, j, mode) * _binom(quarter - 1, order - j - 2)
                for j in range(1, order - 2)
            )

        def q_case(order: int) -> int:
            return sum(
                half * (half - 1) * _table_count(n - 2, j, mode)
                * _binom(quarter - 2, order - j - 2)
                for j in range(1, order - 2)
            )

        top = 3 * quarter
        if i == 3:
            count = n_case(3)
        elif i == top:
            count = q_case(top)
        else:
            count = n_case(i) + p_case(i) + q_case(i)

    elif family == "M12":
        count = sum(
            half * _table_count(n - 1, j, mode) * _binom(quarter, i - j - 1)
            for j in range(1, i - 1)
        )

    elif family == "M13":
        count = half * half * _binom(quarter - 1, i - 2)

    elif family == "M14":
        count = half * n * _table_count(n - 2, i - 2, mode)

    elif family == "M15":
        def u_factor(m_ord: int) -> int:
            # printed as C(2^k p - 1, m) but cut off beyond quarter - 1
            if m_ord > quarter - 1:
                return 0
            return _binom(n - 1, m_ord)

        count = sum(
            half * n * _table_count(n - 2, j, mode) * u_factor(i - j - 2)
            for j in range(1, i - 2)
        )

    else:
        raise ValueError(f"unknown matching family {family!r}")

    return MatchingFamilyTerm(family, i, count, note)


def paper_hosoya_index(k: int, p: int, mode: str = "printed"
                       ) -> tuple[int, list[MatchingFamilyTerm]]:
    """Assemble the published total matching count: 1 plus the sum of every
    family term over the stated ranges.  Returns the total and the full
    per-term breakdown."""
    _check_mode(mode)
    FamilyParams(k, p)
    terms: list[MatchingFamilyTerm] = []
    for family in FAMILY_TAGS:
        for i in family_orders(family, k, p):
            terms.append(eval_matching_family(family, i, k, p, mode))
    total = 1 + sum(t.count for t in terms)
    return total, terms
