"""Finite groups on one product rule, or as explicit multiplication tables.

Elements are indices 0..order-1 with the identity fixed at index 0.
The built-in two-generator family is

    <r, s | r^(2^k p) = s^2 = e,  s r s^-1 = r^(2^(k-1) p - 1)>

of order 2^(k+1) p for k >= 2 and p an odd prime, realized on pairs
(a, b) with a in Z_(2^k p), b in {0, 1}, encoded as index a + b * 2^k p,
so <r> is the index prefix 0..2^k p - 1.  Z_N is the same rule at (N, 1).
"""

from __future__ import annotations

import math
import operator
from collections import namedtuple
from collections.abc import Iterable, Iterator

# Only Cayley files are n x n tables; built-in groups keep the cap until it is split.
MAX_ORDER = 1024


class GroupError(ValueError):
    """Input does not define a group; the message names the broken axiom."""


def _is_odd_prime(p: int) -> bool:
    if p < 3 or p % 2 == 0:
        return False
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


class FamilyParams(namedtuple("FamilyParams", "k p")):
    """Parameters (k, p) of the built-in family: k >= 2, p an odd prime."""

    __slots__ = ()

    def __new__(cls, k: int, p: int) -> FamilyParams:
        if not isinstance(k, int) or k < 2:
            raise ValueError(f"k must be an integer >= 2, got {k!r}")
        if not isinstance(p, int) or not _is_odd_prime(p):
            raise ValueError(f"p must be an odd prime, got {p!r}")
        self = super().__new__(cls, k, p)
        if self.order > MAX_ORDER:
            raise ValueError(
                f"group order 2^(k+1)*p = {self.order} exceeds the supported "
                f"exact-table size ({MAX_ORDER})"
            )
        return self

    @classmethod
    def _make(cls, iterable) -> FamilyParams:  # so _replace validates too
        return cls(*iterable)

    @property
    def n_r(self) -> int:
        """Order 2^k p of the cyclic part <r>."""
        return (1 << self.k) * self.p

    @property
    def order(self) -> int:
        return 2 * self.n_r

    @property
    def half(self) -> int:
        """2^(k-1) p, the exponent of the central involution u = r^half."""
        return self.n_r // 2

    @property
    def quarter(self) -> int:
        """2^(k-2) p, the number of partner pairs."""
        return self.n_r // 4

    @property
    def twist(self) -> int:
        """Conjugation exponent m = 2^(k-1) p - 1 (s r s^-1 = r^m)."""
        return self.half - 1


def _family_product(n: int, m: int, x: int, y: int) -> int:
    """x·y on indices a + b n of the group with |<r>| = n and twist m."""
    return (x + y * (m if x >= n else 1)) % n + ((x >= n) ^ (y >= n)) * n


class FiniteGroup(namedtuple("FiniteGroup", "order table labels rule")):
    """Immutable finite group given by a total multiplication table, or, if
    table is None, by the rule (n, m) of _family_product, of order n or 2n.

    identity is always element 0; labels are unique display strings.
    """

    __slots__ = ()
    identity = 0

    def __new__(cls, order: int, table: tuple[tuple[int, ...], ...] | None,
                labels: tuple[str, ...], rule: tuple[int, int] | None = None) -> FiniteGroup:
        if table is None:
            if rule is None:
                raise GroupError("a group without a table needs its product rule")
            if order not in (rule[0], 2 * rule[0]):
                raise GroupError(f"order {order} is neither n nor 2n for the rule {rule}")
        elif len(table) != order:
            raise GroupError(f"order {order} but the table has {len(table)} rows")
        if len(set(labels)) != order:
            raise GroupError("labels are not unique")
        return super().__new__(cls, order, table, labels, rule)

    @classmethod
    def _make(cls, iterable) -> FiniteGroup:  # so _replace validates too
        return cls(*iterable)

    def mult(self, a: int, b: int) -> int:
        if self.table is None:
            return _family_product(*self.rule, a, b)
        return self.table[a][b]

    def inverse(self, a: int) -> int:
        return self.power(a, self.order - 1)  # a^|G| = e

    def power(self, x: int, t: int) -> int:
        if t < 0:
            x, t = self.inverse(x), -t
        acc = 0
        while t:
            if t & 1:
                acc = self.mult(acc, x)
            x = self.mult(x, x)
            t >>= 1
        return acc

    def elements(self) -> range:
        return range(self.order)


class GroupPartition(namedtuple("GroupPartition", "h0 h1 h2 h3 u partner_pairs n_r")):
    """The four-block partition of the family group, plus derived views.

    H0 = {e, u}, H1 = <r> \\ H0, H2 = reflections with even r-exponent,
    H3 = reflections with odd r-exponent (frozensets of indices).
    partner_pairs lists the (y, z) pairs of H3 with z = y^3 and y^2 = u;
    n_r = 2^k p is the order of <r>.
    """

    __slots__ = ()

    @property
    def omega(self) -> frozenset[int]:
        return self.h0

    @property
    def a1(self) -> frozenset[int]:
        """The cyclic part <r> (index prefix)."""
        return frozenset(range(self.n_r))

    @property
    def a2(self) -> frozenset[int]:
        return self.h2

    @property
    def a3(self) -> frozenset[int]:
        return self.a1 - {0}

    @property
    def a4(self) -> frozenset[int]:
        return self.a1 - {self.u}

    @property
    def a5(self) -> frozenset[int]:
        return self.a1 - self.h0

    @property
    def a6(self) -> frozenset[int]:
        return self.h3

    def sizes(self) -> tuple[int, int, int, int]:
        return (len(self.h0), len(self.h1), len(self.h2), len(self.h3))


def build_family(params: FamilyParams) -> FiniteGroup:
    """Construct the family group for (k, p), with no table.

    Product rule on pairs: (a1, b1) * (a2, b2) = (a1 + a2 * m^b1 mod 2^k p,
    b1 xor b2) with m = 2^(k-1) p - 1 (_family_product).  The defining
    relations are verified with it after construction.
    """
    n = params.n_r
    m = params.twist

    labels = ["e" if a == 0 else ("r" if a == 1 else f"r^{a}") for a in range(n)]
    # (a, 1) is r^a s = s r^(a*m mod n)
    labels += ["s" if j == 0 else ("s·r" if j == 1 else f"s·r^{j}")
               for j in (a * m % n for a in range(n))]

    g = FiniteGroup(params.order, None, tuple(labels), (n, m))

    # defining relations, checked constructively
    r, s = 1, n
    if g.power(r, n) != 0 or g.mult(s, s) != 0:
        raise GroupError("family construction violates r^(2^k p) = s^2 = e")
    if g.mult(g.mult(s, r), g.inverse(s)) != g.power(r, m):
        raise GroupError("family construction violates s r s^-1 = r^m")
    if (m * m) % n != 1:
        raise GroupError("twist exponent is not an involution mod 2^k p")
    return g


def build_cyclic(n: int) -> FiniteGroup:
    """Z_n on the rule (n, 1): no index reaches the twist, so a·b = a + b mod n."""
    if not isinstance(n, int) or n < 1:
        raise ValueError(f"cyclic order must be a positive integer, got {n!r}")
    if n > MAX_ORDER:
        raise ValueError(f"order {n} exceeds the supported exact-table size ({MAX_ORDER})")
    return FiniteGroup(n, None, tuple(map(str, range(n))), (n, 1))


def element_order(g: FiniteGroup, x: int) -> int:
    """Least t >= 1 with x^t = e; GroupError if no t <= |G| works."""
    y = x
    for t in range(1, g.order + 1):
        if y == 0:
            return t
        y = g.mult(y, x)
    raise GroupError(f"powers of element {x} never reach the identity")


def cyclic_subgroup(g: FiniteGroup, x: int) -> frozenset[int]:
    """The subgroup <x> = {x^t : t >= 0}; GroupError if no power of x is e."""
    out = {0}
    y = x
    for _ in range(g.order):
        if y == 0:
            return frozenset(out)
        out.add(y)
        y = g.mult(y, x)
    raise GroupError(f"powers of element {x} never reach the identity")


def cyclic_subgroups(g: FiniteGroup) -> Iterator[tuple[list[int], list[int]]]:
    """Yield each cyclic subgroup C of g once, as (powers, generators).

    powers lists x, x^2, .., x^o = e for the first x (in index order) that
    generates C, so o = |C| = len(powers); generators lists the x^j with
    gcd(j, o) = 1, the phi(o) elements of order o whose subgroup is C.
    g must be a group.  GroupError if the powers of some x never reach e.
    """
    table, n = g.table, g.order
    if table is None:
        n_r, m = g.rule
    walked = bytearray(n)  # 1 once x is a generator of a yielded subgroup
    for x in range(n):
        if walked[x]:
            continue
        powers, y = [], x
        for _ in range(n):
            powers.append(y)
            if y == 0:
                break
            y = table[y][x] if table else _family_product(n_r, m, y, x)
        else:
            raise GroupError(f"powers of element {x} never reach the identity")
        o = len(powers)
        generators = [powers[j - 1] for j in range(1, o + 1) if math.gcd(j, o) == 1]
        for z in generators:
            walked[z] = 1
        yield powers, generators


def partition(g: FiniteGroup, params: FamilyParams) -> GroupPartition:
    """Partition a family group into H0..H3 and list the H3 partner pairs.

    The even-exponent reflection set is taken at set level (2^(k-1) p
    distinct elements, exponents reduced mod 2^k p), so it contains s.
    """
    if g.rule != (params.n_r, params.twist) or g.order != params.order:
        raise ValueError("group was not built by build_family with these parameters")
    n = params.n_r
    m = params.twist
    u = params.half  # index of r^(2^(k-1) p)

    h0 = frozenset({0, u})
    h1 = frozenset(range(n)) - h0
    h2 = frozenset(n + a for a in range(0, n, 2))
    h3 = frozenset(n + a for a in range(1, n, 2))

    pairs = []
    for j in range(params.quarter):
        c = 2 * j + 1
        y = n + c * m % n
        z = n + (c + params.half) * m % n
        pairs.append((y, z))

    return GroupPartition(h0, h1, h2, h3, u, tuple(pairs), n)


def _walk_starts(table: tuple[tuple[int, ...], ...]) -> list[int] | None:
    """The starts of the right-power walks, longest walk first (ties in
    index order), or None if some walk does not reach 0 within n steps.

    Each element not on an earlier walk starts one, x, x·x, (x·x)·x, ..,
    which marks every element it passes; so every element lies on the walk
    of some start."""
    n = len(table)
    walked = bytearray(n)
    walks = []
    for x in range(1, n):
        if walked[x]:
            continue
        y, length = x, 1
        while y:
            if length == n:  # x^n is not e, though a group's element orders divide n
                return None
            walked[y] = 1
            y = table[y][x]
            length += 1
        walks.append((-length, x))
    walks.sort()
    return [x for _, x in walks]


def _generators(table: tuple[tuple[int, ...], ...], candidates: Iterable[int]) -> Iterator[int]:
    """Yield each candidate that is not in `reached`, the closure of {0}
    under right multiplication by the candidates yielded before it; stop
    once `reached` holds every element.  The closure by a candidate is
    taken only when the next one is asked for, so a caller that stops at a
    failing candidate never pays for it."""
    n = len(table)
    reached, gens = {0}, []
    for g in candidates:
        if len(reached) == n:
            return
        if g in reached:
            continue
        yield g
        gens.append(g)
        # the old elements are closed under the old generators, so they need
        # only g; each new element needs every generator
        queue = [table[r][g] for r in reached]
        for y in queue:  # appending while iterating makes the list a FIFO queue
            if y not in reached:
                reached.add(y)
                queue += map(table[y].__getitem__, gens)


def _light_passes(table: tuple[tuple[int, ...], ...], g: int) -> bool:
    """Light's test for g: (x·g)·y = x·(g·y) for all x, y, that is, row x·g
    equals row x read through row g.  One C-level pass, a row at a time."""
    return all(map(operator.eq, map(table.__getitem__, map(operator.itemgetter(g), table)),
                   map(operator.itemgetter(*table[g]), table)))


def _validate_table(table: tuple[tuple[int, ...], ...]) -> None:
    """Check the group axioms exactly, at every order; raises GroupError
    naming the first witness found.

    A group is accepted by one proof.  Every right-power walk returns to 0
    (_walk_starts), and Light's test, (x·g)·y = x·(g·y) for all x, y, holds
    for each g that _generators picks from the walk starts, longest walk
    first.  The elements passing Light's test are closed under products and
    hold 0, so they hold the closure of {0} under the picked g, which is
    then closed under products too.  A start is skipped only when it lies
    in that closure, and then so does its walk; every element lies on a
    walk, so the closure is the whole table.  Hence every element passes,
    the table is associative with identity 0, and each element, x^j for a
    start x with x^o = e, has the inverse x^(o-j).  Longest walk first is
    only a heuristic (one generator for a cyclic group, two for the
    family); any order of the starts gives a sound proof.

    A table that fails the proof is no group.  Only to name the first
    witness are its axioms then checked one by one: inverses per element,
    right (a 0 in its row) before left (a 0 in its column), then Light's
    test on generators picked in index order."""
    n = len(table)
    ident = tuple(range(n))
    if table[0] != ident or tuple(row[0] for row in table) != ident:
        # locate a genuine identity elsewhere to give the sharper error
        for e in range(1, n):
            if tuple(row[e] for row in table) == ident and table[e] == ident:
                raise GroupError(f"identity element is at index {e}, not 0")
        raise GroupError("element 0 is not an identity (row or column broken)")

    starts = _walk_starts(table)
    if starts is not None and all(_light_passes(table, g) for g in _generators(table, starts)):
        return

    for x, column in enumerate(zip(*table)):
        if 0 not in table[x]:
            raise GroupError(f"element {x} has no right inverse")
        if 0 not in column:
            raise GroupError(f"element {x} has no left inverse")

    # Every element has a right inverse now, so a passing g has one, g', with
    # (x·g)·g' = x: x -> x·g is injective and the closure times g is a
    # disjoint coset.  Each generator at least doubles the closure, so at
    # most floor(log2 n) are tested.
    for g in _generators(table, range(1, n)):
        if not _light_passes(table, g):
            row_g = table[g]
            through_g = operator.itemgetter(*row_g)  # row of x -> row of x·(g·y)
            x = next(x for x, row_x in enumerate(table) if through_g(row_x) != table[row_x[g]])
            row_x = table[x]
            row_xg = table[row_x[g]]
            y = next(y for y in range(n) if row_xg[y] != row_x[row_g[y]])
            raise GroupError(
                f"associativity fails at triple ({x}, {g}, {y}): "
                f"({x}·{g})·{y} = {row_xg[y]} but {x}·({g}·{y}) = {row_x[row_g[y]]}"
            )


def _parse_row(parts: list[str], n: int, line_no: int) -> tuple[int, ...]:
    """A row that is not all canonical decimal indices: accept any int()
    spelling (01, +1), else name the first bad entry."""
    try:
        row = tuple(int(v) for v in parts)
    except ValueError:
        raise GroupError(f"line {line_no}: non-integer entry") from None
    for v in row:
        if not 0 <= v < n:
            raise GroupError(f"line {line_no}: entry {v} out of range 0..{n - 1}")
    return row


def load_cayley_table(text: str) -> FiniteGroup:
    """Parse and validate a Cayley-table file.

    Format: line 1 is the order n; lines 2..n+1 hold n whitespace-separated
    0-based indices each (row g, column h gives g·h); index 0 must be the
    identity.  Optional trailing lines "label <index> <string>" attach
    display labels, at most one per index.  Lines end at LF, with or
    without a CR before it; no other character ends a line, so a label may
    hold any other character.  Blank lines are skipped, and every "line N:"
    in an error message counts them, so N is the line's number in the file.

    Each row is one split and one operator.itemgetter call on a str -> index
    dictionary, whose lookups also prove 0 <= v < n; only a row with a key
    missing from it (a spelling such as 01 or +1, or a bad entry) goes
    through int() and a range check.  The table is then validated by
    _validate_table: a proof by right-power walks and Light's test on the
    walk starts, longest walk first.  Only a table that fails the proof is
    checked axiom by axiom, and only to name the first witness.
    """
    lines = [(line_no, ln) for line_no, ln in enumerate(map(str.strip, text.split("\n")), 1)
             if ln]
    if not lines:
        raise GroupError("empty Cayley table input")
    line_no, first = lines[0]
    try:
        n = int(first)
    except ValueError:
        raise GroupError(f"line {line_no}: expected the order, got {first!r}") from None
    if n < 1:
        raise GroupError(f"line {line_no}: order must be positive, got {n}")
    if n > MAX_ORDER:
        raise GroupError(f"order {n} exceeds the supported exact-table size ({MAX_ORDER})")
    if len(lines) < n + 1:
        raise GroupError(f"expected {n} table rows, found {len(lines) - 1}")

    index = {str(v): v for v in range(n)}
    table = []
    for line_no, ln in lines[1:n + 1]:
        parts = ln.split()
        if len(parts) != n:
            raise GroupError(f"line {line_no}: expected {n} entries, got {len(parts)}")
        try:
            # itemgetter of a single key returns the value, not a 1-tuple
            table.append(operator.itemgetter(*parts)(index) if n > 1 else (index[parts[0]],))
        except KeyError:
            table.append(_parse_row(parts, n, line_no))

    labels = [str(i) for i in range(n)]
    labelled: dict[int, int] = {}  # index -> line number of its label
    for line_no, ln in lines[n + 1:]:
        parts = ln.split(maxsplit=2)
        if parts[0] != "label" or len(parts) != 3:
            raise GroupError(f"line {line_no}: expected 'label <index> <string>'")
        try:
            idx = int(parts[1])
        except ValueError:
            raise GroupError(f"line {line_no}: bad label index {parts[1]!r}") from None
        if not 0 <= idx < n:
            raise GroupError(f"line {line_no}: label index {idx} out of range")
        if idx in labelled:
            raise GroupError(
                f"line {line_no}: index {idx} already labelled on line {labelled[idx]}")
        labelled[idx] = line_no
        labels[idx] = parts[2]

    table = tuple(table)
    _validate_table(table)
    return FiniteGroup(n, table, tuple(labels))
