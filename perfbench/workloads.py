"""Workload inputs: the operations of one pass, built from a seed.

Every operation is one `powg` command line.  Cayley tables are generated
here with the benchmark's own arithmetic, never with `powg.groups`, so a
change to powg cannot change its own inputs.  The seed relabels every table
by a random permutation fixing the identity and shuffles the order of the
verify cases and of the operations; the invariants do not depend on either,
so one set of references serves every seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

# Each pass of a workload runs these operations once.  The case lists are a
# trimmed form of the full sweeps so that one pass takes a few seconds and a
# run can take the median of several passes; each list keeps the layer that
# its workload is meant to stress doing most of the work.
VERIFY_SWEEP = (((2, 3, 4, 5, 6), (3,)), ((2, 3, 4, 5), (5,)))
# Given explicitly, so that the matching engine runs only at order 24 here
# even if powg's default threshold changes.
VERIFY_SWEEP_SKIP_ABOVE = 24
# Orders 24 and 40 run the matching engine with both pivots; 48 and 80 skip it.
MATCHING_VERIFY = ((2, 3), (3, 5))
MATCHING_SKIP_ABOVE = 40
MATCHING_TABLE = "z20"
INGEST_TABLES = ("sdl-3-7", "z256", "sdl-4-5")
INGEST_COMMANDS = ("group-info", "hosoya", "rs-hosoya")

WORKLOADS = ("verify-sweep", "matching-index", "cayley-ingest")


def cyclic_table(n: int) -> list[list[int]]:
    """Z_n: a * b = (a + b) mod n."""
    return [[(a + b) % n for b in range(n)] for a in range(n)]


def family_table(k: int, p: int) -> list[list[int]]:
    """The family group at (k, p) on pairs (a, b), encoded a + b * 2^k p:
    (a1, b1) * (a2, b2) = (a1 + a2 * m^b1 mod 2^k p, b1 xor b2) with
    m = 2^(k-1) p - 1."""
    n = (1 << k) * p
    m = n // 2 - 1
    elems = [(i % n, i // n) for i in range(2 * n)]
    return [[(a1 + a2 * (m if b1 else 1)) % n + (b1 ^ b2) * n for a2, b2 in elems]
            for a1, b1 in elems]


def table(name: str) -> list[list[int]]:
    """The Cayley table called `name`: "zN" is Z_N, "sdl-K-P" the family."""
    if name.startswith("z"):
        return cyclic_table(int(name[1:]))
    _, k, p = name.split("-")
    return family_table(int(k), int(p))


def relabel(tab: list[list[int]], rng: random.Random) -> list[list[int]]:
    """Copy of the table under a random permutation that fixes index 0."""
    n = len(tab)
    rest = list(range(1, n))
    rng.shuffle(rest)
    perm = [0] + rest
    out = [[0] * n for _ in range(n)]
    for a, row in enumerate(tab):
        new_row = out[perm[a]]
        for b, c in enumerate(row):
            new_row[perm[b]] = perm[c]
    return out


def write_table(tab: list[list[int]], path: Path) -> None:
    rows = "".join(" ".join(map(str, row)) + "\n" for row in tab)
    path.write_text(f"{len(tab)}\n{rows}", encoding="utf-8")


def family_order(k: int, p: int) -> int:
    return (1 << (k + 1)) * p


def case_key(k: int, p: int, with_index: bool) -> str:
    """Reference key of one verify case; the matching polynomial and the
    index diff rows exist only when the engine ran."""
    return f"sdl-k{k}-p{p}" + ("+index" if with_index else "")


@dataclass(frozen=True)
class Op:
    """One `powg` command and the reference keys its answer must match."""

    argv: tuple[str, ...]
    kind: str
    keys: tuple[str, ...]
    out: Path | None = None


def _verify_op(ks, ps, skip_above: int, rng: random.Random, out: Path) -> Op:
    ks, ps = list(ks), list(ps)
    rng.shuffle(ks)
    rng.shuffle(ps)
    argv = ("verify", "--k", ",".join(map(str, ks)), "--p", ",".join(map(str, ps)),
            "--skip-index-above", str(skip_above), "--out", str(out))
    keys = tuple(case_key(k, p, family_order(k, p) <= skip_above) for k in ks for p in ps)
    return Op(argv, "verify", keys, out)


def _cayley_op(command: str, name: str, path: Path) -> Op:
    if command == "group-info":
        argv = ("group", "--cayley", str(path), "info")
    else:
        argv = ("invariant", command, "--cayley", str(path))
    return Op(argv, command, (f"{name}:{command}",))


def build_pass(workload: str, seed: int, index: int, workdir: Path) -> list[Op]:
    """Operations of pass `index` of a run with `seed`; input files go to
    `workdir`.  Each pass draws fresh relabellings, so the median over the
    passes of a run also averages over labellings."""
    rng = random.Random(f"{workload}/{seed}/{index}")
    ops: list[Op] = []
    if workload == "verify-sweep":
        for i, (ks, ps) in enumerate(VERIFY_SWEEP):
            ops.append(_verify_op(ks, ps, VERIFY_SWEEP_SKIP_ABOVE, rng,
                                  workdir / f"report{i}.json"))
    elif workload == "matching-index":
        ks, ps = MATCHING_VERIFY
        ops.append(_verify_op(ks, ps, MATCHING_SKIP_ABOVE, rng, workdir / "report.json"))
        path = workdir / f"{MATCHING_TABLE}.txt"
        write_table(relabel(table(MATCHING_TABLE), rng), path)
        ops.append(_cayley_op("matching-poly", MATCHING_TABLE, path))
    elif workload == "cayley-ingest":
        for name in INGEST_TABLES:
            path = workdir / f"{name}.txt"
            write_table(relabel(table(name), rng), path)
            ops += [_cayley_op(command, name, path) for command in INGEST_COMMANDS]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(ops)
    return ops
