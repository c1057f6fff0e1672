"""Record references.json from the powg source tree in the current directory.

    python3 perfbench/record_references.py

Runs the first pass of every workload with seed 0, keeps each answer under
its reference key, and refuses to write unless every answer satisfies
identities computed here from the benchmark's own group arithmetic, not
from powg: the distance counts sum to n + C(n, 2), dis1 = |E|, m_0 = 1,
m_1 = |E|, m_2 = C(|E|, 2) - sum_v C(deg v, 2), the reciprocal-status and
edge-kind counts sum to |E|, element-order histograms match, and the Hosoya
index at (2, 3) is 2,911,488.  Re-record only on purpose: the references
are the contract every later version of powg is checked against.
"""

from __future__ import annotations

import json
import sys
import tempfile
from math import comb
from pathlib import Path

from run import HERE, Runner, import_powg
from workloads import WORKLOADS, build_pass, family_table, table

HOSOYA_INDEX_2_3 = 2_911_488


def power_graph(tab: list[list[int]]) -> tuple[list[int], list[int]]:
    """(degree of each vertex, order of each element) of the power graph:
    x ~ y for x != y when one lies in the cyclic subgroup of the other."""
    n = len(tab)
    nbrs = [set() for _ in range(n)]
    orders = []
    for x in range(n):
        sub, y = {0}, x
        while y != 0:
            sub.add(y)
            y = tab[y][x]
        orders.append(len(sub))
        for y in sub - {x}:
            nbrs[x].add(y)
            nbrs[y].add(x)
    return [len(s) for s in nbrs], orders


def key_table(key: str) -> list[list[int]]:
    if key.startswith("sdl-k"):
        k, p = key.split("+")[0][len("sdl-k"):].split("-p")
        return family_table(int(k), int(p))
    return table(key.split(":")[0])


def identity_failures(key: str, answer: dict) -> list[str]:
    degrees, orders = power_graph(key_table(key))
    n, edges = len(degrees), sum(degrees) // 2
    checks = []  # (what, answered, identity)
    if "order" in answer:
        checks.append(("order", answer["order"], n))
    if "element_orders" in answer:
        hist: dict[str, int] = {}
        for t in orders:
            hist[str(t)] = hist.get(str(t), 0) + 1
        checks.append(("element orders", answer["element_orders"], hist))
    counts = answer.get("distance_counts")
    if counts is not None:
        checks += [("dis0", counts[0], n), ("dis1", counts[1], edges),
                   ("pair total", sum(counts) + answer["unreachable_pairs"], n + comb(n, 2))]
    if "wiener" in answer:
        checks += [("wiener", answer["wiener"], sum(i * c for i, c in enumerate(counts))),
                   ("diameter", answer["diameter"], len(counts) - 1),
                   ("edge count", answer["edge_count"], edges),
                   ("edge-kind total", sum(answer["edge_kind_counts"].values()), edges)]
    if "rs_hosoya_terms" in answer:
        checks.append(("rs-Hosoya total", sum(answer["rs_hosoya_terms"].values()), edges))
    poly = answer.get("matching_polynomial")
    if poly is not None:
        m2 = comb(edges, 2) - sum(comb(d, 2) for d in degrees)
        checks.append(("m_0..m_2", poly[:3], [1, edges, m2]))
        if "hosoya_index" in answer:
            checks.append(("hosoya index", answer["hosoya_index"], sum(poly)))
        if key == "sdl-k2-p3+index":
            checks.append(("hosoya index at (2, 3)", sum(poly), HOSOYA_INDEX_2_3))
    return [f"{key}: {what} is {got!r}, identity gives {want!r}"
            for what, got, want in checks if got != want]


def record(root: Path) -> dict:
    _, cli = import_powg(root)
    references: dict = {}
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=root) as tmp:
        runner = Runner(cli, {}, Path(tmp))
        for workload in WORKLOADS:
            for op in build_pass(workload, 0, 0, Path(tmp)):
                _, _, problem, answers = runner.execute(op)
                if problem is not None:
                    raise SystemExit(f"powg {' '.join(op.argv)} failed: {problem}")
                for key, answer in answers.items():
                    if references.setdefault(key, answer) != answer:
                        raise SystemExit(f"{key}: two operations gave different answers")
    return dict(sorted(references.items()))


def main() -> int:
    references = record(Path.cwd())
    failures = [f for key, answer in references.items()
                for f in identity_failures(key, answer)]
    if failures:
        print("\n".join(failures), file=sys.stderr)
        return 1
    path = HERE / "references.json"
    path.write_text(json.dumps(references, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(references)} references to {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
