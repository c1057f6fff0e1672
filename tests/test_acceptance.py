"""Acceptance suite: one test per criterion, each printing a pass/fail line
with its runtime (run with -s to see them).  All comparisons are exact."""

import json
import math
import random
import subprocess
import sys
import time
from fractions import Fraction

from powg import (
    FamilyParams,
    build_cyclic,
    build_family,
    build_power_graph,
    brute_force_matchings,
    complete_graph_matchings,
    hosoya_index,
    hosoya_polynomial,
    matching_polynomial,
    paper_degree_claims,
    paper_edge_type_counts,
    paper_hosoya_coeffs,
    paper_rs_hosoya,
    partition,
    reciprocal_status,
    rs_hosoya_polynomial,
    telephone_number,
    verify_structure_theorem,
)
from powg.distance import diameter
from powg.graphs import Graph, induced_subgraph
from powg.report import compare, strip_timings
from conftest import complete_graph, random_graph


def run_criterion(tag, limit_s, body):
    t0 = time.perf_counter()
    try:
        body()
    except BaseException:
        print(f"[acceptance] {tag}: FAIL")
        raise
    dt = time.perf_counter() - t0
    ok = dt < limit_s
    print(f"[acceptance] {tag}: {'PASS' if ok else 'FAIL'} ({dt:.2f}s, limit {limit_s}s)")
    assert ok, f"{tag} exceeded runtime limit: {dt:.2f}s > {limit_s}s"


def family_graph(k, p):
    return build_power_graph(build_family(FamilyParams(k, p)))


def test_criterion_1_formula_reproduction():
    def body():
        assert paper_hosoya_coeffs(2, 3) == (24, 87, 189)
        assert paper_hosoya_coeffs(2, 5) == (40, 225, 555)
        assert paper_rs_hosoya(2, 3, "printed").terms == {
            Fraction(43): 1, Fraction(40): 10, Fraction(34): 51,
            Fraction(36): 6, Fraction(33): 6, Fraction(26): 3,
        }
        assert paper_degree_claims(2, 3) == {
            "e": 23, "u": 17, "h1": 11, "h2": 1, "h3": 3,
        }
        assert paper_edge_type_counts(2, 3) == {
            "eu": 1, "eh1": 10, "eh2": 6, "eh3": 6, "uh3": 6, "vw": 45, "yz": 3,
        }

    run_criterion("C1 formula reproduction", 1.0, body)
    # the CLI surface reproduces the same numbers
    res = subprocess.run(
        [sys.executable, "-m", "powg", "paper", "eval", "--k", "2", "--p", "3",
         "--which", "hosoya"],
        capture_output=True, text=True)
    assert res.stdout.splitlines() == ["dis0=24", "dis1=87", "dis2=189"]


def test_criterion_2_oracle_ground_truth():
    def body():
        fam = family_graph(2, 3)
        assert hosoya_polynomial(fam).counts == (24, 77, 199)
        assert build_power_graph(build_cyclic(12)).edge_count == 56

        frag = compare(2, 3, include_index=False)
        hos = [d for d in frag["diffs"] if d["invariant"] == "hosoya_polynomial"]
        assert [(d["location"], d["paper"], d["oracle"]) for d in hos] == \
            [("dis1", 87, 77), ("dis2", 189, 199)]
        deg_u = [d for d in frag["diffs"]
                 if d["invariant"] == "degrees" and d["location"] == "u"]
        assert [(d["paper"], d["oracle"]) for d in deg_u] == [(17, 15)]

    run_criterion("C2 oracle ground truth", 1.0, body)


def test_criterion_3_conservation_suite():
    def body():
        rng = random.Random(2024)
        graphs = []
        for _ in range(200):
            n = rng.randint(1, 12)
            graphs.append(random_graph(rng, n, rng.uniform(0.05, 0.95)))
        graphs += [build_power_graph(build_cyclic(n)) for n in range(1, 31)]
        for g in graphs:
            dd = hosoya_polynomial(g)
            assert sum(dd.counts) + dd.unreachable_pairs == g.n + math.comb(g.n, 2)
            if len(dd.counts) > 1:
                assert dd.counts[1] == g.edge_count
            else:
                assert g.edge_count == 0
            if dd.unreachable_pairs == 0:
                assert rs_hosoya_polynomial(g).coefficient_total() == g.edge_count

    run_criterion("C3 conservation suite", 10.0, body)


def test_criterion_4_engine_vs_brute_force():
    def body():
        rng = random.Random(514)
        for _ in range(200):
            n = rng.randint(1, 10)
            g = random_graph(rng, n, rng.uniform(0.1, 0.9))
            assert matching_polynomial(g) == brute_force_matchings(g)
        for n in range(1, 15):
            g = build_power_graph(build_cyclic(n))
            assert matching_polynomial(g) == brute_force_matchings(g)
        # edge recurrence Z(G) = Z(G - e) + Z(G - u - v)
        done = 0
        while done < 50:
            n = rng.randint(2, 10)
            g = random_graph(rng, n, 0.5)
            edges = list(g.edges())
            if not edges:
                continue
            u, v = edges[rng.randrange(len(edges))]
            without = Graph.from_edges(n, [e for e in edges if e != (u, v)])
            rest = [w for w in range(n) if w not in (u, v)]
            shrunk = induced_subgraph(g, rest)
            assert hosoya_index(g) == hosoya_index(without) + hosoya_index(shrunk)
            done += 1

    run_criterion("C4 engine vs brute force", 30.0, body)


def test_criterion_5_telephone_numbers():
    def body():
        assert [hosoya_index(complete_graph(n)) for n in range(1, 9)] == \
            [1, 2, 4, 10, 26, 76, 232, 764]
        for n in range(1, 13):
            brute = brute_force_matchings(complete_graph(n))
            for i in range(n // 2 + 1):
                assert complete_graph_matchings(n, i, "corrected") == brute.m(i)
                if 1 <= i <= 2:
                    assert complete_graph_matchings(n, i, "printed") == brute.m(i)
        assert complete_graph_matchings(12, 3, "printed") == 27720
        assert complete_graph_matchings(12, 3, "corrected") == 13860
        assert hosoya_index(complete_graph(16)) == telephone_number(16) == 46206736

    run_criterion("C5 telephone numbers", 10.0, body)


def test_criterion_6_structure_theorem():
    def body():
        for k, p in [(2, 3), (2, 5), (3, 3)]:
            params = FamilyParams(k, p)
            group = build_family(params)
            part = partition(group, params)
            graph = build_power_graph(group)
            rep = verify_structure_theorem(graph, part)
            assert rep.cover_ok and rep.disjoint_ok
            assert rep.edges_total == (rep.cyclic_edge_count + params.half
                                       + 5 * params.quarter)
            assert rep.count_identity_ok and rep.prefix_matches_cyclic

    run_criterion("C6 structure theorem", 5.0, body)


def test_criterion_7_full_verification(tmp_path):
    out = tmp_path / "report.json"

    def body():
        from powg.cli import main
        rc = main(["verify", "--k", "2", "--p", "3", "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text(encoding="utf-8"))
        case = doc["cases"][0]
        stats = case["engine_stats"]
        assert stats["skipped"] is False
        assert stats["cross_check_identical"] is True
        engines = {r["engine"] for r in stats["runs"]}
        assert len(engines) == 2
        oracle_z = case["oracle"]["hosoya_index"]
        assert oracle_z == sum(case["oracle"]["matching_polynomial"])
        for mode in ("printed", "corrected"):
            block = case["paper"][mode]["hosoya_index"]
            assert block["total"] == 1 + sum(block["family_sums"].values())
            assert set(block["family_sums"]) == {f"M{j}" for j in range(1, 16)}
        index_diffs = [d for d in case["diffs"] if d["invariant"] == "hosoya_index"]
        assert {d["mode"] for d in index_diffs} <= {"printed", "corrected"}
        # determinism: a second run is byte-identical once timings are stripped
        rc = main(["verify", "--k", "2", "--p", "3", "--out", str(out)])
        assert rc == 0
        doc2 = json.loads(out.read_text(encoding="utf-8"))
        assert json.dumps(strip_timings(doc), sort_keys=True) == \
            json.dumps(strip_timings(doc2), sort_keys=True)

    run_criterion("C7 full-case verification", 60.0, body)


def test_criterion_8_diameter_and_rs_closed_form():
    def body():
        for k, p in [(2, 3), (2, 5), (3, 3)]:
            g = family_graph(k, p)
            assert diameter(g) == 2
            n = g.n
            for v in range(n):
                d = g.degree(v)
                assert reciprocal_status(g, v) == Fraction(d) + Fraction(n - 1 - d, 2)

    run_criterion("C8 diameter and rs closed form", 5.0, body)
