"""Exact matching enumeration: engine, brute-force oracle, closed forms.

matching_polynomial runs the decomposition engine, MatchingEngine: it
memoizes on vertex-subset bitmasks, factors over components, joins the
parts of a subgraph whose complement is disconnected, and otherwise pivots
on a vertex of maximum degree.  The brute-force oracle shares none of that
machinery.  On the family's power graph the engine is checked against
family_matching_polynomial, which counts the same matchings by order
arithmetic from (k, p) alone, without building the graph; `powg verify`
runs the same cross-check on every case (demo 05).
"""

import time

from powg import (
    FamilyParams,
    Graph,
    MatchingEngine,
    brute_force_matchings,
    build_cyclic,
    build_family,
    build_power_graph,
    complete_graph_matchings,
    matching_polynomial,
    telephone_number,
)
from powg.formulas import family_matching_polynomial

k4 = Graph.from_edges(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
print("K_4 matching polynomial:", matching_polynomial(k4).coeffs)
print("telephone numbers T(1..8):", [telephone_number(n) for n in range(1, 9)])

print("\ncomplete-graph matching counts at n=12, order 3:")
print("  as printed (1/i factor)  :", complete_graph_matchings(12, 3, "printed"))
print("  corrected (1/i! factor)  :", complete_graph_matchings(12, 3, "corrected"))

print("\nengine vs brute force on cyclic power graphs:")
for n in (6, 10, 12):
    g = build_power_graph(build_cyclic(n))
    engine = matching_polynomial(g)
    brute = brute_force_matchings(g)
    print(f"  P(Z_{n:>2}): Z = {engine.hosoya_index:>7}  agree: {engine == brute}")

graph = build_power_graph(build_family(FamilyParams(2, 3)))
t0 = time.perf_counter()
eng = MatchingEngine(graph)
poly = eng.run()
dt = time.perf_counter() - t0
print(f"\nfamily (2, 3) power graph, {graph.n} vertices:")
print("  " + poly.render().replace("\n", "\n  "))
print(f"  decomposition engine: {eng.stats['memo_entries']} memo entries in {dt * 1000:.1f} ms")
print("  order-arithmetic count reproduces the polynomial:",
      family_matching_polynomial(2, 3) == list(poly.coeffs))
