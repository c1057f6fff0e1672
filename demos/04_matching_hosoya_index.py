"""Exact matching enumeration: engines, brute-force oracle, closed forms.

matching_polynomial runs the decomposition engine, MatchingEngine: it
memoizes on vertex-subset bitmasks, factors over components, joins the
parts of a subgraph whose complement is disconnected, and otherwise pivots
on a vertex of maximum degree.  TwinEngine is kept as a test oracle above
brute-force size: vertices with equal closed neighbourhoods (in a power
graph, the generators of one cyclic subgroup) are interchangeable, so it
memoizes on how many vertices of each class remain, with no join rule.
The brute-force oracle shares none of that machinery.  `powg verify`
cross-checks the engine with an order-arithmetic count instead (demo 05).
"""

import time

from powg import (
    FamilyParams,
    Graph,
    MatchingEngine,
    TwinEngine,
    brute_force_matchings,
    build_cyclic,
    build_family,
    build_power_graph,
    complete_graph_matchings,
    matching_polynomial,
    telephone_number,
)

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

t0 = time.perf_counter()
twin = TwinEngine(graph)
alt = twin.run()
dt = time.perf_counter() - t0
print(f"  twin engine (test oracle): {twin.stats['classes']} twin classes, "
      f"{twin.stats['memo_entries']} memo entries in {dt * 1000:.1f} ms, "
      f"reproduces the polynomial: {alt == poly}")
