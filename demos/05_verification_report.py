"""End-to-end verification: oracle computations vs published closed forms.

Produces the same report the `powg verify` command writes, then summarizes
the diff rows.  Diffs are findings about the closed forms, not failures:
the oracle side is ground truth by construction.
"""

from powg.report import compare, render_report

frag = compare(2, 3, include_index=True, cache=None)

case = frag["case"]
print(f"case: family {case['family']} (k={case['k']}, p={case['p']}), "
      f"order {case['order']}")
print(f"oracle: {frag['oracle']['edge_count']} edges, "
      f"distance counts {tuple(frag['oracle']['hosoya_coefficients'])}, "
      f"Z = {frag['oracle']['hosoya_index']}")
print(f"published totals: printed {frag['paper']['printed']['hosoya_index']['total']}, "
      f"corrected {frag['paper']['corrected']['hosoya_index']['total']}")
print(f"decomposition and twin engines agree: "
      f"{frag['engine_stats']['cross_check_identical']}")

print(f"\n{len(frag['diffs'])} diff rows; grouped by invariant:")
by_inv: dict[str, int] = {}
for d in frag["diffs"]:
    by_inv[d["invariant"]] = by_inv.get(d["invariant"], 0) + 1
for inv, count in sorted(by_inv.items()):
    print(f"  {inv}: {count}")

print("\nheadline rows:")
for d in frag["diffs"]:
    if (d["invariant"], d["location"]) in (
        ("hosoya_polynomial", "dis1"),
        ("hosoya_polynomial", "dis2"),
        ("degrees", "u"),
        ("edge_types", "vw"),
        ("edge_types", "unclassified"),
    ):
        print(f"  {d['invariant']}.{d['location']} "
              f"[{d['mode']}]: oracle {d['oracle']} vs published {d['paper']}")

print("\nfirst lines of the JSON document:")
for line in render_report({"cases": [frag]}).splitlines()[:12]:
    print(" ", line)
