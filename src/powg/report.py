"""Verification reports: exact oracle computations on the family power graph
diffed against the published closed forms, in both evaluation modes.

Reports are deterministic for a fixed case and configuration; wall-clock
timings are isolated in a separate "timings" block.  Integers larger than
2^53 are serialized as decimal strings so lossy JSON consumers cannot
corrupt them.
"""

from __future__ import annotations

import dataclasses
import json
import operator
import time
from collections import Counter
from fractions import Fraction

from . import __version__
from .distance import distance_profile
from .formulas import (
    family_matching_polynomial,
    paper_degree_claims,
    paper_edge_type_counts,
    paper_hosoya_coeffs,
    paper_hosoya_index,
    paper_rs_hosoya,
)
from .graphs import build_power_graph, classify_edges, verify_structure_theorem
from .groups import FamilyParams, build_family, partition
from .matching import MatchingEngine

JSON_SAFE_INT = 1 << 53
_encode_str = json.encoder.encode_basestring_ascii  # the C escaper json itself uses
DEFAULT_SKIP_INDEX_ABOVE = 56


class CrossCheckError(RuntimeError):
    """The matching engine and the order-arithmetic count disagree."""


class ResultCache:
    """Empty stand-in for the deleted result cache, which nothing in powg
    calls: perfbench/tracing.py METHODS binds get and put by name.  Delete it
    once a benchmark change drops those entries."""

    def get(self, parts):
        return None

    def put(self, parts, obj) -> None:
        pass


def jsonable(value):
    """Recursively convert to JSON-safe data; big ints become strings."""
    if isinstance(value, bool):
        return value
    if isinstance(value, int):
        return str(value) if abs(value) > JSON_SAFE_INT else value
    if isinstance(value, Fraction):
        return str(value) if value.denominator != 1 else jsonable(value.numerator)
    if isinstance(value, float):
        return value
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if value is None or isinstance(value, str):
        return value
    raise TypeError(f"cannot serialize {type(value).__name__}")


def _oracle_index(graph, k, p):
    """Matching polynomial and engine_stats of the graph, from two
    structurally different computations that must agree: the decomposition
    engine runs on the graph, and the order-arithmetic count reads only
    (k, p)."""
    engine = MatchingEngine(graph)
    coeffs = list(engine.run().coeffs)
    if family_matching_polynomial(k, p) != coeffs:
        raise CrossCheckError(f"the decomposition engine and the arithmetic count "
                              f"disagree on sdl-k{k}-p{p}")
    runs = [{"engine": "decomposition", **engine.stats}, {"engine": "arithmetic"}]
    return coeffs, {"runs": runs, "skipped": False, "cross_check_identical": True}


def _degree_block(graph, part):
    def hist(vertices):
        return dict(sorted(Counter(map(graph.degree, vertices)).items()))

    return {
        "e": graph.degree(0),
        "u": graph.degree(part.u),
        "h1": hist(part.h1),
        "h2": hist(part.h2),
        "h3": hist(part.h3),
    }


def _diff_rows(oracle, paper_by_mode, part):
    """Diff rows of one case, sorted by (invariant, location, mode)."""
    diffs = []

    def add(invariant, location, oval, pval, mode):
        diffs.append({
            "invariant": invariant,
            "location": location,
            "oracle": oval,
            "paper": pval,
            "mode": mode,
        })

    coeffs_o = oracle["hosoya_coefficients"]
    coeffs_p = paper_by_mode["printed"]["hosoya_coefficients"]
    for i in range(max(len(coeffs_o), len(coeffs_p))):
        ov = coeffs_o[i] if i < len(coeffs_o) else 0
        pv = coeffs_p[i] if i < len(coeffs_p) else 0
        if ov != pv:
            add("hosoya_polynomial", f"dis{i}", ov, pv, "both")

    o_terms = oracle["rs_hosoya_terms"]
    for mode in ("printed", "corrected"):
        p_terms = paper_by_mode[mode]["rs_hosoya_terms"]
        for exp in o_terms | p_terms:
            ov, pv = o_terms.get(exp, 0), p_terms.get(exp, 0)
            if ov != pv:
                add("rs_hosoya", f"x^{exp}", ov, pv, mode)

    o_deg = oracle["degrees"]
    p_deg = paper_by_mode["printed"]["degrees"]
    for cls in ("e", "u"):
        if o_deg[cls] != p_deg[cls]:
            add("degrees", cls, o_deg[cls], p_deg[cls], "both")
    class_sizes = {"h1": len(part.h1), "h2": len(part.h2), "h3": len(part.h3)}
    for cls in ("h1", "h2", "h3"):
        uniform = {p_deg[cls]: class_sizes[cls]}
        if o_deg[cls] != uniform:
            add("degrees", cls, o_deg[cls], p_deg[cls], "both")

    o_kinds = oracle["edge_kind_counts"]
    p_kinds = paper_by_mode["printed"]["edge_kind_counts"]
    for kind in sorted(set(o_kinds) | set(p_kinds)):
        ov, pv = o_kinds.get(kind, 0), p_kinds.get(kind, 0)
        if ov != pv:
            add("edge_types", kind, ov, pv, "both")

    if oracle["hosoya_index"] is not None:
        for mode in ("printed", "corrected"):
            pv = paper_by_mode[mode]["hosoya_index"]["total"]
            if oracle["hosoya_index"] != pv:
                add("hosoya_index", "total", oracle["hosoya_index"], pv, mode)

    diffs.sort(key=lambda d: (d["invariant"], d["location"], d["mode"]))
    return diffs


def compare(k: int, p: int, *, include_index: bool = True) -> dict:
    """Oracle-vs-closed-form comparison for one (k, p) case.

    Returns the report fragment: case identity, oracle block, per-mode
    closed-form block, diff rows, and engine statistics.
    """
    params = FamilyParams(k, p)
    timings: dict[str, float] = {}

    t0 = time.perf_counter()
    group = build_family(params)
    part = partition(group, params)
    graph = build_power_graph(group)
    timings["build"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    profile = distance_profile(graph)
    dd = profile.distribution()
    rs_poly = profile.rs_polynomial()
    timings["distance"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    klass = classify_edges(graph, part)
    struct = verify_structure_theorem(graph, part)
    timings["classification"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    engine_stats = {"runs": [], "skipped": True}
    poly_val = index_val = None
    if include_index:
        poly_val, engine_stats = _oracle_index(graph, k, p)
        index_val = sum(poly_val)
    timings["index"] = time.perf_counter() - t0

    oracle = {
        "order": graph.n,
        "edge_count": graph.edge_count,
        "hosoya_coefficients": list(dd.counts),
        "unreachable_pairs": dd.unreachable_pairs,
        "diameter": dd.diameter,
        "wiener": dd.wiener,
        "rs_hosoya_terms": rs_poly.term_strings(),
        "degrees": _degree_block(graph, part),
        "edge_kind_counts": klass.kind_counts(),
        "edge_pattern_counts": klass.pattern_counts(),
        "structure_theorem": dataclasses.asdict(struct),
        "matching_polynomial": poly_val,
        "hosoya_index": index_val,
        "index_skipped": not include_index,
    }

    t0 = time.perf_counter()
    paper_by_mode = {}
    # the same in both modes: the two mode blocks share these objects
    coeffs = list(paper_hosoya_coeffs(k, p))
    degrees = paper_degree_claims(k, p)
    kinds = paper_edge_type_counts(k, p)
    for mode in ("printed", "corrected"):
        total, rows = paper_hosoya_index(k, p, mode)
        paper_by_mode[mode] = {
            "hosoya_coefficients": coeffs,
            "rs_hosoya_terms": paper_rs_hosoya(k, p, mode).term_strings(),
            "degrees": degrees,
            "edge_kind_counts": kinds,
            "hosoya_index": {"total": total, "families": rows},
        }
    timings["formulas"] = time.perf_counter() - t0

    diffs = _diff_rows(oracle, paper_by_mode, part)

    return {
        "case": {"family": "sdl", "k": k, "p": p, "order": params.order},
        "oracle": oracle,
        "paper": paper_by_mode,
        "diffs": diffs,
        "engine_stats": engine_stats,
        "timings": timings,
    }


def verify_cases(ks, ps, *, skip_index_above: int = DEFAULT_SKIP_INDEX_ABOVE) -> dict:
    """Run the comparison for every (k, p) in the cartesian product and
    assemble the verification document."""
    cases = []
    t0 = time.perf_counter()
    for k in ks:
        for p in ps:
            params = FamilyParams(k, p)
            include_index = params.order <= skip_index_above
            cases.append(compare(k, p, include_index=include_index))
    return {
        "tool": "powg",
        "version": __version__,
        "cases": cases,
        "timings": {"total": time.perf_counter() - t0},
    }


def render_report(doc: dict) -> str:
    """Deterministic JSON rendering (timings vary run to run, nothing else).

    The text is byte-identical to json.dumps(jsonable(doc), sort_keys=True,
    indent=2) + "\\n", which the tests keep as the oracle, without building
    the converted copy and without the pure-Python encoder that json uses
    whenever indent is set.  It streams into one chunk list, joined once.

    A dict is written as a list of one row.  A list of plain dicts that share
    one str-key insertion order, such as the family table, is written column
    by column: an all-str column is escaped by one map, an all-int column is
    converted by one map (ints beyond 2^53 are then quoted), and the rows come
    from one %-template per (key order, indentation).  The templates live in
    this call only: rs_hosoya_terms has different keys in every case.
    """
    chunks: list[str] = []
    out = chunks.append
    layouts: dict[tuple, tuple[list[str], str]] = {}

    def layout(keys: tuple, newline: str) -> tuple[list[str], str]:
        """The key heads of a dict at this indentation and its row template."""
        found = layouts.get((keys, newline))
        if found is None:
            inner = newline + "  "
            heads = ["," + inner + _encode_str(key) + ": " for key in keys]
            heads[0] = "{" + heads[0][1:]
            template = "".join(head.replace("%", "%%") + "%s" for head in heads) + newline + "}"
            found = layouts[keys, newline] = heads, template
        return found

    def write_rows(rows, keys: tuple, newline: str) -> None:
        """Append dicts that share the sorted str keys, one per line break."""
        heads, template = layout(keys, newline)
        columns = [_column_texts(list(map(operator.itemgetter(key), rows))) for key in keys]
        separator = "," + newline
        if not any(None in column for column in columns):
            out(separator.join(map(template.__mod__, zip(*columns))))
            return
        inner = newline + "  "  # a container cell: write the rows piece by piece
        for n, (row, texts) in enumerate(zip(rows, zip(*columns))):
            if n:
                out(separator)
            for head, key, text in zip(heads, keys, texts):
                out(head)
                if text is None:
                    write(row[key], inner)
                else:
                    out(text)
            out(newline + "}")

    def write(value, newline: str) -> None:
        """Append the JSON text of value; newline is the line break plus the
        indentation of the line that holds value."""
        if isinstance(value, dict):
            if not value:
                out("{}")
                return
            if not all(type(key) is str for key in value):
                value = jsonable(value)  # str() keys; a collision keeps the last value
            write_rows([value], tuple(sorted(value)), newline)
            return
        if not isinstance(value, (list, tuple)):
            out(_scalar_text(value))
            return
        if not value:
            out("[]")
            return
        inner = newline + "  "
        keys = _record_keys(value)
        if keys:
            out("[" + inner)
            write_rows(value, keys, inner)
            out(newline + "]")
            return
        texts = list(map(_scalar_text, value))
        if None not in texts:  # all scalars: the whole list is one string
            out("[" + inner + ("," + inner).join(texts) + newline + "]")
            return
        separator = "[" + inner
        for item, text in zip(value, texts):
            out(separator)
            if text is None:
                write(item, inner)
            else:
                out(text)
            separator = "," + inner
        out(newline + "]")

    write(doc, "\n")
    out("\n")
    return "".join(chunks)


def _record_keys(items) -> tuple | None:
    """Sorted keys of a list of plain dicts that share one non-empty str-key
    insertion order, or None for any other list."""
    if type(items[0]) is not dict or set(map(type, items)) != {dict}:
        return None
    orders = set(map(tuple, items))
    if len(orders) != 1:
        return None
    (order,) = orders
    if not order or not all(type(key) is str for key in order):
        return None
    return tuple(sorted(order))


def _column_texts(values: list) -> list:
    """JSON texts of one column of values, None for a container."""
    kinds = set(map(type, values))
    if kinds == {str}:
        return list(map(_encode_str, values))
    if kinds == {int}:
        texts = list(map(int.__repr__, values))
        if max(values) > JSON_SAFE_INT or min(values) < -JSON_SAFE_INT:
            texts = [text if -JSON_SAFE_INT <= value <= JSON_SAFE_INT else '"' + text + '"'
                     for value, text in zip(values, texts)]
        return texts
    return list(map(_scalar_text, values))


def _scalar_text(value) -> str | None:
    """JSON text of a scalar, or None for a container.  str, safe ints, bools
    and None are written here; every other value follows jsonable (big ints
    and Fractions as strings, TypeError for unsupported types) and json's
    own float rule (NaN, Infinity)."""
    kind = type(value)
    if kind is str:
        return _encode_str(value)
    if kind is int and -JSON_SAFE_INT <= value <= JSON_SAFE_INT:
        return int.__repr__(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, (dict, list, tuple)):
        return None
    return json.dumps(jsonable(value))


def strip_timings(doc: dict) -> dict:
    """Copy of a report document with every timing block removed; the result
    is byte-stable across repeated runs with identical arguments."""
    out = {k: v for k, v in doc.items() if k != "timings"}
    if "cases" in out:
        out["cases"] = [{k: v for k, v in c.items() if k != "timings"}
                        for c in out["cases"]]
    return out
