"""Verification reports: exact oracle computations on the family power graph
diffed against the published closed forms, in both evaluation modes.

Reports are deterministic for a fixed case and configuration; wall-clock
timings are isolated in a separate "timings" block.  Integers larger than
2^53 are serialized as decimal strings so lossy JSON consumers cannot
corrupt them.
"""

from __future__ import annotations

import json
import operator
import time
from collections import Counter

from . import __version__
from .distance import distance_profile
from .formulas import (
    MODES,
    family_matching_polynomial,
    paper_degree_claims,
    paper_edge_type_counts,
    paper_family_sums,
    paper_hosoya_coeffs,
    paper_rs_hosoya,
)
from .graphs import build_power_graph, classify_edges, verify_structure_theorem
from .groups import MAX_ORDER, FamilyParams, build_family, partition
from .matching import MatchingEngine, _digits

JSON_SAFE_INT = 1 << 53
_encode_str = json.encoder.encode_basestring_ascii  # the C escaper json itself uses
DEFAULT_SKIP_INDEX_ABOVE = MAX_ORDER  # every valid case has its index


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
        return _digits(value) if abs(value) > JSON_SAFE_INT else value
    if isinstance(value, float):
        return value
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if type(value) in (list, tuple):  # a named tuple is not a JSON array
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
    """Diff rows of one case, sorted by (invariant, location, mode).

    Each invariant is a map, and a location is a key with the invariant's
    prefix: the Hosoya coefficients by "dis{i}", the rs terms by "x^{exp}",
    the degrees by class, the edge kinds by kind and the index by "total".
    A class histogram that gives every vertex of h1, h2 or h3 the stated
    degree reads as that degree.  One rule then compares every pair of maps:
    a location missing from one side counts as 0, and a row is written where
    the values differ.  The blocks that do not depend on the mode are
    compared once, against the block of MODES[0] (printed), with mode
    "both"; the rs terms and the index once per mode, the index only when it
    was computed.
    """
    printed = paper_by_mode[MODES[0]]
    stated = printed["degrees"]
    uniform = {cls: {stated[cls]: len(getattr(part, cls))} for cls in ("h1", "h2", "h3")}
    checks = [
        ("hosoya_polynomial", "both", "dis", dict(enumerate(oracle["hosoya_coefficients"])),
         dict(enumerate(printed["hosoya_coefficients"]))),
        ("degrees", "both", "", {cls: stated[cls] if value == uniform.get(cls) else value
                                 for cls, value in oracle["degrees"].items()}, stated),
        ("edge_types", "both", "", oracle["edge_kind_counts"], printed["edge_kind_counts"]),
    ]
    for mode in MODES:
        block = paper_by_mode[mode]
        checks.append(("rs_hosoya", mode, "x^", oracle["rs_hosoya_terms"], block["rs_hosoya_terms"]))
        if oracle["hosoya_index"] is not None:
            checks.append(("hosoya_index", mode, "", {"total": oracle["hosoya_index"]},
                           {"total": block["hosoya_index"]["total"]}))

    diffs = []
    for invariant, mode, prefix, o_map, p_map in checks:
        for key in o_map | p_map:
            ov, pv = o_map.get(key, 0), p_map.get(key, 0)
            if ov != pv:
                diffs.append({"invariant": invariant, "location": f"{prefix}{key}",
                              "oracle": ov, "paper": pv, "mode": mode})
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
        "structure_theorem": struct._asdict(),
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
    for mode in MODES:
        sums = paper_family_sums(k, p, mode)
        paper_by_mode[mode] = {
            "hosoya_coefficients": coeffs,
            "rs_hosoya_terms": paper_rs_hosoya(k, p, mode).term_strings(),
            "degrees": degrees,
            "edge_kind_counts": kinds,
            "hosoya_index": {"total": 1 + sum(sums.values()), "family_sums": sums},
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
    """Deterministic JSON rendering (timings vary run to run, nothing else),
    byte-identical to json.dumps(jsonable(doc), sort_keys=True, indent=2)
    + "\\n", the tests' oracle, but streamed into one chunk list without the
    converted copy or json's pure-Python indent encoder.

    A dict is written as one row, value by value.  A list of plain dicts that
    share one set of str keys, such as the diff rows, takes the texts of each
    column in one pass (see _record_columns and _column_texts) and is
    written row by row.
    """
    chunks: list[str] = []
    out = chunks.append

    def write_rows(rows, keys: tuple, row_texts, newline: str) -> None:
        """Append dicts with the sorted str keys, given the JSON texts of
        each row's values (None for a container), one per line break."""
        inner = newline + "  "
        heads = ["," + inner + _encode_str(key) + ": " for key in keys]
        heads[0] = "{" + heads[0][1:]
        for n, (row, texts) in enumerate(zip(rows, row_texts)):
            if n:
                out("," + newline)
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
            keys = tuple(sorted(value))
            write_rows([value], keys, [map(_scalar_text, map(value.__getitem__, keys))], newline)
            return
        if type(value) not in (list, tuple):
            out(_scalar_text(value))
            return
        if not value:
            out("[]")
            return
        inner = newline + "  "
        records = _record_columns(value)
        if records:
            keys, columns = records
            out("[" + inner)
            write_rows(value, keys, zip(*map(_column_texts, columns)), inner)
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

    try:
        write(doc, "\n")
    finally:
        del write, write_rows  # the two closures hold each other: break the cycle
    out("\n")
    return "".join(chunks)


def _record_columns(items) -> tuple[tuple, list] | None:
    """Sorted keys and value columns of a list of plain dicts that share one
    non-empty set of str keys, or None for any other list: one itemgetter
    pass reads every row, and a KeyError or another length rejects it."""
    if set(map(type, items)) != {dict} or set(map(type, items[0])) != {str}:
        return None
    keys = tuple(sorted(items[0]))
    try:
        cells = list(map(operator.itemgetter(*keys), items))
    except KeyError:
        return None
    if set(map(len, items)) != {len(keys)}:
        return None
    return keys, list(zip(*cells)) if len(keys) > 1 else [cells]  # one key: bare values


def _column_texts(values) -> list:
    """JSON texts of one column of values, None for a container.  A str or
    int (quoted beyond 2^53) column takes one pass."""
    kinds = set(map(type, values))
    if kinds == {str}:
        return list(map(_encode_str, values))
    if kinds == {int}:
        texts = _int_reprs(values)
        if max(values) > JSON_SAFE_INT or min(values) < -JSON_SAFE_INT:
            texts = [text if -JSON_SAFE_INT <= value <= JSON_SAFE_INT else '"' + text + '"'
                     for value, text in zip(values, texts)]
        return texts
    return list(map(_scalar_text, values))


def _int_reprs(values) -> list[str]:
    """The decimal texts of a list of ints, in one pass."""
    try:
        return list(map(int.__repr__, values))
    except ValueError:  # past the digit limit
        return list(map(_digits, values))


def _scalar_text(value) -> str | None:
    """JSON text of a scalar, or None for a container.  Values other than
    str, safe ints, bools and None follow jsonable (TypeError for unsupported
    types) and json's own float rule (NaN, Infinity)."""
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
    if isinstance(value, dict) or kind in (list, tuple):
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
