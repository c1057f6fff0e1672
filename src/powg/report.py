"""Verification reports: exact oracle computations on the family power graph
diffed against the published closed forms, in both evaluation modes.

Reports are deterministic for a fixed case and configuration; wall-clock
timings are isolated in a separate "timings" block.  Integers larger than
2^53 are serialized as decimal strings so lossy JSON consumers cannot
corrupt them.
"""

from __future__ import annotations

import functools
import json
import math
import os
import re
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

try:  # builtin sha256 first: importing hashlib maps OpenSSL, about 3.5 MB resident
    from _sha2 import sha256  # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256
    except ImportError:
        from hashlib import sha256

from . import __version__, matching
from .distance import distance_profile
from .formulas import (
    paper_degree_claims,
    paper_edge_type_counts,
    paper_hosoya_coeffs,
    paper_hosoya_index,
    paper_rs_hosoya,
)
from .graphs import build_power_graph, classify_edges, verify_structure_theorem
from .groups import FamilyParams, build_family, partition
from .matching import DEFAULT_MEMO_LIMIT, MatchingEngine, TwinEngine

JSON_SAFE_INT = 1 << 53
DEFAULT_SKIP_INDEX_ABOVE = 56
# the twin run's statistics, as reported and as stored with its cache entry
CACHED_STATS = ("memo_entries", "subproblems", "classes")


def default_cache_dir() -> Path:
    env = os.environ.get("POWG_CACHE_DIR")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "powg"


@functools.cache
def _engine_digest() -> str:
    """sha256 of the matching engine's source; cache entries are keyed by it,
    so any engine change retires every stored result."""
    return sha256(Path(matching.__file__).read_bytes()).hexdigest()


class ResultCache:
    """On-disk map for expensive results, keyed by case and engine source."""

    def __init__(self, root: Path | str | None = None):
        self.root = Path(root) if root is not None else default_cache_dir()
        self.warned = False

    def _path(self, parts) -> Path:
        name = "-".join(re.sub(r"[^A-Za-z0-9._]+", "_", str(p)) for p in parts)
        return self.root / f"{name}.json"

    def get(self, parts):
        path = self._path(parts)
        if not path.exists():
            return None
        try:
            return json.loads(path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError):
            return None

    def put(self, parts, obj) -> None:
        """Store obj under parts.  The result is already computed, so a cache
        that cannot be written costs one warning line on stderr, once per
        cache, not the run."""
        try:
            self.root.mkdir(parents=True, exist_ok=True)
            # a unique temp name per writer, so concurrent runs never share one
            fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".tmp")
            try:
                with os.fdopen(fd, "w", encoding="utf-8") as fh:
                    fh.write(json.dumps(obj, sort_keys=True))
                os.replace(tmp, self._path(parts))
            except BaseException:
                os.unlink(tmp)
                raise
        except OSError as exc:
            if not self.warned:
                self.warned = True
                # mkdir(exist_ok=True) raises FileExistsError only for a non-directory
                reason = ("not a directory" if isinstance(exc, FileExistsError)
                          else exc.strerror or exc)
                print(f"powg: warning: cannot write cache entry in {self.root}: "
                      f"{reason}", file=sys.stderr)


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


def _cached_run(entry, graph):
    """(coeffs, stats) of a cached engine run, or None when the entry is absent,
    malformed (missing fields, non-integer values) or contradicts the graph:
    a miss, recomputed.  The checks are exact identities of any matching
    polynomial: m_0 = 1, m_1 = |E|, m_2 = C(|E|, 2) - sum_v C(deg v, 2) and
    at most n // 2 + 1 coefficients."""
    try:
        coeffs = [_cached_int(c) for c in entry["coeffs"]]
        stats = {k: _cached_int(entry["stats"][k]) for k in CACHED_STATS}
    except (TypeError, KeyError, ValueError):
        return None
    edges = graph.edge_count
    m2 = math.comb(edges, 2) - sum(math.comb(graph.degree(v), 2) for v in range(graph.n))
    if (coeffs + [0, 0])[:3] != [1, edges, m2] or len(coeffs) > graph.n // 2 + 1:
        return None
    return coeffs, stats


def _cached_int(value) -> int:
    if isinstance(value, str) and value.isascii() and value.isdigit():
        return int(value)
    if type(value) is int:
        return value
    raise ValueError(f"not an integer: {value!r}")


def _oracle_index(graph, memo_limit, cache, case_tag):
    """Matching polynomial of the graph from two structurally different
    engines, with a cross-check that they agree.  The decomposition run is
    the primary oracle; it is always fresh and never touches the cache, so
    the cache alone never decides a result.  The twin-class run is its
    cross-check: served from its entry (keyed by case and engine digest)
    only when the entry passes _cached_run and equals the primary
    polynomial; anything else is a miss, recomputed and overwritten."""
    engine = MatchingEngine(graph, memo_limit=memo_limit)
    coeffs = list(engine.run().coeffs)
    runs = [{"engine": "decomposition", **engine.stats}]

    key = (case_tag, "matching-poly", "twin", _engine_digest())
    hit = _cached_run(cache.get(key), graph) if cache is not None else None
    if hit is not None and hit[0] == coeffs:
        check, stats = hit
    else:
        twin = TwinEngine(graph, memo_limit=memo_limit)
        check = list(twin.run().coeffs)
        stats = {k: twin.stats[k] for k in CACHED_STATS}
        if cache is not None:
            cache.put(key, {"coeffs": [str(c) for c in check], "stats": stats})
    runs.append({"engine": "twin", **stats})
    identical = check == coeffs
    if not identical:
        raise RuntimeError(
            f"matching engine cross-check failed: decomposition and twin engines "
            f"disagree on {case_tag}"
        )
    return coeffs, runs, identical


def _degree_block(graph, part):
    def hist(vertices):
        h: dict[int, int] = {}
        for v in sorted(vertices):
            d = graph.degree(v)
            h[d] = h.get(d, 0) + 1
        return dict(sorted(h.items()))

    return {
        "e": graph.degree(0),
        "u": graph.degree(part.u),
        "h1": hist(part.h1),
        "h2": hist(part.h2),
        "h3": hist(part.h3),
    }


def _diff_rows(oracle, paper_by_mode, part):
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

    for mode in ("printed", "corrected"):
        o_terms = oracle["rs_hosoya_terms"]
        p_terms = paper_by_mode[mode]["rs_hosoya_terms"]
        for exp in sorted(set(o_terms) | set(p_terms), key=Fraction, reverse=True):
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


def compare(k: int, p: int, *, include_index: bool = True,
            memo_limit: int = DEFAULT_MEMO_LIMIT,
            cache: ResultCache | None = None) -> dict:
    """Oracle-vs-closed-form comparison for one (k, p) case.

    Returns the report fragment: case identity, oracle block, per-mode
    closed-form block, diff rows, and engine statistics.
    """
    params = FamilyParams(k, p)
    case_tag = f"sdl-k{k}-p{p}"
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
    engine_stats = {"runs": [], "skipped": not include_index}
    if include_index:
        coeffs, runs, identical = _oracle_index(graph, memo_limit, cache, case_tag)
        engine_stats = {"runs": runs, "skipped": False,
                        "cross_check_identical": identical}
        index_val = sum(coeffs)
        poly_val = coeffs
    else:
        index_val = None
        poly_val = None
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
        "structure_theorem": {
            "edges_total": struct.edges_total,
            "edges_in_r": struct.edges_in_r,
            "pendant_count": struct.pendant_count,
            "pair_edge_count": struct.pair_edge_count,
            "cyclic_edge_count": struct.cyclic_edge_count,
            "prefix_matches_cyclic": struct.prefix_matches_cyclic,
            "cover_ok": struct.cover_ok,
            "disjoint_ok": struct.disjoint_ok,
            "count_identity_ok": struct.count_identity_ok,
        },
        "matching_polynomial": poly_val,
        "hosoya_index": index_val,
        "index_skipped": not include_index,
    }

    t0 = time.perf_counter()
    paper_by_mode = {}
    for mode in ("printed", "corrected"):
        total, terms = paper_hosoya_index(k, p, mode)
        paper_by_mode[mode] = {
            "hosoya_coefficients": list(paper_hosoya_coeffs(k, p)),
            "rs_hosoya_terms": paper_rs_hosoya(k, p, mode).term_strings(),
            "degrees": paper_degree_claims(k, p),
            "edge_kind_counts": paper_edge_type_counts(k, p),
            "hosoya_index": {
                "total": total,
                "families": [
                    {"family": t.family, "order": t.order, "count": t.count,
                     "note": t.note}
                    for t in terms
                ],
            },
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


def verify_cases(ks, ps, *, skip_index_above: int = DEFAULT_SKIP_INDEX_ABOVE,
                 use_cache: bool = True, cache_dir=None,
                 memo_limit: int = DEFAULT_MEMO_LIMIT) -> dict:
    """Run the comparison for every (k, p) in the cartesian product and
    assemble the verification document."""
    cache = ResultCache(cache_dir) if use_cache else None
    cases = []
    t0 = time.perf_counter()
    for k in ks:
        for p in ps:
            params = FamilyParams(k, p)
            include_index = params.order <= skip_index_above
            cases.append(compare(k, p, include_index=include_index,
                                 memo_limit=memo_limit, cache=cache))
    return {
        "tool": "powg",
        "version": __version__,
        "cases": cases,
        "timings": {"total": time.perf_counter() - t0},
    }


def render_report(doc: dict) -> str:
    """Deterministic JSON rendering (timings vary run to run, nothing else)."""
    return json.dumps(jsonable(doc), sort_keys=True, indent=2) + "\n"


def strip_timings(doc: dict) -> dict:
    """Copy of a report document with every timing block removed; the result
    is byte-stable across repeated runs with identical arguments."""
    out = {k: v for k, v in doc.items() if k != "timings"}
    if "cases" in out:
        out["cases"] = [{k: v for k, v in c.items() if k != "timings"}
                        for c in out["cases"]]
    return out
