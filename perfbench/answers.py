"""Read the answer of one `powg` operation and compare it with the references.

Answers are reduced to the invariants themselves, so the checks survive
changes to report layout, serialization of large integers, engine
statistics and timings; report bytes are never compared.
"""

from __future__ import annotations

import json

from workloads import Op, case_key


def _int(value) -> int:
    # reports write integers above 2^53 as decimal strings
    return int(value)


def _verify_answers(report_text: str) -> dict:
    answers = {}
    for case in json.loads(report_text)["cases"]:
        oracle, paper = case["oracle"], case["paper"]
        poly = oracle["matching_polynomial"]
        key = case_key(case["case"]["k"], case["case"]["p"], not oracle["index_skipped"])
        answers[key] = {
            "order": oracle["order"],
            "distance_counts": [_int(c) for c in oracle["hosoya_coefficients"]],
            "unreachable_pairs": _int(oracle["unreachable_pairs"]),
            "wiener": _int(oracle["wiener"]),
            "diameter": oracle["diameter"],
            "rs_hosoya_terms": {e: _int(c) for e, c in oracle["rs_hosoya_terms"].items()},
            "edge_count": _int(oracle["edge_count"]),
            "edge_kind_counts": {kind: _int(c)
                                 for kind, c in oracle["edge_kind_counts"].items()},
            "matching_polynomial": None if poly is None else [_int(c) for c in poly],
            "paper_total": {mode: _int(paper[mode]["hosoya_index"]["total"])
                            for mode in ("printed", "corrected")},
            "diff_keys": sorted([d["invariant"], d["location"], d["mode"]]
                                for d in case["diffs"]),
        }
    return answers


def _group_info(text: str) -> dict:
    fields = dict(line.split(": ", 1) for line in text.splitlines())
    hist = dict(item.split(":") for item in fields["element orders"].split())
    return {"order": int(fields["order"]),
            "element_orders": {t: int(c) for t, c in hist.items()}}


def _hosoya(text: str) -> dict:
    lines = text.splitlines()
    counts: dict[int, int] = {}
    for term in lines[0].split(" + "):  # "c", "cx" or "cx^i"
        coeff, x, power = term.partition("x")
        counts[(int(power[1:]) if power else 1) if x else 0] = int(coeff)
    unreachable = 0
    for line in lines[1:]:
        label, _, value = line.partition(": ")
        if label != "unreachable pairs":
            raise ValueError(f"unexpected line {line!r}")
        unreachable = int(value)
    return {"distance_counts": [counts.get(i, 0) for i in range(max(counts) + 1)],
            "unreachable_pairs": unreachable}


def _rs_hosoya(text: str) -> dict:
    terms = {}
    for term in text.strip().split(" + "):
        coeff, exp = term.split("·x^")
        terms[exp] = int(coeff)
    return {"rs_hosoya_terms": terms}


def _matching_poly(text: str) -> dict:
    coeff_line, total_line = text.splitlines()
    coeffs = [int(item.split("=")[1]) for item in coeff_line.split(", ")]
    if not total_line.startswith("Z="):
        raise ValueError(f"unexpected line {total_line!r}")
    return {"matching_polynomial": coeffs, "hosoya_index": int(total_line[2:])}


_TEXT_READERS = {
    "group-info": _group_info,
    "hosoya": _hosoya,
    "rs-hosoya": _rs_hosoya,
    "matching-poly": _matching_poly,
}


def read_answers(op: Op, stdout: str) -> dict:
    """Answers of one finished operation, keyed by reference key."""
    if op.kind == "verify":
        return _verify_answers(op.out.read_text(encoding="utf-8"))
    (key,) = op.keys
    return {key: _TEXT_READERS[op.kind](stdout)}


def mismatch(op: Op, answers: dict, references: dict) -> str | None:
    """None when the answers are exactly the references of the operation's
    keys, else a description of the first difference."""
    if sorted(answers) != sorted(op.keys):
        return f"answered {sorted(answers)}, expected {sorted(op.keys)}"
    for key in op.keys:
        if key not in references:
            return f"no reference for {key}"
        got, want = answers[key], references[key]
        for field in sorted(set(got) | set(want)):
            if got.get(field) != want.get(field):
                return f"{key}.{field}: got {got.get(field)!r}, expected {want.get(field)!r}"
    return None
