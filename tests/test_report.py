import gc
import hashlib
import io
import json
from contextlib import redirect_stdout
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from powg import FamilyParams, MatchingPolynomial, report
from powg.cli import main
from powg.formulas import FAMILY_TAGS, MODES, FamilyTable, paper_hosoya_index
from powg.report import JSON_SAFE_INT, jsonable, render_report, strip_timings, verify_cases

# sha256 of the timing-stripped report below, recorded when each mode's
# family rows gave way to its family sums; the earlier report with its rows
# summed per family renders to the same bytes
PINNED_REPORT_SHA256 = "87d0279a04edd9c12d255ec8916cb856649340f8cf3edecd03bd29de0a4aae2f"
# the same report without engine_stats, recorded at the same change
PINNED_NO_ENGINE_STATS_SHA256 = \
    "ead1af7935c5dc3acea44f04deac3138ddd77c478eafffb88d31af506d73992d"


def test_pinned_report_digest():
    doc = strip_timings(verify_cases([2, 3, 4], [3, 5], skip_index_above=24))
    text = render_report(doc)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == PINNED_REPORT_SHA256
    for case in doc["cases"]:
        del case["engine_stats"]
    text = render_report(doc)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == \
        PINNED_NO_ENGINE_STATS_SHA256


# sha256 of timing-stripped verify reports, recorded when each mode's
# family rows gave way to its family sums; every other byte is the report of
# the engine with the chain leaf, the batched pairs and the product memo.  At
# the default cut-off the index runs at every order, 24, 40, 48 and 80 here.
# CI checks VERIFY_LADDER_SHA256 with verify_report_digest.
VERIFY_DEFAULT_SHA256 = "32a6801bfe6a6c471575d9c2e8f71f1de5a4c6bd51d69201fc278d69aa14d57f"
VERIFY_LADDER_SHA256 = "a25a553eb8ac610e4bce8cb559e80fe22a0f9b541fa6306804e5926b165609f2"
# sha256 chained over the timing-stripped report of each of the 66 valid
# (k, p), the index on up to order 224, recorded at the same change.  CI
# checks it with valid_cases_report_digest(test_formulas.VALID_CASES).
VERIFY_VALID_CASES_SHA256 = "f3c3431a984847a5c49d48cca2ef5dc73ea4b10e4335fd872332d0cd1cdd9b1d"
VALID_CASES_SKIP_INDEX_ABOVE = 224


def verify_report_digest(argv) -> str:
    """sha256 of the report that `powg verify` with these arguments writes to
    stdout, run in process, with its timing blocks stripped."""
    out = io.StringIO()
    with redirect_stdout(out):
        assert main(["verify", *argv]) == 0
    doc = strip_timings(json.loads(out.getvalue()))
    return hashlib.sha256(render_report(doc).encode("utf-8")).hexdigest()


def test_verify_report_pinned_at_the_default_cut_off():
    doc = strip_timings(verify_cases([2, 3], [3, 5]))
    text = render_report(doc)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == VERIFY_DEFAULT_SHA256
    # the final sort of the diff rows alone fixes their order
    for case in doc["cases"]:
        keys = [(d["invariant"], d["location"], d["mode"]) for d in case["diffs"]]
        assert len(set(keys)) == len(keys)


def valid_cases_report_digest(cases) -> str:
    """sha256 over the rendered, timing-stripped report of each case in
    turn, one verify_cases run per case."""
    digest = hashlib.sha256()
    for k, p in cases:
        doc = strip_timings(verify_cases([k], [p], skip_index_above=VALID_CASES_SKIP_INDEX_ABOVE))
        digest.update(render_report(doc).encode("utf-8"))
    return digest.hexdigest()


def _hand_built_blocks(index=None):
    """An oracle block, two paper blocks and the classes h1-h3 (sizes 2, 2
    and 3) small enough to list every diff row they give by hand."""
    oracle = {
        "hosoya_coefficients": [5, 3, 2],
        "rs_hosoya_terms": {"2": 1, "3/2": 4},
        "degrees": {"e": 4, "u": 2, "h1": {3: 2}, "h2": {1: 1, 2: 1}, "h3": {5: 3}},
        "edge_kind_counts": {"eu": 1, "vw": 2},
        "hosoya_index": index,
    }
    shared = {
        "hosoya_coefficients": [5, 4],
        "degrees": {"e": 4, "u": 3, "h1": 3, "h2": 2, "h3": 4},
        "edge_kind_counts": {"eu": 1, "yz": 6},
    }
    paper = {
        "printed": {**shared, "rs_hosoya_terms": {"2": 1}, "hosoya_index": {"total": 9}},
        "corrected": {**shared, "rs_hosoya_terms": {"2": 2}, "hosoya_index": {"total": 10}},
    }
    part = SimpleNamespace(h1=[1, 2], h2=[3, 4], h3=[5, 6, 7])
    return oracle, paper, part


def _row(invariant, location, oracle, paper, mode):
    return {"invariant": invariant, "location": location, "oracle": oracle, "paper": paper,
            "mode": mode}


def test_diff_rows_follow_one_rule_on_hand_built_blocks():
    oracle, paper, part = _hand_built_blocks()
    assert report._diff_rows(oracle, paper, part) == [
        # h1 gives each of its 2 vertices the stated degree 3: no row
        _row("degrees", "h2", {1: 1, 2: 1}, 2, "both"),
        _row("degrees", "h3", {5: 3}, 4, "both"),
        _row("degrees", "u", 2, 3, "both"),
        _row("edge_types", "vw", 2, 0, "both"),
        _row("edge_types", "yz", 0, 6, "both"),
        _row("hosoya_polynomial", "dis1", 3, 4, "both"),
        _row("hosoya_polynomial", "dis2", 2, 0, "both"),
        # x^3/2 is on the oracle side only, a row in each mode
        _row("rs_hosoya", "x^2", 1, 2, "corrected"),
        _row("rs_hosoya", "x^3/2", 4, 0, "corrected"),
        _row("rs_hosoya", "x^3/2", 4, 0, "printed"),
    ]
    # the short side is the oracle's: its missing dis2 counts as 0
    paper["printed"]["hosoya_coefficients"] = [5, 3, 2, 7]
    rows = report._diff_rows(oracle, paper, part)
    assert [r for r in rows if r["invariant"] == "hosoya_polynomial"] == [
        _row("hosoya_polynomial", "dis3", 0, 7, "both")]


def test_diff_rows_of_the_index_in_each_mode():
    oracle, paper, part = _hand_built_blocks(index=10)
    rows = report._diff_rows(oracle, paper, part)
    assert [r for r in rows if r["invariant"] == "hosoya_index"] == [
        _row("hosoya_index", "total", 10, 9, "printed")]
    assert rows == sorted(rows, key=lambda r: (r["invariant"], r["location"], r["mode"]))
    oracle["hosoya_index"] = None  # skipped: no index row in either mode
    assert [r for r in report._diff_rows(oracle, paper, part)
            if r["invariant"] == "hosoya_index"] == []


def json_oracle(doc) -> str:
    """The report text as the json module writes it; render_report must match
    it byte for byte."""
    return json.dumps(jsonable(doc), sort_keys=True, indent=2) + "\n"


SAFE_EDGE_INTS = [JSON_SAFE_INT, -JSON_SAFE_INT, JSON_SAFE_INT + 1, -JSON_SAFE_INT - 1,
                  -(10 ** 40), 0]
scalars = st.one_of(
    st.integers(),
    st.sampled_from(SAFE_EDGE_INTS),
    st.booleans(),
    st.none(),
    st.sampled_from([0.1, -0.0, 1e300, float("nan"), float("inf"), float("-inf")]),
    st.text(alphabet=st.sampled_from(['"', "\\", "\x00", "\x1f", "\n", "\x7f", "a", "é",
                                      "\u2028", "\U0001F600"])),
)
keys = st.one_of(
    st.text(max_size=3, alphabet="ab12/"),
    st.integers(min_value=-3, max_value=3),
    st.builds(Fraction, st.integers(min_value=-3, max_value=3), st.integers(min_value=1, max_value=2)),
)
documents = st.recursive(
    scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=5),
        st.lists(inner, max_size=5).map(tuple),
        st.lists(st.integers(min_value=-JSON_SAFE_INT, max_value=JSON_SAFE_INT), max_size=5),
        st.dictionaries(keys, inner, max_size=5),
        st.dictionaries(st.text(max_size=3), scalars, max_size=5),
    ),
    max_leaves=30,
)


@settings(max_examples=200, deadline=None)
@given(documents)
def test_render_report_matches_json_oracle(doc):
    assert render_report(doc) == json_oracle(doc)


def test_render_report_fixed_documents_match_json_oracle():
    collide = {1: "int", "1": "str", Fraction(1, 2): "fraction", 2.5: "float", None: "none"}
    assert render_report(collide) == json_oracle(collide)
    assert json.loads(render_report(collide))["1"] == "str"  # the last value wins
    empties = {"d": {}, "l": [], "t": (), "nested": [[], {}, ((),), {"x": {}}]}
    assert render_report(empties) == json_oracle(empties)
    # record lists on the column path: quoting edges, bool beside int, % keys
    records = [[{"n": JSON_SAFE_INT + 1}, {"n": JSON_SAFE_INT}],
               [{"n": -JSON_SAFE_INT - 1}, {"n": -JSON_SAFE_INT}],
               [{"n": True}, {"n": 1}], [{"%s": 1, "%(a)s": "%"}, {"%s": 2, "%(a)s": "%%"}],
               [{"a": [1, {"b": 2}], "c": None}, {"a": 3, "c": "x"}], [{}, {}]]
    assert render_report(records) == json_oracle(records)
    doc = verify_cases([2, 3], [3], skip_index_above=24)
    assert isinstance(doc["timings"]["total"], float)
    assert render_report(doc) == json_oracle(doc)
    # a Fraction key is written by str(), but no report holds a Fraction value
    with pytest.raises(TypeError, match="cannot serialize Fraction"):
        render_report({"rs": Fraction(1, 2)})


# keys with %, non-ASCII keys, and "1", which collides with the int key 1
# once keys are converted
record_keys = st.sampled_from(["%", "%s", "%%", "%(a)s", "a%d", "é", "\u2028", "1", "count"])
column_kinds = st.sampled_from([
    st.integers(),
    # no value beyond the edges, so the extreme of the column sits on one
    st.sampled_from([JSON_SAFE_INT, -JSON_SAFE_INT, JSON_SAFE_INT + 1, -JSON_SAFE_INT - 1, 0]),
    st.one_of(st.integers(min_value=-2, max_value=2), st.booleans()),
    st.booleans(),
    st.text(max_size=3, alphabet='a%"é\x00\u2028'),
    st.one_of(st.none(), st.text(max_size=2, alphabet="a%é")),
    st.sampled_from([0.5, -0.0, float("nan"), float("inf")]),
    documents,
])


@st.composite
def record_lists(draw):
    """0 to 6 dicts that share one key set, each column drawn from one kind.
    Some lists mix in a second insertion order, some share a non-str key, and
    in some a dict gains a key of its own."""
    keys = draw(st.lists(record_keys, min_size=1, max_size=4, unique=True))
    if draw(st.integers(min_value=0, max_value=3)) == 0:
        keys.insert(draw(st.integers(min_value=0, max_value=len(keys))),
                    draw(st.sampled_from([1, -1, Fraction(1, 2)])))
    kinds = [draw(column_kinds) for _ in keys]
    other_order = draw(st.permutations(keys))
    mix_orders, extra_keys = (draw(st.integers(min_value=0, max_value=3)) == 0
                              for _ in range(2))
    rows = []
    for _ in range(draw(st.integers(min_value=0, max_value=6))):
        row = {key: draw(kind) for key, kind in zip(keys, kinds)}
        if mix_orders and draw(st.booleans()):
            row = {key: row[key] for key in other_order}
        if extra_keys and draw(st.booleans()):
            row[draw(st.sampled_from([0, "zz"]))] = draw(scalars)
        rows.append(row)
    return draw(st.sampled_from([rows, tuple(rows), {"rows": rows}, [rows[:1], {"x": rows}]]))


@settings(max_examples=300, deadline=None)
@given(record_lists())
def test_render_report_record_lists_match_json_oracle(doc):
    assert render_report(doc) == json_oracle(doc)


# the record path reads every row with one itemgetter over the sorted keys of
# the first row; these lists sit on either side of what it accepts
RECORD_PATH_CASES = {
    # itemgetter with one key returns the bare value, not a 1-tuple
    "single-key": ([{"n": 1}, {"n": JSON_SAFE_INT + 1}, {"n": -2}], (("n",), 1)),
    "two-insertion-orders": ([{"b": 1, "a": "x"}, {"a": "y", "b": 2}], (("a", "b"), 2)),
    "missing-key": ([{"a": 1, "b": 2}, {"a": 3}], None),
    "extra-key": ([{"a": 1}, {"a": 2, "b": 3}], None),
    "extra-key-first": ([{"a": 1, "b": 3}, {"a": 2}], None),
    "same-length-other-keys": ([{"a": 1}, {"b": 2}], None),
    # a None-or-str column, written by one comprehension
    "none-or-str": ([{"note": None, "m": "M1"}, {"note": "é\u2028%s", "m": "M5"},
                     {"note": None, "m": "\u00fc"}], (("m", "note"), 2)),
    "not-all-dicts": ([{"a": 1}, [("a", 1)]], None),
}


@pytest.mark.parametrize("name", sorted(RECORD_PATH_CASES))
def test_render_report_record_path_edges(name):
    rows, expected = RECORD_PATH_CASES[name]
    found = report._record_columns(rows)
    assert (found if found is None else (found[0], len(found[1]))) == expected
    for doc in (rows, {"rows": rows}, [rows, rows[:1]]):
        assert render_report(doc) == json_oracle(doc)


def test_render_report_ladder_matches_json_oracle():
    doc = strip_timings(verify_cases([2, 3, 4, 5, 6], [3, 5, 7], skip_index_above=24))
    assert render_report(doc) == json_oracle(doc)


LADDER = [(k, p) for k in range(2, 7) for p in (3, 5, 7)]


def family_sum_mismatches(cases) -> list:
    """The (k, p, mode) whose verify report holds other family sums than the
    rows of paper_hosoya_index add up to, family by family, or a total other
    than 1 plus their sum."""
    bad = []
    for k, p in cases:
        paper = verify_cases([k], [p], skip_index_above=0)["cases"][0]["paper"]
        for mode in MODES:
            block = paper[mode]["hosoya_index"]
            sums = dict.fromkeys(FAMILY_TAGS, 0)
            for row in paper_hosoya_index(k, p, mode)[1]:
                sums[row["family"]] += row["count"]
            if block["family_sums"] != sums or block["total"] != 1 + sum(sums.values()):
                bad.append((k, p, mode))
    return bad


@pytest.mark.parametrize("k,p", LADDER)
def test_family_sums_add_up_the_table_rows(k, p):
    assert family_sum_mismatches([(k, p)]) == []


# 5,001 digits, past the 4,300 that int.__str__ accepts on Python 3.11+
BIG = 10 ** 5000 + 1
BIG_DIGITS = "1" + "0" * 4999 + "1"


def test_ints_past_the_digit_limit_are_written():
    assert report._record_columns([{"n": BIG}, {"n": -BIG}]) is not None
    for doc, expected in [
        ({"n": BIG, "m": -BIG}, {"n": BIG_DIGITS, "m": "-" + BIG_DIGITS}),
        ([{"n": BIG}, {"n": -BIG}], [{"n": BIG_DIGITS}, {"n": "-" + BIG_DIGITS}]),
    ]:
        assert jsonable(doc) == expected
        assert render_report(doc) == json.dumps(expected, sort_keys=True, indent=2) + "\n"


def test_render_report_leaves_no_garbage():
    doc = verify_cases([2], [3])
    gc.collect()
    gc.disable()
    try:
        text = render_report(doc)
        unreachable = gc.collect()
    finally:
        gc.enable()
    assert unreachable == 0
    assert text == json_oracle(doc)


def test_no_record_reaches_a_report_document():
    # the records are named tuples, which the writer would take for lists
    def containers(value):
        if isinstance(value, (dict, list, tuple)):
            yield value
            for item in (value.values() if isinstance(value, dict) else value):
                yield from containers(item)

    doc = verify_cases([2, 3], [3, 5], skip_index_above=40)
    assert {type(c) for c in containers(doc)} <= {dict, list, tuple}


@pytest.mark.parametrize("doc", [
    object(), {"x": [1, {2, 3}]}, {1: b"bytes"},
    # records are tuple subclasses, not JSON arrays
    {"x": FamilyParams(2, 3)}, {"x": [MatchingPolynomial((1,))]},
    # a family table is no list: reports hold its sums (FamilyTable.sums)
    {"x": FamilyTable({"M2": (range(1, 3), [1, 2])})},
])
def test_render_report_rejects_unsupported_types(doc):
    with pytest.raises(TypeError):
        render_report(doc)
    with pytest.raises(TypeError):
        jsonable(doc)


def _verify_23(tmp_path, name, *extra):
    out = tmp_path / name
    rc = main(["verify", "--k", "2", "--p", "3", *extra, "--out", str(out)])
    return rc, json.loads(out.read_text(encoding="utf-8"))


def _stale_entry_is_ignored(tmp_path, monkeypatch, raw: bytes):
    """Plant raw where earlier versions kept the (2, 3) twin run, then check
    that verify never reads or rewrites it: the report equals a --no-cache
    run and the entry keeps its bytes."""
    cache_dir = tmp_path / "cache"
    cache_dir.mkdir()
    path = cache_dir / f"sdl-k2-p3-matching-poly-twin-{'0' * 64}.json"
    path.write_bytes(raw)
    monkeypatch.setenv("POWG_CACHE_DIR", str(cache_dir))
    rc, doc = _verify_23(tmp_path, "default.json")
    assert rc == 0
    rc, fresh = _verify_23(tmp_path, "fresh.json", "--no-cache")
    assert rc == 0
    assert doc["cases"][0]["oracle"]["hosoya_index"] == 2911488
    assert strip_timings(doc) == strip_timings(fresh)
    assert path.read_bytes() == raw
    assert list(cache_dir.iterdir()) == [path]


@pytest.mark.parametrize("entry", [
    {"stats": {}},
    {"coeffs": ["1", "77"]},
    {"coeffs": ["1", "7.5"], "stats": {"memo_entries": 1, "subproblems": 1}},
    {"coeffs": [1, True], "stats": {"memo_entries": 1, "subproblems": 1}},
    {"coeffs": ["1"], "stats": {"memo_entries": "many", "subproblems": 1}},
    {"coeffs": [], "stats": {"memo_entries": 1, "subproblems": 1}},
    ["not", "an", "entry"],
    # well-formed but wrong for the 77-edge (2,3) graph: m_1, m_2, length
    {"coeffs": ["1", "82"], "stats": {"memo_entries": 1, "subproblems": 1}},
    {"coeffs": ["1", "77", "2161"], "stats": {"memo_entries": 1, "subproblems": 1}},
    {"coeffs": ["1", "77", "2160"] + ["0"] * 11,
     "stats": {"memo_entries": 1, "subproblems": 1}},
])
def test_corrupt_cache_entry_is_a_miss(tmp_path, monkeypatch, entry):
    _stale_entry_is_ignored(tmp_path, monkeypatch, json.dumps(entry).encode("utf-8"))


@pytest.mark.parametrize("raw", [b"\xff\xfe{", b"[" * 100_000],
                         ids=["not-utf8", "nested-deeper-than-json-loads-recurses"])
def test_undecodable_cache_entry_is_a_miss(tmp_path, monkeypatch, raw):
    _stale_entry_is_ignored(tmp_path, monkeypatch, raw)


def test_cache_alone_never_decides_the_index(tmp_path, monkeypatch):
    # m_3 + 1 keeps m_0, m_1, m_2 and the length right, so no identity rejects it
    coeffs = report.family_matching_polynomial(2, 3)
    coeffs[3] += 1
    entry = {"coeffs": [str(c) for c in coeffs],
             "stats": {"memo_entries": 1, "subproblems": 1, "classes": 1}}
    _stale_entry_is_ignored(tmp_path, monkeypatch, json.dumps(entry).encode("utf-8"))


def test_cache_dir_naming_a_regular_file_is_ignored(tmp_path, monkeypatch, capsys):
    not_a_dir = tmp_path / "cache"
    not_a_dir.write_text("a regular file", encoding="utf-8")
    monkeypatch.setenv("POWG_CACHE_DIR", str(not_a_dir))
    rc, doc = _verify_23(tmp_path, "default.json")
    assert rc == 0
    assert capsys.readouterr().err == ""
    rc, fresh = _verify_23(tmp_path, "fresh.json", "--no-cache")
    assert rc == 0
    assert strip_timings(doc) == strip_timings(fresh)
    assert not_a_dir.read_text(encoding="utf-8") == "a regular file"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cache", "default.json", "fresh.json"]


def _count_off_by_one(monkeypatch):
    """Make the order-arithmetic count return m_3 + 1, which keeps m_0, m_1,
    m_2 and the length right."""
    real_count = report.family_matching_polynomial

    def off_by_one(k, p):
        coeffs = real_count(k, p)
        coeffs[3] += 1
        return coeffs

    monkeypatch.setattr(report, "family_matching_polynomial", off_by_one)


def test_engines_that_disagree_stop_the_run(monkeypatch):
    _count_off_by_one(monkeypatch)
    with pytest.raises(report.CrossCheckError,
                       match="decomposition engine and the arithmetic count disagree"):
        report.compare(2, 3)


def test_cross_check_failure_exits_4_with_one_line(tmp_path, monkeypatch, capsys):
    _count_off_by_one(monkeypatch)
    out = tmp_path / "report.json"
    assert main(["verify", "--k", "2", "--p", "3", "--out", str(out)]) == 4
    err = capsys.readouterr().err.splitlines()
    assert err == ["powg: cross-check failed: the decomposition engine and the "
                   "arithmetic count disagree on sdl-k2-p3"]
    assert not out.exists()
