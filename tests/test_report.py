import hashlib
import json
import sys
import threading

import pytest

from powg import report
from powg.cli import main
from powg.report import ResultCache, render_report, strip_timings, verify_cases

# sha256 of the timing-stripped report below, recorded when the decomposition
# engine became the primary oracle, with the twin-class engine as its
# cross-check, and changed engine_stats
PINNED_REPORT_SHA256 = "05116e9e7ca1ef20db5c14726c7ede5fefe2fbc59a30d8d14398292cf0854111"
# the same report without engine_stats, recorded before that change: every
# oracle value, paper value and diff row is unchanged
PINNED_NO_ENGINE_STATS_SHA256 = \
    "bbe5301ebd236be9ecc3339740c72752061c84bcbd5e2387e418121648048b16"


def test_pinned_report_digest():
    doc = strip_timings(verify_cases([2, 3, 4], [3, 5], skip_index_above=24,
                                     use_cache=False))
    text = render_report(doc)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == PINNED_REPORT_SHA256
    for case in doc["cases"]:
        del case["engine_stats"]
    text = render_report(doc)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == \
        PINNED_NO_ENGINE_STATS_SHA256


def test_cache_put_leaves_one_entry_and_no_temp_files(tmp_path):
    cache = ResultCache(tmp_path)
    cache.put(("case", "poly"), {"coeffs": ["1"]})
    cache.put(("case", "poly"), {"coeffs": ["1", "2"]})
    assert [p.suffix for p in tmp_path.iterdir()] == [".json"]
    assert cache.get(("case", "poly")) == {"coeffs": ["1", "2"]}


def test_concurrent_cache_puts_do_not_collide(tmp_path):
    cache = ResultCache(tmp_path)
    errors = []

    def writer(tag):
        try:
            for i in range(100):
                cache.put(("case", "poly"), {"coeffs": [str(tag), str(i)]})
        except OSError as exc:
            errors.append(exc)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=writer, args=(t,)) for t in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert [p.suffix for p in tmp_path.iterdir()] == [".json"]
    assert cache.get(("case", "poly"))["coeffs"][1] == "99"


def test_cache_put_failure_removes_temp_file(tmp_path):
    cache = ResultCache(tmp_path)
    with pytest.raises(TypeError):
        cache.put(("case", "poly"), {"coeffs": object()})
    assert list(tmp_path.iterdir()) == []


def _verify_23(tmp_path, name):
    out = tmp_path / name
    rc = main(["verify", "--k", "2", "--p", "3", "--out", str(out)])
    return rc, json.loads(out.read_text(encoding="utf-8"))


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
    cache_dir = tmp_path / "cache"
    monkeypatch.setenv("POWG_CACHE_DIR", str(cache_dir))
    rc, fresh = _verify_23(tmp_path, "fresh.json")
    assert rc == 0
    entries = sorted(cache_dir.glob("*.json"))
    assert len(entries) == 1  # the decomposition run is always fresh, never cached
    stored = {path: json.loads(path.read_text(encoding="utf-8")) for path in entries}
    for path in entries:
        path.write_text(json.dumps(entry), encoding="utf-8")

    rc, again = _verify_23(tmp_path, "again.json")
    assert rc == 0
    assert again["cases"][0]["oracle"]["hosoya_index"] == 2911488
    assert strip_timings(again) == strip_timings(fresh)
    # the corrupt entries were recomputed and overwritten
    for path in entries:
        assert json.loads(path.read_text(encoding="utf-8")) == stored[path]


def test_entry_under_another_engine_digest_is_not_served(tmp_path, monkeypatch):
    cache_dir = tmp_path / "cache"
    monkeypatch.setenv("POWG_CACHE_DIR", str(cache_dir))
    rc, fresh = _verify_23(tmp_path, "fresh.json")
    assert rc == 0
    digest = report._engine_digest()
    entries = sorted(cache_dir.glob("*.json"))
    assert len(entries) == 1 and all(digest in p.name for p in entries)
    # move every entry to another digest, with stats no real run produces
    for path in entries:
        entry = json.loads(path.read_text(encoding="utf-8"))
        entry["stats"] = {"memo_entries": 7, "subproblems": 7}
        path.with_name(path.name.replace(digest, "0" * 64)).write_text(
            json.dumps(entry), encoding="utf-8")
        path.unlink()

    rc, again = _verify_23(tmp_path, "again.json")
    assert rc == 0
    assert strip_timings(again) == strip_timings(fresh)
    assert all(run["memo_entries"] != 7
               for run in again["cases"][0]["engine_stats"]["runs"])
    assert sorted(cache_dir.glob(f"*{digest}*")) == entries


def _bump_m3(path):
    entry = json.loads(path.read_text(encoding="utf-8"))
    entry["coeffs"][3] = str(int(entry["coeffs"][3]) + 1)
    path.write_text(json.dumps(entry), encoding="utf-8")


def test_cached_run_that_disagrees_with_the_fresh_run_is_recomputed(tmp_path, monkeypatch):
    # m_3 + 1 passes every identity _cached_run checks (m_0, m_1, m_2, length)
    cache_dir = tmp_path / "cache"
    monkeypatch.setenv("POWG_CACHE_DIR", str(cache_dir))
    rc, fresh = _verify_23(tmp_path, "fresh.json")
    assert rc == 0
    path = sorted(cache_dir.glob("*.json"))[0]
    stored = json.loads(path.read_text(encoding="utf-8"))
    _bump_m3(path)

    rc, again = _verify_23(tmp_path, "again.json")
    assert rc == 0
    assert strip_timings(again) == strip_timings(fresh)
    assert json.loads(path.read_text(encoding="utf-8")) == stored


def test_cache_alone_never_decides_the_index(tmp_path, monkeypatch):
    cache_dir = tmp_path / "cache"
    monkeypatch.setenv("POWG_CACHE_DIR", str(cache_dir))
    rc, fresh = _verify_23(tmp_path, "fresh.json")
    assert rc == 0
    entries = sorted(cache_dir.glob("*.json"))
    stored = {path: json.loads(path.read_text(encoding="utf-8")) for path in entries}
    for path in entries:
        _bump_m3(path)

    rc, again = _verify_23(tmp_path, "again.json")
    assert rc == 0
    assert again["cases"][0]["oracle"]["hosoya_index"] == 2911488
    assert strip_timings(again) == strip_timings(fresh)
    for path in entries:
        assert json.loads(path.read_text(encoding="utf-8")) == stored[path]


def test_unusable_cache_directory_is_a_warning(tmp_path, monkeypatch, capsys):
    not_a_dir = tmp_path / "cache"
    not_a_dir.write_text("a regular file", encoding="utf-8")
    monkeypatch.setenv("POWG_CACHE_DIR", str(not_a_dir))
    two_cases = ["verify", "--k", "2", "--p", "3,5"]
    assert main([*two_cases, "--out", str(tmp_path / "cached.json")]) == 0
    cached = json.loads((tmp_path / "cached.json").read_text(encoding="utf-8"))
    # one warning for the run, not one per case
    err = capsys.readouterr().err.splitlines()
    assert err == [f"powg: warning: cannot write cache entry in {not_a_dir}: "
                   f"not a directory"]
    assert main([*two_cases, "--no-cache", "--out", str(tmp_path / "fresh.json")]) == 0
    fresh = json.loads((tmp_path / "fresh.json").read_text(encoding="utf-8"))
    assert strip_timings(cached) == strip_timings(fresh)
    assert not_a_dir.read_text(encoding="utf-8") == "a regular file"


def test_engines_that_disagree_stop_the_run(monkeypatch):
    real_run = report.TwinEngine.run

    def off_by_one(self):
        coeffs = list(real_run(self).coeffs)
        coeffs[3] += 1
        return report.matching.MatchingPolynomial(tuple(coeffs))

    monkeypatch.setattr(report.TwinEngine, "run", off_by_one)
    with pytest.raises(RuntimeError, match="decomposition and twin engines disagree"):
        report.compare(2, 3, cache=None)
