import json
import subprocess
import sys

import pytest

from powg import telephone_number
from powg.cli import main
from powg.report import jsonable, strip_timings


def run_cli(args, **kwargs):
    return subprocess.run([sys.executable, "-m", "powg", *args],
                          capture_output=True, text=True, **kwargs)


def test_group_info_family():
    res = run_cli(["group", "--family", "sdl", "--k", "2", "--p", "3", "info"])
    assert res.returncode == 0
    assert "order: 24" in res.stdout
    assert "partition sizes: H0=2 H1=10 H2=6 H3=6" in res.stdout


def test_group_info_cyclic():
    res = run_cli(["group", "--cyclic", "6", "info"])
    assert res.returncode == 0
    assert "order: 6" in res.stdout


def test_group_info_invalid_p():
    res = run_cli(["group", "--family", "sdl", "--k", "2", "--p", "4", "info"])
    assert res.returncode == 2


def test_usage_errors_exit_1():
    assert run_cli(["group", "info"]).returncode == 1
    assert run_cli(["group", "--cyclic", "5", "--family", "sdl",
                    "--k", "2", "--p", "3", "info"]).returncode == 1
    assert run_cli(["bogus"]).returncode == 1


def test_invariant_hosoya():
    res = run_cli(["invariant", "hosoya", "--cyclic", "6"])
    assert res.returncode == 0
    assert res.stdout.strip() == "6 + 13x + 2x^2"


def test_invariant_hosoya_index():
    res = run_cli(["invariant", "hosoya-index", "--cyclic", "4"])
    assert res.stdout.strip() == "10"


def test_invariant_matching_poly():
    res = run_cli(["invariant", "matching-poly", "--cyclic", "4"])
    assert res.stdout.splitlines() == ["m_0=1, m_1=6, m_2=3", "Z=10"]


def test_hosoya_index_of_a_complete_power_graph_of_order_1024():
    # P(Z_1024) is K_1024: one join of universal vertices, no deep recursion
    res = run_cli(["invariant", "hosoya-index", "--cyclic", "1024"])
    assert res.returncode == 0, res.stderr
    assert res.stdout == f"{telephone_number(1024)}\n"


def test_invariant_wiener_and_rs():
    assert run_cli(["invariant", "wiener", "--cyclic", "6"]).stdout.strip() == "17"
    res = run_cli(["invariant", "rs-hosoya", "--cyclic", "4"])
    assert res.stdout.strip() == "6·x^6"


def test_graph_export(tmp_path):
    res = run_cli(["graph", "--cyclic", "2", "--format", "edges"])
    assert res.stdout == "0 1\n"
    out = tmp_path / "fam.dot"
    res = run_cli(["graph", "--family", "sdl", "--k", "2", "--p", "3",
                   "--format", "dot", "-o", str(out)])
    assert res.returncode == 0
    text = out.read_text(encoding="utf-8")
    assert text.startswith("graph powg {")
    assert sum(1 for ln in text.splitlines() if " -- " in ln) == 77


def test_cayley_selection(tmp_path):
    table = tmp_path / "z4.txt"
    table.write_text("4\n0 1 2 3\n1 2 3 0\n2 3 0 1\n3 0 1 2\n", encoding="utf-8")
    res = run_cli(["group", "--cayley", str(table), "info"])
    assert res.returncode == 0
    assert "order: 4" in res.stdout
    bad = tmp_path / "bad.txt"
    bad.write_text("3\n0 1 2\n1 0 0\n2 0 1\n", encoding="utf-8")
    assert run_cli(["group", "--cayley", str(bad), "info"]).returncode == 2
    assert run_cli(["group", "--cayley", str(tmp_path / "nope.txt"),
                    "info"]).returncode == 2


def test_paper_eval_outputs():
    res = run_cli(["paper", "eval", "--k", "2", "--p", "3", "--which", "hosoya"])
    assert res.stdout.splitlines() == ["dis0=24", "dis1=87", "dis2=189"]
    res = run_cli(["paper", "eval", "--k", "2", "--p", "3", "--which", "rs-hosoya",
                   "--mode", "corrected"])
    assert res.stdout.strip() == \
        "1·x^43 + 10·x^40 + 6·x^36 + 6·x^35 + 45·x^34 + 6·x^33 + 3·x^26"
    res = run_cli(["paper", "eval", "--k", "2", "--p", "3", "--which", "degrees"])
    assert "u=17" in res.stdout
    res = run_cli(["paper", "eval", "--k", "2", "--p", "3", "--which", "edge-types"])
    assert "vw=45" in res.stdout and "total=77" in res.stdout
    res = run_cli(["paper", "eval", "--k", "2", "--p", "3", "--which", "index",
                   "--mode", "printed"])
    lines = res.stdout.splitlines()
    assert lines[0] == "total=343377989"
    assert "M9[2]=36" in lines
    assert "M10[2]=18" in lines
    res = run_cli(["paper", "eval", "--k", "2", "--p", "4", "--which", "hosoya"])
    assert res.returncode == 2


def verify_doc(tmp_path, name, extra=(), env_dir=None):
    out = tmp_path / name
    env = None
    if env_dir is not None:
        import os
        env = dict(os.environ, POWG_CACHE_DIR=str(env_dir))
    res = run_cli(["verify", "--k", "2", "--p", "3", "--out", str(out), *extra],
                  env=env)
    assert res.returncode == 0, res.stderr
    return out.read_text(encoding="utf-8")


def test_verify_report_content(tmp_path):
    text = verify_doc(tmp_path, "r.json", ["--skip-index-above", "0", "--no-cache"])
    doc = json.loads(text)
    case = doc["cases"][0]
    assert case["case"] == {"family": "sdl", "k": 2, "p": 3, "order": 24}
    assert case["oracle"]["index_skipped"] is True
    assert case["oracle"]["hosoya_index"] is None
    diffs = {(d["invariant"], d["location"]): d for d in case["diffs"]}
    assert diffs[("hosoya_polynomial", "dis1")]["oracle"] == 77
    assert diffs[("hosoya_polynomial", "dis1")]["paper"] == 87
    assert diffs[("degrees", "u")]["oracle"] == 15


def test_verify_cartesian_product(tmp_path):
    out = tmp_path / "multi.json"
    res = run_cli(["verify", "--k", "2,3", "--p", "3,5", "--out", str(out),
                   "--skip-index-above", "0", "--no-cache"])
    assert res.returncode == 0
    doc = json.loads(out.read_text(encoding="utf-8"))
    assert [(c["case"]["k"], c["case"]["p"]) for c in doc["cases"]] == \
        [(2, 3), (2, 5), (3, 3), (3, 5)]


def test_verify_deterministic_and_cache(tmp_path):
    cache_dir = tmp_path / "cache"
    first = verify_doc(tmp_path, "a.json", env_dir=cache_dir)
    second = verify_doc(tmp_path, "b.json", env_dir=cache_dir)
    third = verify_doc(tmp_path, "c.json", ["--no-cache"], env_dir=cache_dir)

    def stable(text):
        return json.dumps(strip_timings(json.loads(text)), sort_keys=True)

    assert stable(first) == stable(second) == stable(third)
    # verify keeps no cache: POWG_CACHE_DIR is not read, and nothing is written there
    assert not cache_dir.exists()
    doc = json.loads(first)
    assert doc["cases"][0]["oracle"]["hosoya_index"] == 2911488


def test_verify_resource_limit_exit_3(tmp_path, monkeypatch):
    import powg.cli as cli_mod
    monkeypatch.setattr(cli_mod, "DEFAULT_MEMO_LIMIT", 4)
    rc = cli_mod.main(["verify", "--k", "2", "--p", "3", "--no-cache",
                       "--out", str(tmp_path / "x.json")])
    assert rc == 3


def test_main_returns_codes_in_process(tmp_path):
    assert main(["invariant", "wiener", "--cyclic", "4"]) == 0
    assert main(["group", "--family", "sdl", "--k", "1", "--p", "3", "info"]) == 2
    assert main(["verify", "--k", "", "--p", "3", "--no-cache"]) == 1
    assert main(["verify", "--k", "1", "--p", "3", "--no-cache"]) == 2


def test_bigint_serialization():
    assert jsonable({"z": 2**60, "small": 7}) == {"z": str(2**60), "small": 7}
    assert jsonable([True, 2**54]) == [True, str(2**54)]


def test_unwritable_output_is_invalid_input(tmp_path, capsys):
    missing = tmp_path / "missing" / "out.txt"
    for argv in (["verify", "--k", "2", "--p", "3", "--skip-index-above", "0",
                  "--no-cache", "--out", str(missing)],
                 ["graph", "--cyclic", "4", "--format", "edges", "-o", str(missing)]):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err == f"powg: invalid input: cannot write {missing}: No such file or directory\n"
    assert not missing.parent.exists()
