import hashlib
import io
import json
import os
import subprocess
import sys
from collections import Counter
from contextlib import redirect_stdout

import pytest

import powg
from conftest import cayley_text, oracle_groups
from powg import GroupError, MatchingEngine, MatchingLimitError, MatchingPolynomial, \
    build_cyclic, build_power_graph, element_order, export, load_cayley_table, telephone_number
from powg import cli
from powg.cli import UsageError, build_parser, main
from powg.formulas import M5_ORDER_2_NOTE, FamilyTable
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


def test_k_and_p_without_family_are_usage_errors(tmp_path, capsys):
    table = tmp_path / "z2.txt"
    table.write_text("2\n0 1\n1 0\n", encoding="utf-8")
    for selection in (["--cyclic", "4"], ["--cayley", str(table)]):
        for extra in (["--k", "2", "--p", "3"], ["--k", "2"], ["--p", "3"]):
            for argv in (["group", *selection, *extra, "info"],
                         ["graph", *selection, *extra, "--format", "edges"],
                         ["invariant", "wiener", *selection, *extra]):
                assert main(argv) == 1, argv
                captured = capsys.readouterr()
                assert captured.out == "", argv
                assert captured.err == "powg: error: --k and --p require --family\n", argv
    # paper and verify take their own --k and --p
    assert main(["paper", "eval", "--k", "2", "--p", "3", "--which", "hosoya"]) == 0
    assert capsys.readouterr().out == "dis0=24\ndis1=87\ndis2=189\n"


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
    # P(Z_1024) is K_1024: every vertex is universal, so the engine reads the
    # K_n row at once, with no deep recursion
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


def paper_index_digest(cases) -> str:
    """sha256 of the concatenated stdout of `powg paper eval --which index`,
    run in process for every case in printed and then corrected mode."""
    out = io.StringIO()
    with redirect_stdout(out):
        for k, p in cases:
            for mode in ("printed", "corrected"):
                assert main(["paper", "eval", "--k", str(k), "--p", str(p),
                             "--which", "index", "--mode", mode]) == 0
    return hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()


# recorded from the frozen per-term printer, before paper_hosoya_index returned
# the report's rows; CI checks PAPER_INDEX_FULL_SHA256 over every valid order
PAPER_INDEX_LADDER_SHA256 = "e149b568bc145abec1bfaa975b92aaa3d684441fbb2ee884b160b26ec4884af0"
PAPER_INDEX_FULL_SHA256 = "ae503b0f33347fde3dd10c34f6ccf2dbf44c11e7ffd07b0ffd6ad5bdf6a8c20d"


def test_paper_eval_index_pinned_on_the_ladder():
    ladder = [(k, p) for k in range(2, 7) for p in (3, 5, 7)]
    assert paper_index_digest(ladder) == PAPER_INDEX_LADDER_SHA256


def family_command_digest(cases) -> str:
    """sha256 of the concatenated stdout of every `--family` command that
    prints a group or its power graph (group info, graph in both formats,
    and the hosoya, rs-hosoya and wiener invariants), run in process for
    every case."""
    out = io.StringIO()
    with redirect_stdout(out):
        for k, p in cases:
            family = ["--family", "sdl", "--k", str(k), "--p", str(p)]
            argvs = [["group", *family, "info"]]
            argvs += [["graph", *family, "--format", fmt] for fmt in ("edges", "dot")]
            argvs += [["invariant", which, *family] for which in ("hosoya", "rs-hosoya", "wiener")]
            for argv in argvs:
                assert main(argv) == 0, argv
    return hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()


# recorded while the family group was an explicit Cayley table, before its
# power graph was walked on the product rule
FAMILY_COMMANDS_LADDER_SHA256 = "710f6a479db75785d83be7d35edca6dc203a3d10c911d3eacb87dfc35dfac921"


def test_family_commands_pinned_on_the_ladder():
    ladder = [(k, p) for k in range(2, 7) for p in (3, 5, 7)]
    assert family_command_digest(ladder) == FAMILY_COMMANDS_LADDER_SHA256


def cyclic_command_digest() -> str:
    """sha256 of the concatenated stdout of the `--cyclic N` commands, run in
    process: group info and the hosoya, rs-hosoya and wiener invariants on
    N = 1..64 and eight larger N up to 1024, both graph formats on N <= 64,
    210 and 256, and matching-poly and hosoya-index on N <= 30."""
    small = range(1, 65)
    argvs = [argv for n in [*small, 100, 210, 256, 360, 512, 997, 1000, 1024]
             for argv in [["group", "--cyclic", str(n), "info"]]
             + [["invariant", which, "--cyclic", str(n)]
                for which in ("hosoya", "rs-hosoya", "wiener")]]
    argvs += [["graph", "--cyclic", str(n), "--format", fmt]
              for n in [*small, 210, 256] for fmt in ("edges", "dot")]
    argvs += [["invariant", which, "--cyclic", str(n)]
              for n in range(1, 31) for which in ("matching-poly", "hosoya-index")]
    out = io.StringIO()
    with redirect_stdout(out):
        for argv in argvs:
            assert main(argv) == 0, argv
    return hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()


# recorded while Z_N was an explicit N x N Cayley table, before its power
# graph was walked on the rule a + b mod N
CYCLIC_COMMANDS_SHA256 = "793bf8dc99a07f64ffe4ff7e025f026c7fda4dc1a461874ea308d0c657c036b9"


def test_cyclic_commands_pinned():
    assert cyclic_command_digest() == CYCLIC_COMMANDS_SHA256


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
    import powg.matching as matching_mod
    monkeypatch.setattr(matching_mod, "MEMO_LIMIT", 4)
    rc = main(["verify", "--k", "2", "--p", "3", "--no-cache",
                       "--out", str(tmp_path / "x.json")])
    assert rc == 3


# CPython 3.11 reports a frame it cannot allocate as this SystemError
@pytest.mark.parametrize("error", [MemoryError(),
                                   SystemError("error return without exception set")])
def test_memory_exhaustion_in_the_engine_exits_3(error, tmp_path, monkeypatch, capsys):
    real = MatchingEngine._connected_poly

    def starved(self, cmask):
        if len(self.memo) >= 3:
            raise error
        return real(self, cmask)

    monkeypatch.setattr(MatchingEngine, "_connected_poly", starved)
    # P(Z_60) needs thousands of memo entries: the chain leaf does not hold
    # on it or on most of its subgraphs (P(Z_12) is one chain leaf)
    engine = MatchingEngine(build_power_graph(build_cyclic(60)))
    with pytest.raises(MatchingLimitError, match="^memory exhausted at 60 vertices$"):
        engine.run()
    assert engine.memo == {}
    for argv, n in ((["invariant", "hosoya-index", "--cyclic", "60"], 60),
                    (["verify", "--k", "2", "--p", "3", "--out", str(tmp_path / "r.json")], 24)):
        assert main(argv) == 3, argv
        out, err = capsys.readouterr()
        assert out == "" and "Traceback" not in err
        assert err.splitlines() == [f"powg: resource limit: memory exhausted at {n} vertices"]
    assert not (tmp_path / "r.json").exists()


# main builds the sub-parser of a command named by its first token alone;
# every argv here must parse, print and fail as under the full tree
PARSER_ARGV = [
    ["group", "--cyclic", "6", "info"],
    ["graph", "--cyclic", "4", "--format", "dot", "-o", "g.dot"],
    ["invariant", "hosoya-index", "--family", "sdl", "--k", "2", "--p", "3"],
    ["paper", "eval", "--k", "2", "--p", "3", "--which", "index", "--mode", "corrected"],
    ["verify", "--k", "2,3", "--p", "3", "--skip-index-above", "0", "--no-cache"],
    ["group", "-h"], ["graph", "-h"], ["invariant", "-h"], ["paper", "-h"], ["verify", "-h"],
    [], ["-h"], ["--he"], ["bogus"], ["--"], ["-h", "verify"], ["verify", "verify"],
    ["group", "--cyclic", "6"],
    ["graph", "--cyclic", "4"],
    ["invariant", "--cyclic", "6"],
    ["paper", "eval", "--k", "2", "--p", "3"],
    ["verify", "--k", "2"],
    ["group", "--cyclic", "6", "show"],
    ["graph", "--cyclic", "4", "--format", "png"],
    ["invariant", "diameter", "--cyclic", "6"],
    ["paper", "eval", "--k", "2", "--p", "3", "--which", "all"],
    ["verify", "--k", "2", "--p", "3", "--skip-index-above", "many"],
    ["group", "--cyclic", "6", "info", "extra"],
    ["paper", "eval", "--k", "2", "--p", "3", "--which", "index", "--k2", "4"],
]


def _parse_outcome(parser, argv, capsys):
    try:
        outcome = vars(parser.parse_args(argv))
    except UsageError as exc:
        outcome = ("usage error", str(exc))
    except SystemExit as exc:
        outcome = ("exit", exc.code)
    return outcome, capsys.readouterr()


def test_main_parses_every_argv_as_the_full_parser_does(monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.setattr(cli, "_DISPATCH", dict.fromkeys(cli._DISPATCH, lambda args: 0))
    built = []
    monkeypatch.setattr(cli, "build_parser",
                        lambda *a: built.append((a, build_parser(*a))) or built[-1][1])
    for argv in PARSER_ARGV:
        built.clear()
        main(list(argv))
        capsys.readouterr()
        [(args, parser)] = built
        command = argv[0] if argv and argv[0] in cli._DISPATCH else None
        assert args == (command,), argv
        assert _parse_outcome(parser, argv, capsys) == \
            _parse_outcome(build_parser(), argv, capsys), argv


def test_main_returns_codes_in_process(tmp_path):
    assert main(["invariant", "wiener", "--cyclic", "4"]) == 0
    assert main(["group", "--family", "sdl", "--k", "1", "--p", "3", "info"]) == 2
    assert main(["verify", "--k", "", "--p", "3", "--no-cache"]) == 1
    assert main(["verify", "--k", "1", "--p", "3", "--no-cache"]) == 2


def test_verify_above_max_order_is_invalid_input(tmp_path, capsys):
    # the default index cut-off is MAX_ORDER itself; one order past it is
    # rejected before any work, as before
    out = tmp_path / "r.json"
    assert main(["verify", "--k", "7", "--p", "5", "--out", str(out)]) == 2
    assert capsys.readouterr().err == ("powg: invalid input: group order 2^(k+1)*p = 1280 "
                                       "exceeds the supported exact-table size (1024)\n")
    assert not out.exists()


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


@pytest.mark.parametrize("argv,lines", [
    # 1.4 MB of rows, far past what a pipe buffers: a later write meets the closed pipe
    (["paper", "eval", "--k", "6", "--p", "7", "--which", "index"], 1),
    # one short line, written after the reader has left
    (["invariant", "matching-poly", "--cyclic", "30"], 0),
])
def test_closed_stdout_pipe_is_invalid_input(argv, lines):
    proc = subprocess.Popen([sys.executable, "-m", "powg", *argv], stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    for _ in range(lines):
        proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait() == 2
    assert err == "powg: invalid input: cannot write stdout: Broken pipe\n"


def test_group_info_histogram_matches_element_orders(tmp_path, capsys):
    for i, g in enumerate(oracle_groups()):
        path = tmp_path / f"g{i}.txt"
        path.write_text(cayley_text(g), encoding="utf-8")
        assert main(["group", "--cayley", str(path), "info"]) == 0
        hist = Counter(element_order(g, x) for x in g.elements())
        expected = " ".join(f"{t}:{c}" for t, c in sorted(hist.items()))
        assert capsys.readouterr().out == f"order: {g.order}\nelement orders: {expected}\n", i


def test_cayley_file_with_byte_order_mark(tmp_path, capsys):
    text = "4\r\n0 1 2 3\r\n1 2 3 0\r\n2 3 0 1\r\n3 0 1 2\r\nlabel 0 e\r\n"
    plain, marked = tmp_path / "plain.txt", tmp_path / "marked.txt"
    plain.write_bytes(text.encode("utf-8"))
    marked.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
    for argv in (["group", "--cayley", "{}", "info"],
                 ["invariant", "hosoya", "--cayley", "{}"],
                 ["graph", "--cayley", "{}", "--format", "dot"]):
        outs = []
        for path in (plain, marked):
            assert main([a.format(path) for a in argv]) == 0
            outs.append(capsys.readouterr())
        assert outs[0] == outs[1] and outs[0].err == "", argv


def test_cayley_file_keeps_a_lone_carriage_return_in_a_label(tmp_path, capsys):
    # only LF ends a line, in the CLI as in load_cayley_table
    text = "2\n0 1\n1 0\nlabel 0 a\rb\n"
    path = tmp_path / "label.txt"
    path.write_bytes(text.encode("utf-8"))
    assert load_cayley_table(text).labels == ("a\rb", "1")
    assert main(["graph", "--cayley", str(path), "--format", "dot"]) == 0
    out = capsys.readouterr()
    assert out.err == ""
    assert out.out == export(build_power_graph(load_cayley_table(text)), "dot")
    assert '"a\rb" -- "1";' in out.out


def test_cayley_file_does_not_split_a_row_at_a_lone_carriage_return(tmp_path, capsys):
    text = "2\n0 1\r1 0\n"
    path = tmp_path / "rows.txt"
    path.write_bytes(text.encode("utf-8"))
    with pytest.raises(GroupError, match="^expected 2 table rows, found 1$"):
        load_cayley_table(text)
    assert main(["group", "--cayley", str(path), "info"]) == 2
    assert capsys.readouterr() == ("", "powg: invalid input: expected 2 table rows, found 1\n")


def test_cayley_file_labelling_one_index_twice_exits_2(tmp_path, capsys):
    path = tmp_path / "labels.txt"
    path.write_text("2\n0 1\n1 0\nlabel 1 x\n\nlabel 1 y\n", encoding="utf-8")
    assert main(["group", "--cayley", str(path), "info"]) == 2
    assert capsys.readouterr() == \
        ("", "powg: invalid input: line 6: index 1 already labelled on line 4\n")


# Runs commands through main in a python -S interpreter, then names the
# modules of that list which the import or any command loaded.
FOOTPRINT_PROBE = """\
import os, sys
sys.path.insert(0, sys.argv[1])
from powg.cli import main
for argv in (["verify", "--k", "2", "--p", "3", "--out", os.devnull],
             ["invariant", "rs-hosoya", "--cyclic", "12"],
             ["group", "--cyclic", "8", "info"]):
    assert main(argv) == 0, argv
print("loaded:", sorted({"dataclasses", "inspect", "ast", "dis", "pathlib"} & set(sys.modules)))
"""


def test_commands_load_no_dataclasses_inspect_or_pathlib():
    src = os.path.dirname(os.path.dirname(powg.__file__))
    res = subprocess.run([sys.executable, "-S", "-c", FOOTPRINT_PROBE, src],
                         capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines()[-1] == "loaded: []"


# Runs every command that prints a reciprocal-status exponent or a count
# through main in a python -S interpreter, then names the number modules
# which the import or any command loaded.
NUMBER_MODULES_PROBE = """\
import os, sys
sys.path.insert(0, sys.argv[1])
from powg.cli import main
for argv in (["verify", "--k", "2", "--p", "3", "--out", os.devnull],
             ["invariant", "rs-hosoya", "--cyclic", "12"],
             ["paper", "eval", "--k", "2", "--p", "3", "--which", "rs-hosoya"],
             ["paper", "eval", "--k", "2", "--p", "3", "--which", "index"],
             ["group", "--cyclic", "8", "info"]):
    assert main(argv) == 0, argv
print("loaded:", sorted({"fractions", "decimal"} & set(sys.modules)))
"""


def test_commands_load_no_fractions_or_decimal():
    src = os.path.dirname(os.path.dirname(powg.__file__))
    res = subprocess.run([sys.executable, "-S", "-c", NUMBER_MODULES_PROBE, src],
                         capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines()[-1] == "loaded: []"


# 5,001 digits, past the 4,300 that int.__str__ accepts on Python 3.11+
BIG = 10 ** 5000 + 1
BIG_DIGITS = "1" + "0" * 4999 + "1"


@pytest.mark.parametrize("sign", [1, -1])
def test_text_outputs_write_ints_past_the_digit_limit(sign, monkeypatch, capsys):
    value, digits = sign * BIG, "-" * (sign < 0) + BIG_DIGITS
    other = "-" * (sign > 0) + BIG_DIGITS  # the digits of -value
    assert MatchingPolynomial((1, value, -value)).render() == \
        f"m_0=1, m_1={digits}, m_2={other}\nZ=1"

    monkeypatch.setattr(cli, "matching_polynomial", lambda graph: MatchingPolynomial((value,)))
    assert main(["invariant", "matching-poly", "--cyclic", "4"]) == 0
    assert capsys.readouterr().out == f"m_0={digits}\nZ={digits}\n"
    assert main(["invariant", "hosoya-index", "--cyclic", "4"]) == 0
    assert capsys.readouterr().out == digits + "\n"

    table = FamilyTable({"M5": (range(2, 4), [value, -value])})
    monkeypatch.setattr(cli, "paper_hosoya_index", lambda k, p, mode: (value, table))
    assert main(["paper", "eval", "--k", "2", "--p", "3", "--which", "index"]) == 0
    assert capsys.readouterr().out == \
        f"total={digits}\nM5[2]={digits}  # {M5_ORDER_2_NOTE}\nM5[3]={other}\n"
