"""The benchmark tracer (perfbench/tracing.py) binds powg functions and
methods by name; a rename or deletion in src/ must not break `--trace 1`.
The empty `report.ResultCache` stand-in is kept for this reason only."""

from pathlib import Path

from powg import cli

PERFBENCH = Path(__file__).parents[1] / "perfbench"


def test_tracer_installs_and_counts_a_verify_and_an_invariant(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracing import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        # through the module attribute, so the traced cli.main runs
        assert cli.main(["verify", "--k", "2", "--p", "3", "--skip-index-above", "24",
                         "--out", str(tmp_path / "report.json")]) == 0
        assert cli.main(["invariant", "matching-poly", "--cyclic", "12"]) == 0
    finally:
        tracer.remove()
    assert tracer.counts["matching.engine_runs"] == 2
    assert tracer.calls["report.render_report"] == 1
