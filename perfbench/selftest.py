"""Self-test of the benchmark's checker.

    python3 perfbench/selftest.py

Run from the root of a powg checkout.  It checks two things and exits
non-zero if either fails:

1. Two seeds give identical answers on every input: the first pass of each
   workload is run with seeds 1 and 2, which relabel the tables and reorder
   the cases differently, and every answer must agree and match the
   references.
2. A corrupted reference is caught: for each workload one reference value
   is changed in a copy of references.json, and `run.py` with that copy
   must count a failed operation, report `"correct": false` and exit
   non-zero.
"""

from __future__ import annotations

import copy
import json
import subprocess
import sys
import tempfile
from pathlib import Path

from answers import mismatch
from run import HERE, Runner, import_powg
from workloads import WORKLOADS, build_pass


def pass_answers(runner: Runner, workload: str, seed: int, workdir: Path) -> dict:
    """Answers of pass 0, checked against the references as `run.py` does."""
    passdir = workdir / f"{workload}-{seed}"
    passdir.mkdir()
    answers = {}
    for op in build_pass(workload, seed, 0, passdir):
        _, _, problem, got = runner.execute(op)
        problem = problem or mismatch(op, got, runner.references)
        if problem is not None:
            raise AssertionError(f"seed {seed}: powg {' '.join(op.argv)}: {problem}")
        answers.update(got)
    return answers


def corrupt(value):
    """Copy of a reference answer with its first integer increased by one."""
    value = copy.deepcopy(value)
    stack = [value]
    while stack:
        node = stack.pop(0)
        items = sorted(node.items()) if isinstance(node, dict) else enumerate(node)
        for slot, leaf in items:
            if isinstance(leaf, int) and not isinstance(leaf, bool):
                node[slot] = leaf + 1
                return value
            if isinstance(leaf, (dict, list)):
                stack.append(leaf)
    raise ValueError("reference holds no integer")


def corrupted_run(root: Path, workload: str, references: dict, workdir: Path) -> str | None:
    """None when a run against a corrupted reference fails as it must."""
    key = build_pass(workload, 1, 0, workdir)[0].keys[0]
    bad = dict(references, **{key: corrupt(references[key])})
    path = workdir / f"{workload}-corrupted.json"
    path.write_text(json.dumps(bad), encoding="utf-8")
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", "0", "--references", str(path)],
        cwd=root, capture_output=True, text=True, timeout=600)
    result = json.loads(done.stdout.splitlines()[-1])
    if done.returncode == 0 or result["correct"] or result["failed"] < 1:
        return (f"corrupted {key}: exit {done.returncode}, correct {result['correct']}, "
                f"failed {result['failed']}")
    return None


def main() -> int:
    root = Path.cwd()
    _, cli = import_powg(root)
    references = json.loads((HERE / "references.json").read_text(encoding="utf-8"))
    problems = []
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=root) as tmp:
        workdir = Path(tmp)
        runner = Runner(cli, references, workdir)
        for workload in WORKLOADS:
            before = len(problems)
            try:
                first = pass_answers(runner, workload, 1, workdir)
                second = pass_answers(runner, workload, 2, workdir)
                if first != second:
                    problems.append(f"{workload}: seeds 1 and 2 answer differently")
            except AssertionError as exc:
                problems.append(f"{workload}: {exc}")
            problem = corrupted_run(root, workload, references, workdir)
            if problem is not None:
                problems.append(f"{workload}: {problem}")
            print(f"{workload}: {'ok' if len(problems) == before else 'FAIL'}", flush=True)
    print("\n".join(problems) if problems else "selftest passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
