"""powg benchmark: one workload, one seed, one fresh process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a powg checkout; the program is imported from its
`src/` directory and driven only through `powg.cli.main(argv)`, in process,
in a closed loop: one caller, and each operation starts after the previous
one returned.  Passes over the workload's operations repeat while the next
one is expected to end within S seconds.  Every answer is checked against
`references.json`.

--trace 0 prints the end-to-end metrics: `wall_s`, the median over passes
of the time spent inside the operations of one pass (checking answers
between operations is not counted); `setup_s`, the median time a fresh
interpreter needs to import `powg.cli`; `peak_rss_mb`, the process's maximum
resident set at the end.  Both times are scaled to a reference host speed
by a calibration kernel timed around each operation and each launch (see
`kernel_seconds`); the unscaled median is printed too.  The error rate is
printed with its counts and carried by `attempted` and `failed`.

--trace 1 alternates untraced and traced passes and prints the per-layer
metrics of the traced ones (medians over passes), each layer's share of the
traced wall time, and the tracing overhead.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  The exit code is 0 when every
operation matched its reference, 1 when one did not, 2 when no powg source
tree is found.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

from answers import mismatch, read_answers
from tracing import LAYERS, Tracer
from workloads import WORKLOADS, Op, build_pass

HERE = Path(__file__).resolve().parent
SETUP_LAUNCHES = 21
# The speed of a shared host drifts by up to a factor of two over minutes
# (see README.md), so every end-to-end time is scaled by the time of a fixed
# kernel measured next to it, to the speed at which the kernel takes this long.
REFERENCE_KERNEL_S = 0.025
_KERNEL_TABLE = tuple(range(4096))
IMPORT_PROBE = """\
import sys, time
sys.path.insert(0, sys.argv[1])
t0 = time.perf_counter()
import powg.cli
print(time.perf_counter() - t0)
"""


def kernel_seconds() -> float:
    """Time of a fixed loop of integer arithmetic and tuple indexing.  It
    allocates no containers, so it triggers no garbage collection and its
    time does not depend on what powg left in memory, only on the host."""
    table = _KERNEL_TABLE
    t0 = time.perf_counter()
    acc = 0
    for i in range(200_000):
        acc += table[(i * 2654435761) & 4095] ^ i
    return time.perf_counter() - t0


def scaled(seconds: float, kernel: float) -> float:
    """Seconds at the reference speed, where the kernel takes REFERENCE_KERNEL_S."""
    return seconds * REFERENCE_KERNEL_S / kernel


def measure_setup(src: Path, workdir: Path) -> float:
    """Median scaled seconds a fresh interpreter takes to import powg.cli."""
    times = []
    before = kernel_seconds()
    for _ in range(SETUP_LAUNCHES):
        done = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(src)], cwd=workdir,
                              capture_output=True, text=True, check=True, timeout=60)
        after = kernel_seconds()
        times.append(scaled(float(done.stdout), (before + after) / 2))
        before = after
    return statistics.median(times)


@dataclass(frozen=True)
class PassTimes:
    wall: float  # seconds inside the operations
    scaled_wall: float  # the same, each operation scaled by the kernel around it
    cpu: float  # process cpu seconds inside the operations
    kernel: float  # median kernel seconds


class Runner:
    """Runs operations through powg.cli.main and checks their answers."""

    def __init__(self, cli, references: dict, workdir: Path):
        self.cli = cli
        self.references = references
        self.workdir = workdir
        self.attempted = 0
        self.failed = 0

    def execute(self, op: Op) -> tuple[float, float, str | None, dict | None]:
        """(wall seconds, cpu seconds, failure or None, answers) of one
        operation, run with a fresh empty result cache."""
        cache = Path(tempfile.mkdtemp(prefix="cache-", dir=self.workdir))
        os.environ["POWG_CACHE_DIR"] = str(cache)
        stdout = io.StringIO()
        problem = answers = None
        c0, t0 = time.process_time(), time.perf_counter()
        try:
            with contextlib.redirect_stdout(stdout):
                code = self.cli.main(list(op.argv))
        except Exception:  # an operation that raises is a failed operation
            code, problem = None, traceback.format_exc()
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        shutil.rmtree(cache)
        if problem is None and code != 0:
            problem = f"exit code {code}"
        if problem is None:
            try:
                answers = read_answers(op, stdout.getvalue())
            except Exception:  # unreadable output is a wrong answer
                problem = "unreadable answer:\n" + traceback.format_exc()
        return wall, cpu, problem, answers

    def run_pass(self, ops: list[Op]) -> PassTimes:
        """Run and check one pass, timing the kernel before and after each
        operation."""
        wall = scaled_wall = cpu = 0.0
        kernels = [kernel_seconds()]
        for op in ops:
            op_wall, op_cpu, problem, answers = self.execute(op)
            kernels.append(kernel_seconds())
            wall += op_wall
            scaled_wall += scaled(op_wall, (kernels[-2] + kernels[-1]) / 2)
            cpu += op_cpu
            if problem is None:
                problem = mismatch(op, answers, self.references)
            self.attempted += 1
            if problem is not None:
                self.failed += 1
                print(f"perfbench: FAILED powg {' '.join(op.argv)}: {problem}",
                      file=sys.stderr)
        return PassTimes(wall, scaled_wall, cpu, statistics.median(kernels))


class NoSourceTree(Exception):
    pass


def import_powg(root: Path):
    """(src directory, powg.cli) from the checkout's src/ tree, never from an
    installed copy."""
    src = root / "src"
    if not (src / "powg" / "cli.py").is_file():
        raise NoSourceTree(f"perfbench: no powg source tree at {src}")
    sys.path.insert(0, str(src))
    import powg.cli

    if Path(powg.cli.__file__).resolve().parent != (src / "powg").resolve():
        raise NoSourceTree(f"perfbench: imported powg from {powg.cli.__file__}, not {src}")
    return src, powg.cli


def measure(args, runner: Runner, tracer: Tracer | None, workdir: Path):
    """Run passes while the next one is expected to end within --seconds,
    at least one.  With a tracer, each untraced pass is followed by a traced
    one.  Returns the times of untraced passes, the (times, metrics, layer
    self times) of traced passes, and the operations per pass."""
    plain, traced = [], []
    start = time.perf_counter()
    longest = 0.0
    index = 0
    while not plain or time.perf_counter() - start + longest <= args.seconds:
        began = time.perf_counter()
        for trace_this in ((False, True) if tracer else (False,)):
            passdir = workdir / f"pass{index}"
            passdir.mkdir()
            ops = build_pass(args.workload, args.seed, index, passdir)
            if trace_this:
                tracer.reset()
                tracer.install()
                try:
                    times = runner.run_pass(ops)
                finally:
                    tracer.remove()
                traced.append((times, tracer.pass_metrics(), tracer.layer_self_s()))
            else:
                plain.append(runner.run_pass(ops))
            shutil.rmtree(passdir)
            index += 1
        longest = max(longest, time.perf_counter() - began)
    return plain, traced, len(ops)


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ap.add_argument("--references", type=Path, default=HERE / "references.json",
                    help="reference answers (the self-test passes a corrupted copy)")
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    try:
        src, cli = import_powg(root)
    except NoSourceTree as exc:
        print(exc, file=sys.stderr)
        return 2
    references = json.loads(args.references.read_text(encoding="utf-8"))

    print(f"machine: nproc {os.cpu_count()}, python {platform.python_version()}, "
          f"{platform.machine()}")
    print(f"workload {args.workload}, seed {args.seed}, {args.seconds} s, "
          f"trace {args.trace}; load: one process, closed loop")

    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=root) as tmp:
        workdir = Path(tmp)
        # nothing may fall back to ~/.cache/powg
        os.environ["POWG_CACHE_DIR"] = str(workdir / "no-cache")
        setup_s = None if args.trace else measure_setup(src, workdir)
        runner = Runner(cli, references, workdir)
        tracer = Tracer() if args.trace else None
        plain, traced, ops_per_pass = measure(args, runner, tracer, workdir)

    attempted, failed = runner.attempted, runner.failed
    print(f"passes: {len(plain)} untraced, {len(traced)} traced; "
          f"{ops_per_pass} operations per pass")
    print(f"error_rate {failed / attempted:.6g} ratio ({failed} failed / {attempted} attempted)")

    wall_s = statistics.median(t.scaled_wall for t in plain)
    print(f"unscaled median pass: {statistics.median(t.wall for t in plain):.6g} s; "
          f"median kernel {statistics.median(t.kernel for t in plain):.6g} s, "
          f"reference {REFERENCE_KERNEL_S} s")
    if tracer is None:
        metrics = {
            "wall_s": (wall_s, "s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    else:
        metrics = {}
        for name in traced[0][1]:
            unit = ("s" if name.endswith("self_s")
                    else "bytes" if name.endswith("_bytes") else "count")
            metrics[name] = (statistics.median(m[name] for _, m, _ in traced), unit)
        for layer in LAYERS:
            share = statistics.median(layers[layer] / t.wall for t, _, layers in traced)
            metrics[f"{layer}.share"] = (share, "ratio")
            print(f"layer {layer:9s} {share:7.2%} of traced wall time")
        metrics["proc.cpu_s"] = (statistics.median(t.cpu for t in plain), "s")
        traced_wall = statistics.median(t.scaled_wall for t, _, _ in traced)
        metrics["trace.overhead_s"] = (traced_wall - wall_s, "s")

    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
