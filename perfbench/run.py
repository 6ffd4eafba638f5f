"""singwave benchmark.

    python3 perfbench/run.py --workload {deep_order,wide_exact,shipped_cli}
                             --seed N --seconds S --trace {0,1}

Run from the root of a singwave checkout.  One client drives the program
in a closed loop, one ``singwave all`` at a time, until S seconds have
passed; then every output is checked against an independent reference
(see workloads.py and reference.py).  The last stdout line is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
The exit code is 1 when an output is wrong, 2 on a usage error.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from tracer import Tracer, write_spans  # noqa: E402
from workloads import (  # noqa: E402
    DEFECT,
    IN_PROCESS,
    OK,
    WORKLOADS,
    WRONG,
    Checker,
    generated_problem,
    max_denominator_bits,
    shipped_order,
)

#: what the ``singwave`` console command runs
CONSOLE_ENTRY = "import sys; from singwave.cli import main; sys.exit(main())"
#: fresh-interpreter set-ups per run; setup_s is their median
SETUP_PROBES = 11
#: a child process still running after this long is killed
CHILD_TIMEOUT_S = 120

#: inputs every run covers: deep_order always reaches the K=10 twin
MIN_INPUTS = {"deep_order": 2, "wide_exact": 1, "shipped_cli": 1, "wide_float": 1}

END_TO_END = {"op_p50_s": "s", "problems_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}

#: per-layer metric: (unit, how it is derived from the traced calls)
PER_LAYER = {
    "fuchsian.solve_s": ("s/call", ("total", "fuchsian.solve")),
    "fuchsian.solve_self_s": ("s/call", ("self", "fuchsian.solve")),
    "fuchsian.xmul_k_exponent": ("log2", None),
    "reduction.build_s": ("s/call", ("total", "reduction.build")),
    "reduction.build_self_s": ("s/call", ("self", "reduction.build")),
    "reduction.rhs_slice_calls": ("count/call", ("calls", "reduction.rhs_slice")),
    "reduction.rhs_slice_s": ("s/call", ("self", "reduction.rhs_slice")),
    "series.xmul_calls": ("count/call", ("calls", "series.xmul")),
    "series.xmul_s": ("s/call", ("self", "series.xmul")),
    "series.xmul_term_pairs": ("count/call", ("counts", "series.xmul_term_pairs")),
    "series.smul_calls": ("count/call", ("calls", "series.smul")),
    "series.smul_s": ("s/call", ("self", "series.smul")),
    "series.xeval_calls": ("count/call", ("calls", "series.xeval")),
    "series.xeval_s": ("s/call", ("self", "series.xeval")),
    "series.max_den_bits": ("bits", None),
    "verify.numeric_s": ("s/call", ("self", "verify.numeric")),
    "verify.symbolic_s": ("s/call", ("self", "verify.symbolic")),
    "verify.samples": ("count/call", None),
    "nonlinearity.jet_calls": ("count/call", ("calls", "nonlinearity.jet")),
    "nonlinearity.jet_s": ("s/call", ("self", "nonlinearity.jet")),
    "geometry.check_s": ("s/call", ("self", "geometry.check")),
    "geometry.eikonal_s": ("s/call", ("self", "geometry.eikonal")),
    "setup.import_s": ("s", None),
    "problem.load_s": ("s/call", ("self", "problem.load")),
    "problem.emit_s": ("s/call", ("self", "problem.emit")),
    "cli.main_s": ("s/call", ("total", "cli.main")),
    "cli.self_s": ("s/call", ("self", "cli.main")),
    "trace.overhead_ratio": ("ratio", None),
}


@dataclass
class Call:
    """One ``singwave all`` invocation and what it left behind."""

    pid: str
    doc: dict
    traced: bool
    out_dir: Path
    rc: int | None = None  # None: the call raised instead of returning an exit code
    seconds: float = 0.0
    stdout: str = ""
    summary: dict = field(default_factory=dict)
    peak_kb: int = 0  # peak resident memory of the child process (shipped_cli)
    verdict: str = ""
    reason: str = ""


# ----------------------------------------------------------------------
# driving the program
# ----------------------------------------------------------------------


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class SetupProbes:
    """Times SETUP_PROBES fresh set-ups (setup_probe.py, spawn to exit),
    spread evenly over the run so that one slow moment of the machine
    does not decide the median."""

    def __init__(self, workload: str, seed: int, work: Path, env: dict, seconds: float):
        self.cmd = [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)]
        self.work, self.env = work, env
        self.due = [seconds * j / SETUP_PROBES for j in range(SETUP_PROBES)]
        self.walls: list[float] = []
        self.imports: list[float] = []

    def run_due(self, elapsed: float | None) -> None:
        """Run the probes due by ``elapsed`` seconds into the run (all of
        the remaining ones when it is None)."""
        while len(self.walls) < len(self.due) and (
                elapsed is None or self.due[len(self.walls)] <= elapsed):
            out = self.work / f"setup-{len(self.walls)}"
            t0 = time.perf_counter()
            done = subprocess.run(self.cmd + [str(out)], env=self.env, capture_output=True,
                                  text=True, timeout=CHILD_TIMEOUT_S)
            self.walls.append(time.perf_counter() - t0)
            if done.returncode != 0:
                raise RuntimeError(f"set-up failed: {done.stderr.strip()}")
            self.imports.append(float(done.stdout.split()[-1]))


def run_in_process(cli, call: Call, path: Path, tracer: Tracer | None) -> None:
    call.out_dir.mkdir(parents=True, exist_ok=True)
    argv = ["all", "--problem", str(path), "--out", str(call.out_dir)]
    buf = io.StringIO()
    if tracer is not None:
        tracer.install()
    try:
        with contextlib.redirect_stdout(buf):
            t0 = time.perf_counter()
            try:
                call.rc = cli.main(argv)
            except Exception as exc:  # a traceback breaks the CLI contract; the check reports it
                call.reason = f"raised {type(exc).__name__}: {exc}"
            call.seconds = time.perf_counter() - t0
    finally:
        if tracer is not None:
            tracer.uninstall()
    call.stdout = buf.getvalue()
    if tracer is not None:
        call.summary = tracer.summary()


def run_subprocess(call: Call, path: Path, env: dict, index: int) -> None:
    call.out_dir.mkdir(parents=True, exist_ok=True)
    argv = ["all", "--problem", str(path), "--out", str(call.out_dir)]
    if call.traced:
        summary = call.out_dir / "trace-summary.json"
        cmd = [sys.executable, str(HERE / "child.py"), f"{index}-{call.pid}", str(summary),
               str(call.out_dir / "spans.tsv")] + argv
    else:
        cmd = [sys.executable, "-c", CONSOLE_ENTRY] + argv
    t0 = time.perf_counter()
    with open(call.out_dir / "stderr.txt", "w") as err:
        proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, stderr=err, text=True)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            call.stdout = proc.stdout.read()
            proc.stdout.close()
            # reap it here, not through Popen, to read this child's own rusage
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
    call.seconds = time.perf_counter() - t0
    proc.returncode = call.rc = os.waitstatus_to_exitcode(status)
    call.peak_kb = usage.ru_maxrss
    if call.traced and call.rc in (0, 4):
        call.summary = json.loads(summary.read_text())


def drive(workload: str, seed: int, seconds: float, traced: bool, root: Path, work: Path,
          env: dict, probes: SetupProbes) -> tuple[list, float, list]:
    """The closed loop.  With tracing, every input runs twice, once plain
    and once traced, in alternating order, so the two can be compared."""
    calls: list[Call] = []
    tracers = []
    cli = None
    if workload in IN_PROCESS:
        sys.path.insert(0, str(root / "src"))
        import singwave.cli as cli
    else:
        files = shipped_order(root, seed)
        docs = {p: json.loads(p.read_text()) for p in files}
    start = time.perf_counter()
    index = 0
    while True:
        probes.run_due(time.perf_counter() - start)
        if cli is not None:
            pid, doc = generated_problem(workload, seed, index)
            path = work / "inputs" / f"{pid}.json"
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(json.dumps(doc))
        else:
            path = files[index % len(files)]
            pid, doc = path.stem, docs[path]
        modes = [False] if not traced else ([False, True] if index % 2 == 0 else [True, False])
        for mode in modes:
            out_dir = work / "calls" / f"{index:03d}-{pid}" / ("traced" if mode else "plain")
            call = Call(pid, doc, mode, out_dir)
            if cli is not None:
                tracer = Tracer() if mode else None
                run_in_process(cli, call, path, tracer)
                if tracer is not None:
                    tracers.append((f"{index}-{pid}", tracer))
            else:
                run_subprocess(call, path, env, index)
            calls.append(call)
        index += 1
        if time.perf_counter() - start >= seconds and index >= MIN_INPUTS[workload]:
            break
    probes.run_due(None)
    if cli is not None:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    else:
        peak_kb = max(c.peak_kb for c in calls if not c.traced)
    return calls, peak_kb / 1024.0, tracers


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------


def end_to_end(calls: list, setup_walls: list, peak_mb: float) -> dict:
    times = [c.seconds for c in calls]
    verified = sum(c.verdict in (OK, DEFECT) for c in calls)
    return {
        "op_p50_s": statistics.median(times),
        "problems_per_s": verified / sum(times),
        "setup_s": statistics.median(setup_walls),
        "peak_rss_mb": peak_mb,
    }


def _mean(values) -> float:
    values = list(values)
    return statistics.fmean(values) if values else 0.0


def per_layer(calls: list, import_times: list) -> dict:
    traced = [c for c in calls if c.traced and c.summary]
    plain = [c for c in calls if not c.traced]
    values = {}
    for name, (_, source) in PER_LAYER.items():
        if source is not None:
            kind, key = source
            values[name] = _mean(c.summary[kind].get(key, 0) for c in traced)
    solve_products = {c.pid: c.summary["xmul_in_solve"] for c in traced}
    full, twin = solve_products.get("do-000-log", 0), solve_products.get("do-001-log-K10", 0)
    values["fuchsian.xmul_k_exponent"] = math.log2(full / twin) if full and twin else 0.0
    values["series.max_den_bits"] = max(
        (max_denominator_bits(c.out_dir / "solution.json") for c in traced), default=0)
    values["verify.samples"] = _mean(
        json.loads((c.out_dir / "fit_summary.json").read_text())["samples"] for c in traced)
    values["setup.import_s"] = statistics.median(import_times)
    values["trace.overhead_ratio"] = (
        statistics.median(c.seconds for c in traced) / statistics.median(c.seconds for c in plain)
        if traced else 0.0)
    return values


def self_time_gap(calls: list) -> float:
    """Largest |sum of self times - cli.main inclusive time| over traced
    calls, relative to the latter; the spans partition cli.main."""
    gap = 0.0
    for c in calls:
        if c.traced and c.summary:
            total = c.summary["total"]["cli.main"]
            gap = max(gap, abs(sum(c.summary["self"].values()) - total) / total)
    return gap


def merge_spans(calls: list, tracers: list, path: Path) -> None:
    if tracers:
        write_spans(path, tracers)
        return
    with open(path, "w") as out:
        out.write("call\tspan\tparent\tname\tstart\tend\n")
        for c in calls:
            spans = c.out_dir / "spans.tsv"
            if c.traced and spans.exists():
                with open(spans) as handle:
                    next(handle)
                    shutil.copyfileobj(handle, out)


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "singwave" / "cli.py").is_file() or not (root / "problems").is_dir():
        print("error: run from the root of a singwave checkout "
              "(src/singwave/cli.py or problems/ not found)", file=sys.stderr)
        return 2
    work = root / ".perfbench" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = child_env(root)

    probes = SetupProbes(args.workload, args.seed, work, env, args.seconds)
    calls, peak_mb, tracers = drive(args.workload, args.seed, args.seconds, bool(args.trace),
                                    root, work, env, probes)

    checker = Checker()
    for c in calls:
        if c.rc is None:
            c.verdict = WRONG
        else:
            c.verdict, c.reason = checker.check(c.pid, c.doc, c.rc, c.stdout, c.out_dir)
    wrong = [c for c in calls if c.verdict == WRONG]
    defects = [c for c in calls if c.verdict == DEFECT]
    failed = len(wrong) + len(defects)

    if args.trace:
        metrics = per_layer(calls, probes.imports)
        units = {name: unit for name, (unit, _) in PER_LAYER.items()}
        gap = self_time_gap(calls)
        trace_path = root / ".perfbench" / f"trace-{args.workload}.tsv"
        merge_spans(calls, tracers, trace_path)
        print(f"spans written to {trace_path.relative_to(root)}; self times partition "
              f"cli.main_s to within {gap:.1e} of it")
    else:
        metrics = end_to_end(calls, probes.walls, peak_mb)
        units = END_TO_END

    print(f"{args.workload} seed {args.seed}: {len(calls)} calls of singwave all, "
          f"{len(wrong)} wrong, {len(defects)} known-defect exits")
    print(f"fail_ratio {failed / len(calls):.4f} ratio ({failed}/{len(calls)})")
    if defects:
        print("known defect (float symbolic residual above the absolute 1e-8): "
              + " ".join(sorted({c.pid for c in defects})))
    for c in wrong:
        print(f"WRONG {c.pid}: {c.reason}", file=sys.stderr)
    for name, value in metrics.items():
        extra = f" (n={len(calls)})" if name == "op_p50_s" else ""
        print(f"{name} {value:.6g} {units[name]}{extra}")
    print(json.dumps({
        "correct": not wrong,
        "attempted": len(calls),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0 if not wrong else 1


if __name__ == "__main__":
    sys.exit(main())
