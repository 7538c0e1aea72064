"""Benchmark harness for rindlercv (stdlib and the package only).

Run from the root of a checkout:

    python3 benchmarks/run.py --workload grid --seed 1 --seconds 20 --trace 0
    python3 benchmarks/run.py --workload all --seconds 20            # every workload
    python3 benchmarks/run.py --workload all --seconds 20 --trace 1  # per-layer numbers
    python3 benchmarks/run.py --selfcheck                            # tiny sizes, schema check

A run runs one untimed warm-up pass (which also verifies every output),
then repeats timed passes of the workload for ``--seconds``, measuring
set-up time in fresh interpreters started between passes.  Times are
reported at the reference speed of ``refkernel``.  With ``--trace 1`` each
timed pass is paired with a traced pass and the per-layer metrics come from
the traced passes.
The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it are for
people.  ``--record PATH`` also writes the run's metadata, failure classes,
worst deviations and output fingerprints to PATH as JSON.
"""

from __future__ import annotations

import argparse
import array
import collections
import json
import math
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
import types
from pathlib import Path

from refkernel import REFERENCE_KERNEL_S

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
SETUP_REPEATS = 11
# fresh-interpreter setup: time the reference kernel (the median of five
# runs), then import the CLI module and build its parser
SETUP_CODE = ("import sys, time; sys.path[:0] = sys.argv[1:3]; import refkernel; "
              "k = sorted(refkernel.reference_kernel() for _ in range(5))[2]; "
              "t = time.perf_counter(); "
              "import rindlercv.cli as cli; cli.build_parser(); print(time.perf_counter() - t, k)")
CHILD_TIMEOUT_S = 600


def die(message: str) -> None:
    print(f"benchmark: {message}", file=sys.stderr)
    sys.exit(2)


def load_spec() -> dict:
    try:
        with open(SPEC, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        die(f"cannot read {SPEC.name}: {exc}")


def read_commit() -> str:
    """The checked-out commit, read from .git without running git; 'unknown' outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def measure_setup() -> tuple[float, float]:
    """Seconds to import rindlercv.cli and build the parser in a fresh interpreter,
    and of the reference kernel just before."""
    proc = subprocess.run([sys.executable, "-c", SETUP_CODE, str(HERE), str(SRC)],
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True)
    seconds, kernel = map(float, proc.stdout.split())
    return seconds, kernel


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, math.ceil(q / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


class Tally:
    """Per operation over passes: its time relative to the host's speed, and its worst outcome.

    Passes are folded in as they end, keeping one float per operation and
    pass, so the harness's memory barely grows with the number of passes.
    """

    def __init__(self):
        self.best: dict = {}  # name -> best raw seconds, for information
        self.scaled_times: dict = {}  # name -> seconds / host slowdown, per pass
        self.worst: dict = {}  # name -> the Op with the most failed points

    def add(self, ops) -> None:
        for op in ops:
            self.best[op.name] = min(op.seconds, self.best.get(op.name, math.inf))
            self.scaled_times.setdefault(op.name, array.array("d")).append(op.seconds / op.slowdown)
            if op.name not in self.worst or op.failed > self.worst[op.name].failed:
                self.worst[op.name] = op

    def scaled(self) -> dict:
        """Each operation's median time at the reference speed (see refkernel)."""
        return {name: statistics.median(r) for name, r in self.scaled_times.items()}

    def points_ok(self) -> int:
        return sum(op.points - op.failed for op in self.worst.values())

    def latencies(self, seconds: dict) -> list[float]:
        """``seconds`` of the operations that never failed (of all, if every one failed)."""
        ok = [seconds[name] for name, op in self.worst.items() if not op.failure]
        return sorted(ok or seconds.values())


def import_package():
    sys.path.insert(0, str(SRC))
    import rindlercv
    if Path(rindlercv.__file__).resolve().parent != SRC / "rindlercv":
        die(f"imported rindlercv from {rindlercv.__file__}, not from {SRC}")
    from rindlercv import cli, selftest
    from rindlercv import entanglement_analysis, info_measures, phase_space, rindler_frames
    return types.SimpleNamespace(cli=cli, ea=entanglement_analysis, im=info_measures,
                                 ps=phase_space, rf=rindler_frames, st=selftest)


def run_workload(args, spec: dict) -> int:
    pkg = import_package()
    import numpy
    import tracing
    import workloads

    names = {w["name"]: w for w in spec["workloads"]}
    if args.workload not in names or args.workload not in workloads.WORKLOADS:
        die(f"unknown workload {args.workload!r}; choose from {sorted(names)}")
    meta = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "tiny": args.tiny,
        "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "commit": read_commit(),
    }
    # set-up is measured in fresh interpreters started between passes, spread
    # over the run, so that one slow moment of the host cannot move the median
    setup, setup_repeats = [], 0 if args.trace else 3 if args.tiny else SETUP_REPEATS
    if setup_repeats:
        measure_setup()  # fills the bytecode cache; not counted

    workdir = ROOT / ".bench_build" / f"rindlercv-{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        work = workloads.WORKLOADS[args.workload](args.seed, args.tiny, str(workdir))
        # attempted and failed count each seeded operation once, whatever the
        # number of passes: an operation that failed in any pass counts with
        # its worst pass, so the counts depend on the seed, not on the speed
        outcomes, timed, traced = Tally(), Tally(), Tally()
        warmup = work.run_pass(warmup=True)
        work.check(warmup)  # verifies every output, not timed
        outcomes.add(warmup)
        probes = work.probe_defects()
        passes, layer_passes = 0, []
        start = time.perf_counter()
        deadline = start + args.seconds
        while True:
            if len(setup) < setup_repeats and time.perf_counter() >= (
                    start + len(setup) * args.seconds / setup_repeats):
                begin = time.perf_counter()
                setup.append(measure_setup())
                deadline += time.perf_counter() - begin  # not part of the measuring time
            ops = work.run_pass()
            work.check(ops)
            timed.add(ops)
            outcomes.add(ops)
            passes += 1
            if args.trace:
                tracer = tracing.Tracer()
                patches = tracing.instrument(tracer, pkg)
                try:
                    ops = work.run_pass()
                finally:
                    patches.restore()
                work.check(ops)
                traced.add(ops)
                outcomes.add(ops)
                layer_passes.append(tracing.layer_metrics(tracer, sum(op.nbytes for op in ops)))
                last_tracer = tracer
            if time.perf_counter() >= deadline:
                break
        while len(setup) < setup_repeats:
            setup.append(measure_setup())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(op.points for op in outcomes.worst.values())
    failed = sum(op.failed for op in outcomes.worst.values())
    classes = collections.Counter(f"{op.kind}: {op.failure}"
                                  for op in outcomes.worst.values() if op.failure)
    correct = not any(op.failure and op.failure.startswith(workloads.WRONG)
                      for op in outcomes.worst.values())
    samples = {"passes": passes, "operations": len(outcomes.worst)}

    if args.trace:
        values = {name: statistics.median_low(m[name] for m in layer_passes)
                  for name in layer_passes[0]}
        values["trace.overhead"] = sum(traced.scaled().values()) / sum(timed.scaled().values())
        declared = spec["per_layer"]
        samples["traced_passes"] = len(layer_passes)
        raw = {}
    else:
        # metrics from each operation's time at the reference speed; the same
        # from its best raw time are printed for information
        values, raw = {}, {"setup_s": statistics.median(seconds for seconds, _ in setup)}
        for out, seconds in ((values, timed.scaled()), (raw, timed.best)):
            latencies = timed.latencies(seconds)
            out["points_per_s"] = timed.points_ok() / sum(seconds.values())
            out["call_p50_ms"] = 1e3 * percentile(latencies, 50)
            out["call_p99_ms"] = 1e3 * percentile(latencies, 99)
        values.update({
            "setup_s": statistics.median(seconds / (kernel / REFERENCE_KERNEL_S)
                                         for seconds, kernel in setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        })
        declared = spec["end_to_end"]
        samples.update(setup_runs=len(setup), latency_samples=len(latencies))
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}

    print(f"rindlercv benchmark, workload {args.workload}: {names[args.workload]['why']}")
    print("run: " + ", ".join(f"{k}={v}" for k, v in meta.items()))
    print("samples: " + ", ".join(f"{k}={v}" for k, v in samples.items()))
    for name, metric in metrics.items():
        note = f"  (moves {tracing.LAYER_METRICS[name]})" if args.trace else ""
        print(f"  {name:<44} {metric['value']:>16.6g} {metric['unit']}{note}")
    if raw:
        print("unscaled, for information (setup: median wall time; the rest: from each "
              "operation's best time):")
    for name, value in raw.items():
        print(f"  {name:<44} {value:>16.6g}")
    print(f"correct: {correct}; attempted {attempted}, failed {failed}, "
          f"failed_ratio {failed / attempted:.6g}")
    for name, count in sorted(classes.items()):
        print(f"  failure class {name}: {count}")
    if probes:
        failing = collections.Counter(failure for _, failure in probes if failure)
        print(f"known-defect probes (run once, untimed, not in attempted or failed): "
              f"{sum(failing.values())} of {len(probes)} fail")
        for failure, count in sorted(failing.items()):
            print(f"  {failure}: {count}")
    worst, where = work.worst
    print(f"worst deviation from the covariance-matrix route: {worst:.3g} at {where} "
          f"(tolerance {workloads.TOL:g}; information only)")
    fingerprints = {name: ref[0] for name, ref in sorted(work.reference.items())}
    print(f"output fingerprints: {len(fingerprints)} sha256 digests (see --record)")
    if args.trace:
        print("self seconds per pass by thread (main / pool threads), last traced pass:")
        for group, roles in sorted(last_tracer.by_thread_role().items()):
            (mc, ms), (pc, pt) = roles["main"], roles["pool"]
            print(f"  {group:<40} main {mc:>9d} calls {ms:9.4f} s   pool {pc:>9d} calls {pt:9.4f} s")

    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    if args.record:
        record = {"run": meta, "samples": samples, "result": result, "from_best_raw_times": raw,
                  "failed_ratio": failed / attempted, "failure_classes": dict(sorted(classes.items())),
                  "worst_deviation": {"value": worst, "at": where, "tolerance": workloads.TOL},
                  "known_defect_probes": [{"input": what, "failure": failure}
                                          for what, failure in probes],
                  "fingerprints": fingerprints,
                  "best_seconds_raw": dict(sorted(timed.best.items()))}
        if args.trace:
            record["threads_last_traced_pass"] = [
                {"ident": t.ident, "name": t.name, "counts": t.counts,
                 "spans": {g: {"calls": c, "self_s": v} for g, (c, v) in sorted(t.stats.items())}}
                for t in last_tracer.threads()]
        with open(args.record, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1)
    print(json.dumps(result))
    return 0


def child_argv(name: str, args, tiny: bool, trace: int) -> list[str]:
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
    return argv + ["--tiny"] if tiny else argv


def run_child(argv: list[str]) -> dict:
    """Run one workload in a fresh interpreter; echo its report and return its result."""
    proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)
    lines = proc.stdout.splitlines()
    print("\n".join(lines[:-1]))
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(argv)} exited {proc.returncode}")
    return json.loads(lines[-1])


def run_all(args, spec: dict) -> int:
    results = {w["name"]: run_child(child_argv(w["name"], args, args.tiny, args.trace))
               for w in spec["workloads"]}
    print(json.dumps(results))
    return 0


NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def spec_problems(spec: dict) -> list[str]:
    """Where BENCHMARK.json breaks its own schema or disagrees with the harness."""
    import tracing

    problems = []
    keys = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    if set(spec) != keys:
        problems.append(f"top-level keys are {sorted(spec)}, expected {sorted(keys)}")
    names = []
    for w in spec.get("workloads", []):
        names.append(w.get("name"))
        if set(w) != {"name", "why"} or len(w["why"]) > 200 or "\n" in w["why"]:
            problems.append(f"workload {w}: needs exactly a name and a one-line why")
    for section, keys in (("end_to_end", {"name", "unit", "better", "bound"}),
                          ("per_layer", {"name", "unit", "better"})):
        for m in spec.get(section, []):
            names.append(m.get("name"))
            if set(m) != keys or not UNIT.match(m["unit"]) or m["better"] not in ("higher", "lower"):
                problems.append(f"{section} metric {m}: bad keys, unit or direction")
            elif section == "end_to_end" and not 0 < m["bound"] <= 0.25:
                problems.append(f"{m['name']}: bound must be in (0, 0.25]")
    problems += [f"bad or repeated name {n!r}" for n in names
                 if not isinstance(n, str) or not NAME.match(n) or names.count(n) > 1]
    if {"name": "setup_s", "unit": "s", "better": "lower"}.items() - next(
            (m for m in spec.get("end_to_end", []) if m.get("name") == "setup_s"), {}).items():
        problems.append("end_to_end needs setup_s in s, lower is better")
    layer = {m.get("name") for m in spec.get("per_layer", [])}
    if layer != set(tracing.LAYER_METRICS):
        problems.append(f"per_layer differs from the traced metrics: {sorted(layer ^ set(tracing.LAYER_METRICS))}")
    return problems


def result_problems(result: dict, spec: dict, trace: int) -> list[str]:
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return [f"result keys are {sorted(result)}"]
    problems = []
    if not isinstance(result["correct"], bool):
        problems.append("correct is not a boolean")
    if not (isinstance(result["attempted"], int) and result["attempted"] >= 1):
        problems.append("attempted is not a whole number >= 1")
    if not (isinstance(result["failed"], int) and 0 <= result["failed"] <= result["attempted"]):
        problems.append("failed is not a whole number within attempted")
    metrics = result["metrics"]
    if set(metrics) != set(declared):
        problems.append(f"metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ set(declared))}")
    for name, metric in metrics.items():
        value = metric.get("value")
        if (set(metric) != {"value", "unit"} or metric["unit"] != declared.get(name)
                or isinstance(value, bool) or not isinstance(value, (int, float))
                or not math.isfinite(value)):
            problems.append(f"metric {name}: {metric}")
    return problems


def selfcheck(args, spec: dict) -> int:
    """Run every workload at minimal size, with and without tracing, and validate the schema."""
    problems = spec_problems(spec)
    for w in spec["workloads"]:
        for trace in (0, 1):
            result = run_child(child_argv(w["name"], args, True, trace))
            problems += [f"{w['name']} trace {trace}: {p}" for p in result_problems(result, spec, trace)]
            if result.get("correct") is not True:
                problems.append(f"{w['name']} trace {trace}: outputs failed the correctness check")
    for p in problems:
        print(f"selfcheck: {p}")
    print(f"selfcheck: {'FAILED' if problems else 'ok'}")
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", help="a workload of BENCHMARK.json, or all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per run (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="minimal sizes (used by --selfcheck)")
    parser.add_argument("--selfcheck", action="store_true",
                        help="run every workload tiny, with and without tracing, and check the schema")
    parser.add_argument("--record", metavar="PATH", help="also write the run's details as JSON")
    args = parser.parse_args(argv)
    if not (SRC / "rindlercv" / "__init__.py").is_file():
        die(f"no package at {SRC / 'rindlercv'}; run from a checkout of the repository")
    spec = load_spec()
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    if args.selfcheck:
        args.seconds = 1
        return selfcheck(args, spec)
    if args.workload == "all":
        return run_all(args, spec)
    return run_workload(args, spec)


if __name__ == "__main__":
    sys.exit(main())
