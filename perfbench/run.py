#!/usr/bin/env python3
"""Repository benchmark: builds the library from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Run from the root of a checkout. The first run configures and builds the
runner (perfbench/CMakeLists.txt compiles src/ into a static library) under
$CARGO_TARGET_DIR (default .bench_build); later runs rebuild incrementally.

Workloads (see BENCHMARK.json for why each exists):
  mtip_iter  one M-TIP rank, fp64 tol 1e-12: slicing (type 2, N=41), merging
             (2 x type 1, N=81), finalize and 2 phasing sweeps per iteration
  cg2d_mri   InverseNufft<float> CG on a 256^2 image from 403 golden-angle
             spokes x 512 readout, 8 CG iterations per solve
  svc_mix    NufftService, fp32 2D 128^2, M=30k per request, one closed-loop
             generator keeping 4 requests in flight over a hot shared point
             set and a pool of fresh sets

Every end-to-end time (setup_s, p50_ms, cpu_ms_per_op) is normalized for
host speed: each set-up, warm operation or block of requests is paired with
runs of a fixed reference computation (runner.cpp's RefKernel, built from
perfbench/ alone) taken just before it, and scaled by the reference's speed
relative to the host where the benchmark was defined (Reference in
runner.cpp gives the formula and its calibration). A shared host's speed
drifts between runs by more than the metrics' bounds, in CPU time as much as
in wall time; the scaling cancels the drift, while any change in the library
moves the result. The raw wall and CPU times, and the reference's own time,
are printed as workload detail.

--trace 0 prints the end-to-end metrics; --trace 1 prints the per-layer
metrics, the layer self-time table and the tracing overhead, and writes a
Chrome trace_event file next to the build. Each run also records host noise
(steal and user ticks from /proc/stat, load average) and the fixed thread
budget in <build>/perfbench-runs/. The last stdout line is the result JSON;
the exit code is nonzero when any correctness check fails.

--self-test runs every workload at smoke size in both modes, checks the
result schema against BENCHMARK.json, and checks that the correctness gate
fires on a deliberately corrupted output.
"""
import argparse
import json
import math
import os
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    """Configures once, then builds incrementally; returns the runner path."""
    if not os.path.isdir(os.path.join(ROOT, "src")):
        fail("no src/ tree next to perfbench/: run from a full checkout")
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "build.log")
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs])
    with open(log_path, "w") as log:
        for cmd in steps:
            try:
                rc = subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT)
            except OSError as e:
                fail(f"cannot run {cmd[0]}: {e}")
            if rc != 0:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-40:]))
                fail(f"build failed (log: {log_path})")
    return os.path.join(out, "perfbench_runner")


def proc_stat():
    """Aggregate CPU ticks: user (incl. nice) and steal."""
    with open("/proc/stat") as f:
        fields = f.readline().split()
    vals = [int(v) for v in fields[1:]]
    return {"user": vals[0] + vals[1], "steal": vals[7] if len(vals) > 7 else 0}


def loadavg():
    with open("/proc/loadavg") as f:
        return f.read().split()[:3]


def load_spec():
    try:
        with open(SPEC_PATH) as f:
            return json.load(f)
    except OSError:
        fail(f"missing {SPEC_PATH}")


def expected_metrics(spec, trace):
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_once(runner, workload, seed, seconds, trace, extra=()):
    """Runs the runner; returns (exit code, parsed result or None, host record)."""
    out = build_dir()
    trace_out = os.path.join(out, f"trace-{workload}-seed{seed}.json")
    cmd = [runner, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--trace-out", trace_out, *extra]
    s0, t0 = proc_stat(), time.time()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload}: runner exceeded {RUN_TIMEOUT_S} s")
    s1 = proc_stat()
    lines = proc.stdout.rstrip("\n").split("\n")
    result = None
    if lines and lines[-1].startswith("{"):
        result = json.loads(lines.pop())
    for line in lines:
        print(line)
    host = {
        "user_ticks": s1["user"] - s0["user"],
        "steal_ticks": s1["steal"] - s0["steal"],
        "loadavg": loadavg(),
        "wall_s": round(time.time() - t0, 3),
        "nproc": os.cpu_count(),
    }
    return proc.returncode, result, host


def schema_errors(result, expected):
    errs = []
    got = result.get("metrics", {})
    for name, unit in expected.items():
        m = got.get(name)
        if m is None:
            errs.append(f"missing metric {name}")
        elif m.get("unit") != unit:
            errs.append(f"{name}: unit {m.get('unit')!r} != {unit!r}")
        elif not isinstance(m.get("value"), (int, float)) or not math.isfinite(m["value"]):
            errs.append(f"{name}: non-numeric value {m.get('value')!r}")
    errs += [f"unexpected metric {n}" for n in got if n not in expected]
    return errs


def record(workload, seed, trace, result, host):
    budget = result.get("budget", {})
    threads = sum(v for k, v in budget.items() if k != "outstanding")
    steal = host["steal_ticks"]
    share = steal / host["user_ticks"] if host["user_ticks"] else 0.0
    print(f"  host: steal {steal} / user {host['user_ticks']} ticks ({100 * share:.1f}%), "
          f"loadavg {' '.join(host['loadavg'])}, budget: "
          f"{', '.join(f'{v} {k}' for k, v in budget.items())} "
          f"({threads} threads, nproc {host['nproc']})")
    if host["nproc"] and threads > host["nproc"]:
        print(f"  warning: the thread budget ({threads}) exceeds nproc ({host['nproc']})",
              file=sys.stderr)
    runs = os.path.join(build_dir(), "perfbench-runs")
    os.makedirs(runs, exist_ok=True)
    path = os.path.join(runs, f"{workload}-seed{seed}-trace{trace}-{int(time.time())}.json")
    with open(path, "w") as f:
        json.dump({"host": host, **result}, f, indent=1)


def run(args):
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        fail(f"unknown workload {args.workload!r} (have {', '.join(names)})")
    runner = build()
    rc, result, host = run_once(runner, args.workload, args.seed, args.seconds, args.trace)
    if result is None:
        fail(f"{args.workload}: runner printed no result (exit {rc})")
    errs = schema_errors(result, expected_metrics(spec, args.trace))
    for e in errs:
        print(f"  schema error: {e}", file=sys.stderr)
    record(args.workload, args.seed, args.trace, result, host)
    correct = bool(result["correct"]) and rc == 0 and not errs
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": result["metrics"]}))
    return 0 if correct else 1


def self_test():
    spec = load_spec()
    runner = build()
    problems = []
    for w in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            rc, result, _ = run_once(runner, w, 7, 1, trace, ["--smoke"])
            if rc != 0 or result is None or not result["correct"]:
                problems.append(f"{w} trace {trace}: exit {rc}, result {result is not None}")
                continue
            problems += [f"{w} trace {trace}: {e}"
                         for e in schema_errors(result, expected_metrics(spec, trace))]
        rc, result, _ = run_once(runner, w, 7, 1, 0, ["--smoke", "--corrupt"])
        if rc == 0 or result is None or result["correct"] or result["failed"] == 0:
            problems.append(f"{w}: correctness gate did not fire on a corrupted output")
    for p in problems:
        print(f"self-test FAIL: {p}")
    print("self-test", "FAILED" if problems else "passed")
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if args.self_test:
        return self_test()
    if not args.workload:
        ap.error("--workload is required")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
