#!/usr/bin/env python3
"""End-to-end admission benchmark runner (standard library only).

One invocation builds the benchmark from the repository's sources (CMake,
Release, into .bench_build/e2ebench, or $CARGO_TARGET_DIR/e2ebench), runs
one workload once in its own process, checks its correctness, prints every
metric by name with its unit, and ends with one JSON line:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics; with --trace 1 they
are the per-layer metrics of a traced run, and the spans are written to
<build>/traces/trace_<workload>_<seed>.jsonl.

    python3 e2ebench/run.py --workload admit_steady --seed 1 --seconds 20 --trace 0

--sets N runs N sets instead: each set runs every workload --runs times
(untraced, alternating the workload order, one seed per run) and then once
traced, and the records of every run are written to --out with a host
fingerprint (nproc, compiler, build type, git revision):

    python3 e2ebench/run.py --sets 2 --runs 10 --seed 101 --out e2ebench/baselines/BENCH_e2e.json

--record FILE appends the full record of a single run to a JSON-lines file,
the input of `compare.py --paired`.

Exit status: 0 when every correctness check passed, 1 when one failed, 2 on
a build or usage error (including a directory without the library sources).
"""

import argparse
import json
import os
import platform
import subprocess
import sys

sys.dont_write_bytecode = True

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BENCHMARK = os.path.join(ROOT, "BENCHMARK.json")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def fail(msg, code=2):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "e2ebench")


def build():
    """Configures once, then builds (a no-op when nothing changed)."""
    if not os.path.isdir(os.path.join(ROOT, "src", "cnet")):
        fail("no library sources at src/cnet next to e2ebench/: "
             "run from a checkout of the repository")
    out = build_dir()
    tmp = os.path.join(out, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)  # keep compiler temporaries inside
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--parallel", "4"])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, env=env, stdout=sys.stderr,
                                  stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            fail("build step failed: %s" % e)
        if done.returncode != 0:
            fail("build step failed: " + " ".join(cmd))
    return os.path.join(out, "bench_e2e")


def load_json(path):
    with open(path) as f:
        return json.load(f)


def load_spec():
    """BENCHMARK.json: the workload names and the metric names."""
    try:
        return load_json(BENCHMARK)
    except (OSError, ValueError) as e:
        fail("cannot read %s: %s" % (BENCHMARK, e))


def host_fingerprint(binary):
    info = {"nproc": len(os.sched_getaffinity(0)),
            "machine": platform.machine(),
            "compiler": "unknown", "build_type": "unknown", "git_rev": "unknown"}
    cache = os.path.join(os.path.dirname(binary), "CMakeCache.txt")
    if os.path.exists(cache):
        with open(cache) as f:
            for line in f:
                if line.startswith("CMAKE_BUILD_TYPE:"):
                    info["build_type"] = line.split("=", 1)[1].strip()
                elif line.startswith("CMAKE_CXX_COMPILER:"):
                    compiler = line.split("=", 1)[1].strip()
                    try:
                        version = subprocess.run(
                            [compiler, "--version"], capture_output=True,
                            text=True, timeout=30).stdout.splitlines()
                        info["compiler"] = version[0] if version else compiler
                    except (OSError, subprocess.TimeoutExpired):
                        info["compiler"] = compiler
    if os.path.isdir(os.path.join(ROOT, ".git")):
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
        try:
            rev = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                 capture_output=True, text=True, env=env,
                                 timeout=30)
            if rev.returncode == 0:
                info["git_rev"] = rev.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    return info


def run_once(binary, spec, workload, seed, seconds, trace, host):
    traces = os.path.join(build_dir(), "traces")
    os.makedirs(traces, exist_ok=True)
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--trace-dir", traces]
    try:
        done = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s did not finish within %ds" % (workload, RUN_TIMEOUT_S), 1)
    sys.stderr.write(done.stderr)
    lines = done.stdout.strip().splitlines()
    try:
        out = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail("%s printed no result (exit %d)" % (workload, done.returncode), 1)

    invalid = list(out["invalid"])
    if host["nproc"] < 4:
        invalid.append("nproc %d < 4" % host["nproc"])
    metrics = out["per_layer"] if trace else out["end_to_end"]
    want = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    if sorted(want) != sorted(metrics):
        fail("metrics %s do not match BENCHMARK.json %s"
             % (sorted(metrics), sorted(want)))
    return {"workload": workload, "seed": seed, "trace": int(trace),
            "seconds": seconds, "correct": bool(out["correct"]),
            "attempted": out["attempted"], "failed": out["failed"],
            "metrics": {k: {"value": v["value"], "unit": v["unit"]}
                        for k, v in metrics.items()},
            "display": {k: v["display"] for k, v in metrics.items()},
            "info": {k: {"value": v["value"], "unit": v["unit"]}
                     for k, v in out["info"].items()},
            "checks": out["checks"], "slo": out["slo"],
            "valid": not invalid, "invalid": invalid}


def print_record(rec, host):
    print("# %s seed %d%s: host nproc %d, %s, %s, rev %s" % (
        rec["workload"], rec["seed"], " (traced)" if rec["trace"] else "",
        host["nproc"], host["compiler"], host["build_type"],
        host["git_rev"][:12]))
    for name, cell in rec["metrics"].items():
        print("%-40s %.10g %s  (%s)" % (name, cell["value"], cell["unit"],
                                      rec["display"][name]))
    for c in rec["checks"]:
        print("check %-28s %s  %s" % (c["name"], "ok" if c["passed"] else
                                     "FAILED", c["detail"]))
    for c in rec["slo"]:
        print("slo   %-28s %s  %s" % (c["name"], "ok" if c["passed"] else
                                     "missed", c["detail"]))
    info = {k: v["value"] for k, v in rec["info"].items()}
    print("info  requests %.4g/s, admitted %.4g/s (closed loop); latency p50 "
          "%.3f us, p99 %.3f us, p999 %.3f us over %d open-loop samples" % (
              info["request_rate_ops_s"], info["admitted_rate_ops_s"],
              info["latency_p50_us"], info["latency_p99_us"],
              info["latency_p999_us"], info["latency_samples"]))
    print("valid %s%s" % (rec["valid"], "" if rec["valid"]
                          else ": " + "; ".join(rec["invalid"])))


def run_sets(binary, spec, args, host):
    names = [w["name"] for w in spec["workloads"]]
    sets = []
    seed = args.seed
    for s in range(args.sets):
        records = []
        for r in range(args.runs):
            order = names if r % 2 == 0 else names[::-1]
            for w in order:
                rec = run_once(binary, spec, w, seed, args.seconds, False,
                               host)
                records.append(rec)
                print("set %d run %d %-15s seed %-4d %s" % (
                    s + 1, r + 1, w, seed, "  ".join(
                        "%s %s" % kv for kv in rec["display"].items())),
                      file=sys.stderr)
            seed += 1
        for w in names:
            records.append(run_once(binary, spec, w, seed, args.seconds, True,
                                    host))
        seed += 1
        sets.append(records)
    doc = {"schema": "cnet-e2e-bench-v1", "host": host,
           "seconds": args.seconds, "runs_per_set": args.runs, "sets": sets}
    with open(args.out, "w") as f:
        json.dump(doc, f, indent=1, sort_keys=True)
        f.write("\n")
    ok = all(r["correct"] for records in sets for r in records)
    print(json.dumps({"correct": ok, "runs": sum(len(x) for x in sets),
                      "out": args.out}))
    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record", help="append this run's record (JSON lines)")
    p.add_argument("--sets", type=int, default=0)
    p.add_argument("--runs", type=int, default=5)
    p.add_argument("--out", help="where --sets writes its records")
    args = p.parse_args()
    if args.sets == 0 and not args.workload:
        p.error("--workload is required (or --sets N --out FILE)")
    if args.sets and not args.out:
        p.error("--sets needs --out")
    spec = load_spec()
    if args.workload and args.workload not in [
            w["name"] for w in spec["workloads"]]:
        p.error("unknown workload %r" % args.workload)

    binary = build()
    host = host_fingerprint(binary)
    if args.sets:
        return run_sets(binary, spec, args, host)

    rec = run_once(binary, spec, args.workload, args.seed, args.seconds,
                   bool(args.trace), host)
    print_record(rec, host)
    if args.record:
        with open(args.record, "a") as f:
            f.write(json.dumps(dict(rec, host=host), sort_keys=True) + "\n")
    print(json.dumps({"correct": rec["correct"],
                      "attempted": rec["attempted"],
                      "failed": rec["failed"], "metrics": rec["metrics"]}))
    return 0 if rec["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
