#!/usr/bin/env python3
"""Noise-banded comparator for the end-to-end benchmark (standard library).

Reads run records written by run.py (a --sets file, or JSON lines from
--record) and judges every end-to-end metric x workload against the bound
BENCHMARK.json fixes for it.

  compare.py BENCH.json
      Each set: median and quartiles per metric x workload; "unresolved"
      when the spread (q3 - q1) / median is wider than the bound. With two
      or more sets, whether each later set's median agrees with the first's
      within the bound.
  compare.py --parent PARENT --change CHANGE
      Regression check: a metric x workload regresses when the change's
      median is worse than the parent's by more than the bound. Where either
      side's spread exceeds the bound it is "unresolved", unless every
      change run reads better than every parent run. A workload also
      regresses when the change's runs failed more operations than the
      parent's. Exits 1 on a regression.
  compare.py --paired PARENT.jsonl CHANGE.jsonl
      Gain rule for alternating parent/change pairs (the i-th run of a
      workload on each side form a pair): a gain needs at least 10 pairs,
      the change better in at least 9 of every 10 pairs (ties count for
      neither), a median gap larger than the parent's interquartile
      distance, and no more failed operations than the parent. Untraced
      runs are judged on the end-to-end metrics, traced runs on the
      per-layer metrics.
  compare.py --self-test
      Runs the rules above on the fixtures in e2ebench/fixtures/.

A file given to --parent, --change or --paired may hold several sets; their
records are pooled. A run that failed a correctness check, or that run.py
flagged invalid, gives no metric values: it is left out of the statistics,
with its pair, and listed. Its failed operations still count.
"""

import argparse
import json
import os
import statistics
import sys

sys.dont_write_bytecode = True

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
FIXTURES = os.path.join(HERE, "fixtures")


def load_spec(path, per_layer=False):
    """{name: metric} of the end-to-end metrics, and of the per-layer ones
    too when asked (those have no bound)."""
    with open(path) as f:
        doc = json.load(f)
    kinds = ["end_to_end"] + (["per_layer"] if per_layer else [])
    return {m["name"]: m for kind in kinds for m in doc.get(kind, [])}


def load_sets(path):
    """A --sets document gives its sets; a JSON-lines file is one set."""
    with open(path) as f:
        text = f.read()
    try:
        doc = json.loads(text)
    except ValueError:
        doc = None
    if isinstance(doc, dict) and "sets" in doc:
        return doc["sets"]
    return [[json.loads(line) for line in text.splitlines() if line.strip()]]


def load_records(path, out=None):
    """Every record of the file, its sets pooled; says so on `out`."""
    sets = load_sets(path)
    if len(sets) > 1 and out is not None:
        print("pooling the %d sets of %s" % (len(sets), path), file=out)
    return [rec for records in sets for rec in records]


def usable(rec):
    """Whether a run's metric values may be used."""
    return rec.get("correct", True) and rec.get("valid", True)


def untraced(records, traced=False):
    """{workload: [records in run order]} of the untraced runs, or of the
    traced ones."""
    out = {}
    for rec in records:
        if bool(rec.get("trace")) == traced:
            out.setdefault(rec["workload"], []).append(rec)
    return out


def failed_ops(records):
    return sum(rec.get("failed", 0) for rec in records)


def series(records, spec):
    """{(workload, metric): [values in run order]} over the usable untraced
    runs."""
    out = {}
    for workload, recs in untraced(records).items():
        for name in spec:
            vals = [r["metrics"][name]["value"] for r in recs
                    if usable(r) and name in r["metrics"]]
            if vals:
                out[(workload, name)] = vals
    return out


def list_left_out(label, records, out):
    """Prints each run whose values are left out; returns how many."""
    left = [r for r in records if not usable(r)]
    for r in left:
        why = []
        if not r.get("correct", True):
            why.append("not correct, %d failed" % r.get("failed", 0))
        if not r.get("valid", True):
            why.append("invalid: " + "; ".join(r.get("invalid", [])))
        print("  %s: %s seed %s%s left out (%s)" % (
            label, r["workload"], r.get("seed"),
            " traced" if r.get("trace") else "", ", ".join(why)), file=out)
    return len(left)


def stats(values):
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    spread = (q3 - q1) / abs(med) if med else 0.0
    return {"median": med, "q1": q1, "q3": q3, "spread": spread,
            "n": len(values)}


def worse_by(metric, base, other):
    """How much worse `other` is than `base`, as a share of `base`."""
    if base == 0:
        return 0.0
    gap = (other - base) / abs(base)
    return gap if metric["better"] == "lower" else -gap


def better(metric, a, b):
    """True when value a is strictly better than value b."""
    return a < b if metric["better"] == "lower" else a > b


def report_sets(sets, spec, out=sys.stdout):
    """Prints each set's table and set-to-set agreement; returns
    (unresolved, disagreeing, left out) counts."""
    unresolved = disagree = left_out = 0
    first = series(sets[0], spec)
    for i, records in enumerate(sets):
        print("set %d" % (i + 1), file=out)
        left_out += list_left_out("set %d" % (i + 1), records, out)
        print("  %-16s %-17s %12s %12s %12s %7s %6s  %s" % (
            "workload", "metric", "median", "q1", "q3", "spread", "bound",
            "status"), file=out)
        for (workload, name), values in sorted(series(records, spec).items()):
            metric, s = spec[name], stats(values)
            status = "ok"
            if s["spread"] > metric["bound"]:
                status = "unresolved"
                unresolved += 1
            if i > 0 and (workload, name) in first:
                base = statistics.median(first[(workload, name)])
                gap = worse_by(metric, base, s["median"])
                agree = abs(gap) <= metric["bound"]
                status += ", %+.4f vs set 1 %s" % (
                    gap, "agrees" if agree else "DISAGREES")
                disagree += 0 if agree else 1
            print("  %-16s %-17s %12.6g %12.6g %12.6g %7.4f %6.3f  %s" % (
                workload, name, s["median"], s["q1"], s["q3"], s["spread"],
                metric["bound"], status), file=out)
    return unresolved, disagree, left_out


def compare(parent, change, spec, out=sys.stdout):
    """Prints the regression table; returns {(workload, metric): verdict},
    where the metric "failed" is the count of failed operations."""
    verdicts = {}
    list_left_out("parent", parent, out)
    list_left_out("change", change, out)
    ps, cs = series(parent, spec), series(change, spec)
    pw, cw = untraced(parent), untraced(change)
    print("  %-16s %-17s %12s %12s %8s %6s  %s" % (
        "workload", "metric", "parent", "change", "worse", "bound",
        "verdict"), file=out)
    for workload in sorted(set(pw) & set(cw)):
        p, c = failed_ops(pw[workload]), failed_ops(cw[workload])
        verdict = "REGRESSION" if c > p else "ok"
        verdicts[(workload, "failed")] = verdict
        print("  %-16s %-17s %12d %12d %8s %6s  %s" % (
            workload, "failed", p, c, "", "", verdict), file=out)
    for key in sorted(set(ps) & set(cs)):
        metric = spec[key[1]]
        p, c = stats(ps[key]), stats(cs[key])
        gap = worse_by(metric, p["median"], c["median"])
        if max(p["spread"], c["spread"]) > metric["bound"]:
            all_better = all(better(metric, x, y)
                             for x in cs[key] for y in ps[key])
            verdict = "better" if all_better else "unresolved"
        elif gap > metric["bound"]:
            verdict = "REGRESSION"
        else:
            verdict = "ok"
        verdicts[key] = verdict
        print("  %-16s %-17s %12.6g %12.6g %+8.3f %6.3f  %s" % (
            key[0], key[1], p["median"], c["median"], gap, metric["bound"],
            verdict), file=out)
    return verdicts


def paired(parent, change, spec, out=sys.stdout):
    """Prints the gain table; returns {(workload, metric): verdict}."""
    verdicts = {}
    list_left_out("parent", parent, out)
    list_left_out("change", change, out)
    print("  %-16s %-24s %5s %5s %12s %12s %10s  %s" % (
        "workload", "metric", "pairs", "wins", "parent", "change",
        "parent iqr", "verdict"), file=out)
    for traced in (False, True):
        pw, cw = untraced(parent, traced), untraced(change, traced)
        for workload in sorted(set(pw) & set(cw)):
            paired_runs(workload, pw[workload], cw[workload], spec, verdicts,
                        out)
    return verdicts


def paired_runs(workload, parent, change, spec, verdicts, out):
    """The gain rule over one workload's runs of one kind."""
    more_failures = failed_ops(change) > failed_ops(parent)
    both = [(p, c) for p, c in zip(parent, change) if usable(p) and usable(c)]
    for name, metric in spec.items():
        pairs = [(p["metrics"][name]["value"], c["metrics"][name]["value"])
                 for p, c in both
                 if name in p["metrics"] and name in c["metrics"]]
        if not pairs:
            continue
        wins = sum(1 for p, c in pairs if better(metric, c, p))
        p, c = stats([x for x, _ in pairs]), stats([y for _, y in pairs])
        iqr = p["q3"] - p["q1"]
        gap_ok = (better(metric, c["median"], p["median"])
                  and abs(c["median"] - p["median"]) > iqr)
        if more_failures:
            verdict = "no gain: more failed operations"
        elif len(pairs) < 10:
            verdict = "too few pairs"
        elif 10 * wins >= 9 * len(pairs) and gap_ok:
            verdict = "GAIN"
        else:
            verdict = "no gain"
        verdicts[(workload, name)] = verdict
        print("  %-16s %-24s %5d %5d %12.6g %12.6g %10.4g  %s" % (
            workload, name, len(pairs), wins, p["median"], c["median"], iqr,
            verdict), file=out)


def self_test():
    spec = load_spec(os.path.join(FIXTURES, "benchmark.json"))
    layers = load_spec(os.path.join(FIXTURES, "benchmark.json"), True)
    sink = open(os.devnull, "w")
    failures = []

    def expect(ok, what):
        if not ok:
            failures.append(what)

    def fixture(name):
        return load_sets(os.path.join(FIXTURES, name))[0]

    steady = load_sets(os.path.join(FIXTURES, "two_sets.json"))
    unresolved, disagree, left_out = report_sets(steady, spec, sink)
    expect(len(steady) == 2, "two_sets.json has two sets")
    expect(unresolved == 1, "one noisy metric is unresolved, got %d"
           % unresolved)
    expect(disagree == 1, "one metric drifts between sets, got %d" % disagree)
    expect(left_out == 0, "every run in two_sets.json is usable")
    pooled = load_records(os.path.join(FIXTURES, "two_sets.json"))
    expect(len(pooled) == len(steady[0]) + len(steady[1]),
           "a --sets file given as one side pools all its sets")

    parent = fixture("parent.jsonl")
    gain = fixture("change_gain.jsonl")
    mixed = fixture("change_mixed.jsonl")
    slower = fixture("change_slower.jsonl")
    failing = fixture("change_failing.jsonl")
    invalid = fixture("change_invalid.jsonl")
    v = compare(parent, slower, spec, sink)
    expect(v[("w", "throughput_ops_s")] == "REGRESSION",
           "15% lower throughput is a regression")
    expect(v[("w", "latency_p50_us")] == "ok", "equal latency is ok")
    expect(v[("w", "failed")] == "ok", "no failed operations is ok")
    v = compare(parent, gain, spec, sink)
    expect(v[("w", "throughput_ops_s")] == "ok", "a faster change is ok")
    v = paired(parent, gain, spec, sink)
    expect(v[("w", "throughput_ops_s")] == "GAIN",
           "10 of 10 wins beyond the parent's IQR is a gain")
    expect(v[("w", "latency_p50_us")] == "no gain",
           "latency identical to the parent is no gain")
    v = paired(parent, mixed, spec, sink)
    expect(v[("w", "throughput_ops_s")] == "no gain",
           "8 of 10 wins is no gain, however large the median gap")
    v = paired(parent[:9], gain[:9], spec, sink)
    expect(v[("w", "throughput_ops_s")] == "too few pairs",
           "nine pairs cannot support a claim")

    # change_failing.jsonl is change_gain.jsonl plus an 11th run that failed
    # its correctness checks: 10 usable pairs win, but more operations
    # failed than at the parent.
    v = paired(parent + parent[:1], failing, spec, sink)
    expect(v[("w", "throughput_ops_s")] == "no gain: more failed operations",
           "a gain does not count when more operations fail")
    v = compare(parent, failing, spec, sink)
    expect(v[("w", "failed")] == "REGRESSION",
           "more failed operations is a regression")
    expect(max(series(failing, spec)[("w", "throughput_ops_s")]) < 1000,
           "a run that is not correct gives no values")

    # change_invalid.jsonl is change_gain.jsonl with its 10th run flagged
    # invalid and reading 1000: that value and its pair are left out.
    expect(max(series(invalid, spec)[("w", "throughput_ops_s")]) < 1000,
           "an invalid run gives no values")
    v = compare(parent, invalid, spec, sink)
    expect(v[("w", "throughput_ops_s")] == "ok" and v[("w", "failed")] == "ok",
           "an invalid run is neither a regression nor a failure")
    v = paired(parent, invalid, spec, sink)
    expect(v[("w", "throughput_ops_s")] == "too few pairs",
           "an invalid run's pair is left out")

    # Traced runs are judged on the per-layer metrics.
    def traced(records):
        return [{"workload": r["workload"], "trace": 1, "metrics": {
            "loadgen.admitted_ops_s": r["metrics"]["throughput_ops_s"]}}
                for r in records]
    v = paired(traced(parent), traced(gain), layers, sink)
    expect(v[("w", "loadgen.admitted_ops_s")] == "GAIN",
           "a per-layer gain in traced runs is judged by the same rule")
    expect(("w", "loadgen.admitted_ops_s") not in
           paired(traced(parent), traced(gain), spec, sink),
           "per-layer metrics are judged only when asked for")

    expect(stats([1.0, 2.0, 3.0, 4.0])["q1"] ==
           statistics.quantiles([1.0, 2.0, 3.0, 4.0], n=4)[0],
           "quartiles are statistics.quantiles(n=4)")
    sink.close()
    for f in failures:
        print("self-test FAILED: " + f, file=sys.stderr)
    print("self-test: %s" % ("ok" if not failures else "FAILED"))
    return 1 if failures else 0


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("bench", nargs="?", help="a run.py --sets file")
    p.add_argument("--parent")
    p.add_argument("--change")
    p.add_argument("--paired", nargs=2, metavar=("PARENT", "CHANGE"))
    p.add_argument("--spec", default=os.path.join(ROOT, "BENCHMARK.json"))
    p.add_argument("--self-test", action="store_true")
    args = p.parse_args()
    if args.self_test:
        return self_test()
    spec = load_spec(args.spec)
    if args.paired:
        paired(load_records(args.paired[0], sys.stdout),
               load_records(args.paired[1], sys.stdout),
               load_spec(args.spec, per_layer=True))
        return 0
    if args.parent and args.change:
        verdicts = compare(load_records(args.parent, sys.stdout),
                           load_records(args.change, sys.stdout), spec)
        return 1 if "REGRESSION" in verdicts.values() else 0
    if args.bench:
        report_sets(load_sets(args.bench), spec)
        return 0
    p.error("give a --sets file, --parent and --change, --paired, "
            "or --self-test")


if __name__ == "__main__":
    sys.exit(main())
