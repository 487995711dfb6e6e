"""koszuldg benchmark: seeded closed-loop workloads with output checks.

    python3 benchmark/run.py --workload roundtrip --seed 1 --seconds 36 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.  One
process, one client, no threads: each operation starts when the previous one
has finished.  The run first times the one-time set-up in fresh child
interpreters, then generates the workload's inputs from the seed, writes
them as module files, and cycles through them until ``--seconds`` have
passed (always at least one whole pass).  Every output is checked; see
``workloads.py`` and README.md.

Every time is calibrated (``calibrate.py``): a fixed kernel is timed every
40 ms and after each operation, and an operation's time is divided by the
mean kernel time around and inside it.  The host changes speed by up to a
factor of two within a fraction of a second, and this division takes that
change out.  The record keeps the wall-clock figures beside the calibrated
ones.

With ``--trace 0`` the last line of standard output carries the end-to-end
metrics, with ``--trace 1`` the per-layer metrics of a traced run.  The lines
before it are the human-readable record; the full record is also written to
``benchmark/_out/``.  The exit status is 1 when any check fails and 2 when
the program cannot be run at all, in which case no result line is printed.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

import calibrate

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "_out")
REFERENCE = os.path.join(HERE, "reference.json")

DEFAULT_SEED = 1
SETUP_SAMPLES = 5
TAIL_BEYOND = 10            # samples beyond the reported tail percentile
OVERHEAD_BUDGET = 0.05      # share of --seconds per pass over the overhead subset

# the layers a workload exists to exercise; a traced run fails without them
REQUIRED_LAYERS = {
    "roundtrip": ("grlin", "algebra.invariants", "algebra.homology",
                  "algebra.build", "duality"),
    "ext_adams": ("resolve", "adams"),
    "cli_files": ("modfile", "report", "cli", "groups"),
}


class CannotRun(Exception):
    """The program or its set-up is missing; no result can be printed."""


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=sorted(REQUIRED_LAYERS))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--write-reference", action="store_true",
                   help="store this run's digests as the reference "
                        "(default seed only, all oracles must hold)")
    return p.parse_args(argv)


# ---------------------------------------------------------------------------
# environment and set-up


def environment() -> dict:
    lines = {}
    pkg = os.path.join(SRC, "koszuldg")
    h = hashlib.sha256()
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                data = fh.read()
            h.update(name.encode() + b"\0" + data)
            lines[name[:-3]] = data.count(b"\n")
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "commit": _commit(),
        "src_digest": h.hexdigest()[:16],
        "src_lines": lines,
        "src_lines_total": sum(lines.values()),
    }


def _commit():
    """HEAD of the checkout when it is a git work tree, else None."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        with open(os.path.join(ROOT, ".git", ref[5:]), encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return None


def setup_samples() -> list:
    """Time the one-time construction in fresh interpreters; each sample is
    (wall-clock seconds, calibrated seconds)."""
    script = os.path.join(HERE, "bench_setup.py")
    out = []
    for _ in range(SETUP_SAMPLES):
        try:
            proc = subprocess.run([sys.executable, script], cwd=ROOT,
                                  capture_output=True, text=True, timeout=60)
        except subprocess.TimeoutExpired:
            raise CannotRun("set-up did not finish within 60 s")
        if proc.returncode != 0:
            raise CannotRun("set-up failed:\n" + proc.stderr.strip())
        out.append(tuple(map(float, proc.stdout.strip().splitlines()[-1].split())))
    return out


# ---------------------------------------------------------------------------
# the closed loop


class Loop:
    """Runs operations, times them, and checks every output."""

    def __init__(self, ops, paths, tracer=None, sampler=None):
        import workloads
        self.wl = workloads
        self.ops = ops
        self.paths = paths
        self.tracer = tracer
        self.times = {op.name: [] for op in ops}      # calibrated seconds
        self.raw_times = {op.name: [] for op in ops}  # wall-clock seconds
        self.digests = {}
        self.failures = []          # (op name, problem)
        self.attempted = 0
        self.failed = 0
        self.sampler = sampler or calibrate.Sampler()
        self.sampler.sample()

    def run_one(self, index: int) -> float:
        wl = self.wl
        op = self.ops[index]
        if self.tracer:
            self.tracer.begin_op(index)
        sampler = self.sampler
        since, spent = len(sampler.samples), sampler.spent
        started = time.perf_counter()
        try:
            summary = wl.CALLS[op.call](op, self.paths[op.name])
            error = None
        except Exception as exc:     # a crash is a failed operation
            summary, error = None, f"{type(exc).__name__}: {exc}"
            traceback.print_exc(file=sys.stderr)
        elapsed = time.perf_counter() - started - (sampler.spent - spent)
        if self.tracer:
            self.tracer.end_op()
        sampler.sample()
        scaled = elapsed * sampler.scale(since)
        self.attempted += 1
        problems = [error] if error else wl.CHECKS[op.call](op, summary)
        if not error:
            d = wl.digest(summary)
            if self.digests.setdefault(op.name, d) != d:
                problems.append("output differs between passes")
        if problems:
            self.failed += 1
            self.failures.extend((op.name, p) for p in problems)
        self.times[op.name].append(scaled)
        self.raw_times[op.name].append(elapsed)
        return scaled

    def run_for(self, seconds: float) -> float:
        """Cycle through the inputs for the given time, at least one pass."""
        started = time.perf_counter()
        i = 0
        while True:
            self.run_one(i % len(self.ops))
            i += 1
            if i >= len(self.ops) and time.perf_counter() - started >= seconds:
                return time.perf_counter() - started


def latency(times: dict) -> dict:
    """Statistics of the per-input median times.  Taking each input's median
    first makes the tail percentile depend on the fixed input count and not
    on how many passes fit, and keeps a slow spell of the machine from
    weighing on only the inputs it happened to hit."""
    per_input = sorted(statistics.median(t) for t in times.values())
    n = len(per_input)
    k = max(n - TAIL_BEYOND - 1, 0)
    return {
        "pass_s": sum(per_input),
        "op_ms_p50": statistics.median(per_input) * 1000,
        "op_ms_tail": per_input[k] * 1000,
        "tail_percentile": 100.0 * k / n if n else 0.0,
        "tail_samples_beyond": n - k - 1,
        "inputs": n,
        "samples": sum(len(t) for t in times.values()),
    }


def compare_reference(workload, seed, ops, loop, inputs_digest) -> dict:
    """At the default seed, every output digest must equal the stored one."""
    if seed != DEFAULT_SEED or not os.path.exists(REFERENCE):
        return {"compared": False, "reason": "not the default seed"
                if seed != DEFAULT_SEED else "no reference file"}
    with open(REFERENCE, encoding="utf-8") as fh:
        ref = json.load(fh).get(workload)
    if ref is None:
        return {"compared": False, "reason": "no reference for this workload"}
    if ref["inputs_digest"] != inputs_digest:
        return {"compared": False, "inputs_match_reference": False,
                "reason": "generated inputs differ from the reference; runs on "
                          "this seed are not comparable with earlier ones"}
    mismatched = [op.name for op in ops
                  if loop.digests.get(op.name) not in (None, ref["outputs"].get(op.name))]
    for name in mismatched:
        n = len(loop.times[name])
        loop.failed += n
        loop.failures.append((name, "output digest differs from the reference"))
    return {"compared": True, "inputs_match_reference": True,
            "mismatched": mismatched}


def write_reference(workload, inputs_digest, loop):
    data = {}
    if os.path.exists(REFERENCE):
        with open(REFERENCE, encoding="utf-8") as fh:
            data = json.load(fh)
    data[workload] = {"seed": DEFAULT_SEED, "inputs_digest": inputs_digest,
                      "outputs": dict(sorted(loop.digests.items()))}
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")


def trace_overhead(ops, paths, seconds, per_op_s) -> dict:
    """Tracing cost on a cheap subset: each operation runs untraced, traced,
    traced, untraced, so slow drifts of the machine cancel."""
    from tracer import Tracer
    budget = OVERHEAD_BUDGET * seconds
    subset, total = [], 0.0
    for i, op in enumerate(ops):
        if total + per_op_s[op.name] <= budget or not subset:
            subset.append(i)
            total += per_op_s[op.name]
    plain = Loop(ops, paths)
    untraced = traced = 0.0
    failed = 0
    for i in subset:
        untraced += plain.run_one(i)
        tracer = Tracer()
        tracer.install()
        try:
            loop = Loop(ops, paths, tracer)
            traced += loop.run_one(i) + loop.run_one(i)
        finally:
            tracer.remove()
        untraced += plain.run_one(i)
        failed += loop.failed
    return {"ops": len(subset), "untraced_s": untraced, "traced_s": traced,
            "ratio": traced / untraced - 1.0, "failed": failed + plain.failed}


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "koszuldg", "__init__.py")):
        raise CannotRun(f"no koszuldg package under {SRC}")
    env = environment()
    setup = setup_samples()

    started = time.perf_counter()
    import bench_setup
    bench_setup.construct()
    main_setup_s = time.perf_counter() - started
    import koszuldg
    if not os.path.abspath(koszuldg.__file__).startswith(SRC + os.sep):
        raise CannotRun(f"koszuldg was imported from {koszuldg.__file__}")
    import workloads as wl

    started = time.perf_counter()
    ops = wl.GENERATORS[args.workload](args.seed)
    generate_s = time.perf_counter() - started
    inputs_digest = wl.inputs_digest(ops)
    workdir = os.path.join(HERE, "_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        paths = wl.write_inputs(ops, workdir)
        record = measure(args, ops, paths, inputs_digest)
        record["known_defects"] = wl.known_defects(workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    record.update({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": env, "inputs_digest": inputs_digest,
        "generate_s": generate_s, "setup_samples_s": setup,
        "main_process_setup_s": main_setup_s,
        "input_classes": _class_stats(ops, record.pop("per_input_ms")),
    })
    metrics = record["metrics"]
    record["setup"] = {"raw_median_s": statistics.median(r for r, _ in setup),
                       "calibrated_median_s": statistics.median(c for _, c in setup)}
    if not args.trace:
        metrics["setup_s"] = {"value": record["setup"]["calibrated_median_s"],
                              "unit": "s"}
        metrics["peak_rss_mb"] = {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "unit": "MB"}
    os.makedirs(OUT, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(OUT, stem + ".json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    print_record(record)
    result = {"correct": record["correct"], "attempted": record["attempted"],
              "failed": record["failed"], "metrics": metrics}
    print(json.dumps(result, sort_keys=True))
    return 0 if record["correct"] else 1


def measure(args, ops, paths, inputs_digest) -> dict:
    import workloads as wl
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    loop = Loop(ops, paths, tracer)
    try:
        if tracer:
            # no timer samples: they would fall inside the spans
            wall = loop.run_for(args.seconds)
        else:
            with loop.sampler:
                wall = loop.run_for(args.seconds)
    finally:
        if tracer:
            tracer.remove()
    problems = []
    reference = compare_reference(args.workload, args.seed, ops, loop, inputs_digest)
    if args.write_reference:
        if args.seed != DEFAULT_SEED or loop.failed:
            problems.append("reference not written: needs the default seed "
                            "and a run without failures")
        else:
            write_reference(args.workload, inputs_digest, loop)
    lat = latency(loop.times)
    raw = latency(loop.raw_times)
    record = {
        "wall_s": wall, "attempted": loop.attempted, "failed": loop.failed,
        "fail_ratio": loop.failed / loop.attempted,
        "failures": loop.failures[:50], "reference": reference,
        "outputs_digest": wl.digest(sorted(loop.digests.items())),
        "latency": lat,
        "raw_wall_clock": {"ops_per_s": raw["inputs"] / raw["pass_s"],
                           "op_ms_p50": raw["op_ms_p50"],
                           "op_ms_tail": raw["op_ms_tail"]},
        "per_input_ms": {name: statistics.median(t) * 1000
                         for name, t in loop.times.items()},
    }
    if tracer is None:
        record["metrics"] = {
            "ops_per_s": {"value": lat["inputs"] / lat["pass_s"], "unit": "ops/s"},
            "op_ms_p50": {"value": lat["op_ms_p50"], "unit": "ms"},
            "op_ms_tail": {"value": lat["op_ms_tail"], "unit": "ms"},
        }
    else:
        per_op = {name: statistics.median(t) for name, t in loop.times.items()}
        overhead = trace_overhead(ops, paths, args.seconds, per_op)
        layers = tracer.layer_metrics(wall)
        layers["trace_overhead_ratio"] = (overhead["ratio"], "ratio")
        record["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
        self_total = sum(tracer.self_s)
        record["tracing"] = {
            "wall_s": wall, "self_total_s": self_total,
            "unattributed_s": tracer.unattributed_s(wall),
            "spans": len(tracer.spans[0]), "overhead": overhead,
            "counters": dict(tracer.counters),
            "elim_entries_per_elimination": (
                tracer.counters["grlin.elim_entries"]
                / max(tracer.counters["grlin.elim_calls"], 1)),
        }
        if overhead["failed"]:
            problems.append("operations failed while measuring the overhead")
        if not 0.0 <= self_total <= wall:
            problems.append("layer self times do not fit in the traced wall time")
        missing = [layer for layer in REQUIRED_LAYERS[args.workload]
                   if layers[f"{layer}.calls"][0] == 0]
        if missing:
            problems.append("coverage self-check: no calls recorded in "
                            + ", ".join(missing))
        os.makedirs(OUT, exist_ok=True)
        spans_path = os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.tsv.gz")
        tracer.write_spans(spans_path, [op.name for op in ops])
        record["tracing"]["spans_file"] = os.path.relpath(spans_path, ROOT)
    record["problems"] = problems
    record["correct"] = loop.failed == 0 and not problems
    return record


def _class_stats(ops, per_input_ms) -> dict:
    """Input count and median per-input time of each input class."""
    by_class = {}
    for op in ops:
        by_class.setdefault(op.cls, []).append(per_input_ms[op.name])
    return {cls: {"inputs": len(ms), "median_ms": statistics.median(ms),
                  "total_ms": sum(ms)} for cls, ms in by_class.items()}


def print_record(r: dict):
    env = r["environment"]
    print(f"workload {r['workload']}  seed {r['seed']}  trace {r['trace']}  "
          f"python {env['python']}  nproc {env['nproc']}  commit {env['commit']}")
    print(f"platform {env['platform']}  src {env['src_digest']} "
          f"({env['src_lines_total']} lines: "
          + ", ".join(f"{k} {v}" for k, v in sorted(env['src_lines'].items())) + ")")
    lat = r["latency"]
    raw = r["raw_wall_clock"]
    print(f"raw wall clock: {raw['ops_per_s']:.4g} ops/s, p50 {raw['op_ms_p50']:.4g} ms, "
          f"tail {raw['op_ms_tail']:.4g} ms; set-up {r['setup']['raw_median_s']:.4g} s")
    print(f"inputs {lat['inputs']} ({r['inputs_digest']}), samples {lat['samples']}, "
          f"trace {r['trace']}")
    for cls, c in r["input_classes"].items():
        print(f"  class {cls}: {c['inputs']} inputs, median {c['median_ms']:.1f} ms, "
              f"{c['total_ms'] / 1000:.2f} s a pass")
    print(f"outputs {r['outputs_digest']}  reference: "
          + json.dumps({k: v for k, v in r["reference"].items() if k != "mismatched"}))
    for name, m in r["metrics"].items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(f"  fail_ratio = {r['fail_ratio']:.6g} ratio "
          f"({r['failed']} of {r['attempted']} operations attempted)")
    if not r["trace"]:
        print(f"  op_ms_tail is p{lat['tail_percentile']:.1f} of {lat['inputs']} "
              f"per-input medians ({lat['tail_samples_beyond']} beyond it)")
    else:
        t = r["tracing"]
        print(f"  traced wall {t['wall_s']:.3f} s = layer self {t['self_total_s']:.3f} s"
              f" + unattributed {t['unattributed_s']:.3f} s; {t['spans']} spans")
        shares = sorted(((m["value"], k[:-6]) for k, m in r["metrics"].items()
                         if k.endswith(".share")), reverse=True)
        print("  self-time split: " + ", ".join(f"{k} {v:.1%}" for v, k in shares if v))
        print(f"  {t['elim_entries_per_elimination']:.0f} entries per elimination "
              f"over {t['counters']['grlin.elim_calls']} eliminations")
    for d in r["known_defects"]:
        state = "still present" if d["still_present"] else "no longer shows"
        print(f"  known program defect ({state}): {d['defect']}")
    for name, problem in r["failures"]:
        print(f"  FAILED {name}: {problem}")
    for problem in r["problems"]:
        print(f"  PROBLEM {problem}")


if __name__ == "__main__":
    try:
        sys.exit(main())
    except CannotRun as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        sys.exit(2)
