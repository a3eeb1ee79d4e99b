#!/usr/bin/env python3
"""Pipeline benchmark of the fghp library.

Builds perfbench_pipeline from the repository's sources, runs one workload as
a closed loop of passes for --seconds, checks every pass's output, and prints
each metric by name with its unit. The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are the end-to-end ones, with --trace 1 the per-layer ones.

    python3 perfbench/run.py --workload ken11-multilevel --seed 1 --seconds 20 --trace 0

Run it from the repository root. Workload rationale, the layer -> end-to-end
mapping and the machine record are in perfbench/README.md.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

WORKLOADS = ["ken11-multilevel", "mod2-geometric", "skewed4m-geometric", "spgemm-sherman3"]

# Configuring, and then a cold build of the repository's libraries, may each
# take this long.
BUILD_DEADLINE_S = 420
# The measured loop may overrun --seconds by one pass; input generation and
# the output document come on top. Past this margin the run is abandoned.
RUN_MARGIN_S = 120

NAME_RE = r"^[A-Za-z0-9_.-]+$"

# (name, unit): what a user of the library sees.
END_TO_END = [
    ("setup_s", "s"),
    ("iter_serial_ms", "ms"),
    ("volume_words", "words"),
    ("messages", "count"),
    ("peak_rss_mb", "MiB"),
    ("pass_rate", "ratio"),
]

ALL = WORKLOADS

# (name, unit, end-to-end metric it moves, workloads where it should move).
PER_LAYER = [
    ("sparse.parse_ms", "ms", "setup_s", ["mod2-geometric", "ken11-multilevel"]),
    ("sparse.parse_mb_s", "MB/s", "setup_s", ["mod2-geometric"]),
    ("sparse.file_mb", "MB", "setup_s", ["mod2-geometric"]),
    ("models.build_ms", "ms", "setup_s", ["ken11-multilevel"]),
    ("models.decode_ms", "ms", "setup_s", ["ken11-multilevel"]),
    ("models.vertices", "count", "peak_rss_mb", ["ken11-multilevel"]),
    ("models.pins", "count", "peak_rss_mb", ["ken11-multilevel"]),
    ("partition.ms", "ms", "setup_s", ["ken11-multilevel", "spgemm-sherman3"]),
    ("partition.cutsize", "words", "volume_words", ALL),
    ("partition.imbalance_pct", "%", "volume_words", ALL),
    ("partition.recoveries", "count", "setup_s", ALL),
    ("partition.rb_node_eff", "ratio", "setup_s", ["ken11-multilevel"]),
    ("partition.worker_util_min", "ratio", "setup_s", ["ken11-multilevel"]),
    ("spmv.plan_ms", "ms", "setup_s", ["skewed4m-geometric"]),
    ("exec.compile_ms", "ms", "setup_s", ["skewed4m-geometric"]),
    ("exec.image_mb", "MB", "peak_rss_mb", ["skewed4m-geometric"]),
    ("exec.iter_serial_p95_ms", "ms", "iter_serial_ms", ["skewed4m-geometric"]),
    ("exec.gbps_computed", "GB/s", "iter_serial_ms", ["skewed4m-geometric"]),
    ("exec.bytes_per_iter", "bytes", "iter_serial_ms", ["skewed4m-geometric"]),
    ("exec.iter_mt_ms", "ms", "iter_mt_ms", ["skewed4m-geometric", "ken11-multilevel"]),
    ("exec.iter_mt_p95_ms", "ms", "iter_mt_ms", ["skewed4m-geometric", "ken11-multilevel"]),
    ("exec.mt_over_serial", "ratio", "iter_mt_ms", ["skewed4m-geometric", "ken11-multilevel"]),
    ("exec.expand_eff", "ratio", "iter_mt_ms", ["skewed4m-geometric", "ken11-multilevel"]),
    ("exec.fold_eff", "ratio", "iter_mt_ms", ["skewed4m-geometric", "ken11-multilevel"]),
    ("exec.words_per_iter", "words", "volume_words", ALL),
    ("exec.msgs_per_iter", "count", "messages", ALL),
    ("exec.task_retries", "count", "pass_rate", ALL),
    ("exec.serial_fallbacks", "count", "pass_rate", ALL),
    ("spgemm.tasks_ms", "ms", "setup_s", ["spgemm-sherman3"]),
    ("spgemm.model_ms", "ms", "setup_s", ["spgemm-sherman3"]),
    ("spgemm.schedule_ms", "ms", "setup_s", ["spgemm-sherman3"]),
    ("spgemm.tasks", "count", "iter_serial_ms", ["spgemm-sherman3"]),
    ("spgemm.nnz_c", "count", "iter_serial_ms", ["spgemm-sherman3"]),
    ("comm.max_proc_words", "words", "volume_words", ALL),
    ("comm.avg_msgs_per_proc", "count", "messages", ALL),
    ("trace.overhead_pct", "%", "none", ALL),
    ("trace.unattributed_pct", "%", "none", ALL),
    ("fail_rate", "ratio", "pass_rate", ALL),
]

# Percentiles considered for a reported tail, highest first.
TAIL_LEVELS = [0.999, 0.99, 0.95, 0.9, 0.75]


class CoverageError(Exception):
    """A pass's layer spans overlap or leave the pass span."""


def median(values):
    return statistics.median(values) if values else 0.0


def tail_percentile(samples, q):
    """Nearest-rank q-quantile of samples, or None unless at least ten
    samples lie beyond it."""
    n = len(samples)
    if n == 0:
        return None
    rank = max(1, math.ceil(q * n))
    if n - rank < 10:
        return None
    return sorted(samples)[rank - 1]


def highest_tail(samples):
    """(q, value) of the highest percentile with ten samples beyond it."""
    for q in TAIL_LEVELS:
        v = tail_percentile(samples, q)
        if v is not None:
            return q, v
    return None


def layer_coverage(spans):
    """Checks that one pass's layer spans lie inside the pass span without
    overlapping, and returns (pass ms, {layer: ms}, unattributed ms): the
    layers plus the unattributed remainder add up to the pass span."""
    roots = [s for s in spans if s["name"] == "pass"]
    if len(roots) != 1:
        raise CoverageError(f"expected one pass span, found {len(roots)}")
    root = roots[0]
    children = sorted((s for s in spans if s["parent"] == "pass"), key=lambda s: s["start_ms"])
    layers = {}
    prev_end = root["start_ms"]
    for s in children:
        if s["start_ms"] < prev_end or s["end_ms"] > root["end_ms"] or s["end_ms"] < s["start_ms"]:
            raise CoverageError(f"span {s['name']} overlaps its neighbour or leaves the pass")
        prev_end = s["end_ms"]
        layers[s["name"]] = layers.get(s["name"], 0.0) + (s["end_ms"] - s["start_ms"])
    total = root["end_ms"] - root["start_ms"]
    return total, layers, total - sum(layers.values())


def e2e_metrics(doc):
    ok = [p for p in doc["passes"] if p["ok"]]
    serial = [v for p in ok for v in p["serial_ms"]]
    mt = [v for p in ok for v in p["mt_ms"]]
    attempted = len(doc["passes"])
    values = {
        "setup_s": median([p["setup_s"] for p in ok]),
        "iter_serial_ms": median(serial),
        "volume_words": median([p["counts"]["volume_words"] for p in ok]),
        "messages": median([p["counts"]["messages"] for p in ok]),
        "peak_rss_mb": doc["peak_rss_mb"],
        "pass_rate": len(ok) / attempted,
    }
    notes = {
        "setup_s": f"median of {len(ok)} passes",
        "iter_serial_ms": sample_note(serial),
    }
    return values, notes, median(mt), sample_note(mt)


def sample_note(samples):
    tail = highest_tail(samples)
    note = f"median of {len(samples)} iterations"
    if tail:
        note += f", p{tail[0] * 100:g} {tail[1]:.4f} ms"
    return note


def layer_metrics(doc):
    """Per-layer metrics from the traced passes; the untraced passes of the
    same run give the tracing overhead."""
    passes = doc["passes"]
    traced = [p for p in passes if p["traced"] and p["ok"]]
    untraced = [p for p in passes if not p["traced"] and p["ok"]]
    cover = [layer_coverage(p["spans"]) for p in traced]

    def span_ms(name):
        return median([layers.get(name, 0.0) for _, layers, _ in cover])

    def count(name):
        return median([p["counts"].get(name, 0.0) for p in traced])

    serial = [v for p in traced for v in p["serial_ms"]]
    mt = [v for p in traced for v in p["mt_ms"]]
    serial_med, mt_med = median(serial), median(mt)
    parse_ms = span_ms("sparse.parse")
    file_mb = count("file_bytes") / 1e6
    bytes_per_iter = count("bytes_per_iter")
    traced_wall = median([total - layers.get("trace.report", 0.0) for total, layers, _ in cover])
    untraced_wall = median([layer_coverage(p["spans"])[0] for p in untraced])
    failed = len(passes) - len(traced) - len(untraced)

    values = {
        "sparse.parse_ms": parse_ms,
        "sparse.parse_mb_s": file_mb / (parse_ms / 1000.0) if parse_ms > 0 else 0.0,
        "sparse.file_mb": file_mb,
        "models.build_ms": span_ms("models.build"),
        "models.decode_ms": span_ms("models.decode"),
        "models.vertices": count("vertices"),
        "models.pins": count("pins"),
        "partition.ms": span_ms("partition"),
        "partition.cutsize": count("cutsize"),
        "partition.imbalance_pct": count("imbalance_pct"),
        "partition.recoveries": count("recoveries"),
        "partition.rb_node_eff": count("rb_node_eff"),
        "partition.worker_util_min": count("worker_util_min"),
        "spmv.plan_ms": span_ms("spmv.plan"),
        "exec.compile_ms": span_ms("exec.compile"),
        "exec.image_mb": count("image_bytes") / 1e6,
        "exec.iter_serial_p95_ms": tail_percentile(serial, 0.95),
        "exec.gbps_computed": bytes_per_iter / (serial_med / 1000.0) / 1e9 if serial_med else 0.0,
        "exec.bytes_per_iter": bytes_per_iter,
        "exec.iter_mt_ms": mt_med,
        "exec.iter_mt_p95_ms": tail_percentile(mt, 0.95),
        "exec.mt_over_serial": mt_med / serial_med if serial_med else 0.0,
        "exec.expand_eff": count("expand_eff"),
        "exec.fold_eff": count("fold_eff"),
        "exec.words_per_iter": count("words_per_iter"),
        "exec.msgs_per_iter": count("msgs_per_iter"),
        "exec.task_retries": sum(p["counts"].get("task_retries", 0.0) for p in traced),
        "exec.serial_fallbacks": sum(p["counts"].get("serial_fallbacks", 0.0) for p in traced),
        "spgemm.tasks_ms": span_ms("spgemm.tasks"),
        "spgemm.model_ms": span_ms("spgemm.model"),
        "spgemm.schedule_ms": span_ms("spgemm.schedule"),
        "spgemm.tasks": count("tasks"),
        "spgemm.nnz_c": count("nnz_c"),
        "comm.max_proc_words": count("max_proc_words"),
        "comm.avg_msgs_per_proc": count("avg_msgs_per_proc"),
        "trace.overhead_pct":
            100.0 * (traced_wall - untraced_wall) / untraced_wall if untraced_wall else None,
        "trace.unattributed_pct": median([100.0 * u / total for total, _, u in cover]),
        "fail_rate": failed / len(passes),
    }
    # A percentile without ten samples beyond it, or an overhead without
    # both kinds of pass, is not reported.
    return {name: v for name, v in values.items() if v is not None}


def print_machine(doc):
    m = doc["machine"]
    ws = next((p["counts"]["bytes_per_iter"] for p in doc["passes"] if p["ok"]), 0)
    print(f"# machine: nproc {m['nproc']}, L2 {m['l2_bytes'] / 2**20:g} MiB/core, "
          f"L3 {m['l3_bytes'] / 2**20:g} MiB, compiler {m['compiler']}, "
          f"build {m['build_type']}; K {doc['k']}, threads {doc['threads']}")
    print(f"# working set of one serial iteration (computed): {ws / 1e6:.1f} MB; "
          f"a bandwidth measurement would need arrays over 4 x LLC = "
          f"{4 * m['l3_bytes'] / 2**20:g} MiB, not met")


def build(root):
    build_dir = root / ".bench_build" / "perfbench"
    # The compiler's temporary files stay inside the checkout too.
    tmp = build_dir / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    if not (build_dir / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(root / "perfbench"), "-B", str(build_dir)]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, env=env, timeout=BUILD_DEADLINE_S)
    subprocess.run(["cmake", "--build", str(build_dir), "--target", "perfbench_pipeline",
                    "-j", "4"], check=True, stdout=sys.stderr, env=env,
                   timeout=BUILD_DEADLINE_S)
    return build_dir


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)

    root = Path(__file__).resolve().parent.parent
    if not (root / "CMakeLists.txt").is_file() or not (root / "src").is_dir():
        print(f"run.py: no fghp sources under {root}", file=sys.stderr)
        return 2
    try:
        build_dir = build(root)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 3

    work = build_dir / "work"
    work.mkdir(exist_ok=True)
    out = work / f"{args.workload}-s{args.seed}-t{args.trace}.json"
    cmd = [str(build_dir / "perfbench_pipeline"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--workdir", str(work), "--out", str(out)]
    try:
        subprocess.run(cmd, check=True, stdout=sys.stderr, timeout=args.seconds + RUN_MARGIN_S)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as e:
        print(f"run.py: benchmark run failed: {e}", file=sys.stderr)
        return 4
    doc = json.loads(out.read_text())

    passes = doc["passes"]
    attempted = len(passes)
    failed = sum(1 for p in passes if not p["ok"])
    for p in passes:
        if not p["ok"]:
            print(f"# pass {p['id']} FAILED: {p['error']}")
    print(f"# {args.workload} seed {args.seed} trace {args.trace}: {attempted} passes attempted, "
          f"{failed} failed, fail_rate {failed / attempted:g}; input hash {doc['input']['hash']}")
    print_machine(doc)

    try:
        for p in passes:
            if p["ok"]:
                layer_coverage(p["spans"])
        covered = True
    except CoverageError as e:
        print(f"run.py: layer coverage check failed: {e}", file=sys.stderr)
        covered = False
    if args.trace == 0:
        values, notes, mt_ms, mt_note = e2e_metrics(doc)
        units = dict(END_TO_END)
        for name, unit in END_TO_END:
            print(f"{name:<28} {values[name]:>14.6g} {unit:<6} {notes.get(name, '')}")
        # Shown, not gated: host CPU steal moves it by more than any bound.
        print(f"{'iter_mt_ms':<28} {mt_ms:>14.6g} {'ms':<6} {mt_note} (not gated)")
    else:
        values = layer_metrics(doc) if covered else {}
        units = {name: unit for name, unit, _, _ in PER_LAYER}
        for name, unit, moves, where in PER_LAYER:
            if name in values:
                print(f"{name:<28} {values[name]:>14.6g} {unit:<6} "
                      f"moves {moves} on {', '.join(where)}")

    result = {
        "correct": failed == 0 and covered,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in values},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
