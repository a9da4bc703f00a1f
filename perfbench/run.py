#!/usr/bin/env python3
"""PiSCES benchmark: one fixed-work run of one workload.

    python3 perfbench/run.py --workload serve_read --seed 1 --seconds 15 \
        --trace 0

Builds pisces_perf from this checkout's sources (into .bench_build/),
generates the workload's inputs from --seed (perfbench/gen.py), runs them,
checks every output and prints the metrics. The last line of standard
output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones (a
separate run with obs tracing on and the layer probes). Exits non-zero
when the build fails or any output is wrong.
"""
import argparse
import bisect
import hashlib
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

import gen
from stats import chunk_medians, percentile

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "perfbench"
RUN_TIMEOUT_S = 170

# (name, unit). BENCHMARK.json repeats these names with their bounds;
# test_perfbench.py checks that the two lists agree.
END_TO_END = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("upload_p50_ms", "ms"),
    ("upload_p90_ms", "ms"),
    ("download_p50_ms", "ms"),
    ("download_p90_ms", "ms"),
    ("cpu_ms_per_op", "ms"),
    ("wire_kb_per_op", "KiB"),
    ("stored_bytes_per_user_byte", "B/B"),
    ("peak_rss_mb", "MiB"),
    ("window_s", "s"),
    ("window_cpu_s", "s"),
    ("window_wire_mb", "MiB"),
]

WINDOW_SPANS = [
    "refresh.deal", "refresh.transform", "refresh.verify", "refresh.apply",
    "recovery.deal", "recovery.transform", "recovery.verify", "recovery.mask",
    "recovery.finish", "vss.deal", "vss.transform", "vss.verify",
]
OP_MSG_TYPES = ["SetShares", "ReconstructRequest", "ShareResponse",
                "DeleteFile", "PhaseDone"]
WINDOW_MSG_TYPES = ["StartRefresh", "StartRecovery", "HostCert", "Deal",
                    "CheckShare", "Verdict", "MaskedShare", "PhaseDone"]
PROBES = [
    ("codec.encode_us_per_kb", "us/KiB"), ("codec.decode_us_per_kb", "us/KiB"),
    ("pss.share_blocks_us_per_block", "us"),
    ("pss.reconstruct_us_per_block", "us"),
    ("math.constrained_from_us", "us"),
    ("field.mul_ns", "ns"), ("field.inv_us", "us"),
    ("field.dot_ns_per_product", "ns"),
    ("field.serialize_us_per_kb", "us/KiB"),
    ("field.deserialize_us_per_kb", "us/KiB"),
    ("net.message_serialize_us_per_kb", "us/KiB"),
    ("net.message_parse_us_per_kb", "us/KiB"),
    ("crypto.verify_cert_us", "us"), ("crypto.sign_us", "us"),
]
PER_LAYER = (
    [("serving.queue_wait_p50_ms", "ms"),
     ("serving.upload_service_p50_ms", "ms"),
     ("serving.download_service_p50_ms", "ms"),
     ("serving.delete_service_p50_ms", "ms"),
     ("serving.submit_us", "us"), ("serving.poll_ms", "ms")]
    + PROBES
    + [(f"pss.{s}.self_ms", "ms") for s in WINDOW_SPANS]
    + [("math.wc_hit_ratio", "ratio"), ("math.pd_hit_ratio", "ratio"),
       ("math.tree_interps_per_op", "count"),
       ("field.dot_calls_per_op", "count"),
       ("field.dot_products_per_op", "count")]
    + [(f"net.kb_sent.{t}_per_op", "KiB") for t in OP_MSG_TYPES]
    + [(f"net.mb_sent.{t}_per_window", "MiB") for t in WINDOW_MSG_TYPES]
    + [("window.refresh_s", "s"), ("window.recovery_s", "s"),
       ("window.unattributed_s", "s"), ("attributed_frac", "ratio"),
       ("obs.trace_overhead_frac", "ratio")]
)

KIB, MIB = 1024.0, 1024.0 * 1024.0


class BenchError(Exception):
    pass


def build_program():
    """Configures and builds pisces_perf; returns the binary's path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise BenchError(f"no library sources under {ROOT / 'src'}")
    BUILD.mkdir(parents=True, exist_ok=True)
    log = BUILD / "build.log"
    steps = [["cmake", "--build", str(BUILD), "--target", "pisces_perf",
              "-j", str(min(4, os.cpu_count() or 1))]]
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.insert(0, ["cmake", "-S", str(ROOT / "perfbench"), "-B",
                         str(BUILD), "-DCMAKE_BUILD_TYPE=Release"])
    with open(log, "w") as out:
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT).returncode:
                tail = log.read_text()[-3000:]
                raise BenchError(f"build failed: {' '.join(cmd)}\n{tail}")
    return BUILD / "pisces_perf"


def source_context():
    """Git revision when there is one, and a digest of the library sources."""
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        git_rev = rev.stdout.strip() if rev.returncode == 0 else "none"
    except (OSError, subprocess.TimeoutExpired):
        git_rev = "none"
    h = hashlib.sha256()
    for p in sorted((ROOT / "src").rglob("*")):
        if p.is_file():
            h.update(str(p.relative_to(ROOT)).encode())
            h.update(p.read_bytes())
    return {"git_rev": git_rev, "src_sha256": h.hexdigest()[:16]}


def expected_state(preload, ops):
    """Live files and bytes after the op list, by the sequential model."""
    live = {fid: size for _, fid, size in preload}
    for code, fid, size in ops:
        if code == gen.UPLOAD:
            live[fid] = size
        elif code == gen.DELETE:
            del live[fid]
    return len(live), sum(live.values())


# Every measured interval is scaled by REF_PROBE_NS over the mean time of the
# speed probe on its vCPU just before and just after it (CpuPicker in
# pisces_perf.cpp), so a time reads as it would on a vCPU that runs the probe
# in exactly 100 us (the fastest seen on the VM this was built on: 93 us). On
# a shared VM whose clock steps with the host's load, this turns a 20-30%
# run-to-run spread into one under 10% (README.md).
REF_PROBE_NS = 100_000.0


def speed_scale(before_ns, after_ns):
    return REF_PROBE_NS / ((before_ns + after_ns) / 2)


def op_scales(loop):
    """Speed scale of each op: from the probe of the CPU picked before it and
    of the same CPU at the next pick. An op never spans a pick: the loop
    picks between ops."""
    at, chosen, was = loop["pick_at"], loop["pick_ns"], loop["pick_was_ns"]
    return [speed_scale(chosen[bisect.bisect_right(at, j) - 1],
                        was[bisect.bisect_left(at, j + 1)])
            for j in range(len(loop["type"]))]


def scaled_clock(times, scales):
    """A clock reading per op, on a clock that runs at the reference speed."""
    out, prev, acc = [], 0, 0.0
    for t, k in zip(times, scales):
        acc += (t - prev) * k
        prev = t
        out.append(acc)
    return out


def serving(loop, chunk):
    """Rate and cpu ms per op from the chunk medians, and the latencies (ms)
    by op type of every op after the warm-up chunk, all scaled."""
    scales = op_scales(loop)
    wall, cpu = chunk_medians(scaled_clock(loop["done_ns"], scales),
                              scaled_clock(loop["done_cpu_ns"], scales), chunk)
    lat = {code: [] for code in gen.OP_NAMES}
    for j in range(chunk, len(scales)):
        lat[loop["type"][j]].append(loop["latency_ns"][j] * scales[j] / 1e6)
    return chunk / (wall / 1e9), cpu / chunk / 1e6, lat


def scaled_median(ns, before, after):
    """Median seconds of intervals `ns`, each scaled by its probes."""
    return statistics.median(
        t * speed_scale(b, a) for t, b, a in zip(ns, before, after)) / 1e9


def median_window(windows):
    """Median scaled wall and cpu seconds of the run's windows."""
    before = [w["probe_ns"] for w in windows]
    after = [w["probe_after_ns"] for w in windows]
    return (scaled_median([w["wall_ns"] for w in windows], before, after),
            scaled_median([w["cpu_ns"] for w in windows], before, after))


def end_to_end(raw, chunk):
    run, res, setups = raw["run"], raw["result"], raw["setups"]
    rate, cpu_per_op, lat = serving(run["loop"], chunk)
    window_s, window_cpu_s = median_window(run["windows"])
    window_bytes = sum(w["counters"]["net.bytes_sent"] for w in run["windows"])
    return {
        "setup_s": scaled_median(setups["wall_ns"], setups["probe_ns"],
                                 setups["probe_after_ns"]),
        "ops_per_s": rate,
        "upload_p50_ms": percentile(lat[gen.UPLOAD], 0.5),
        "upload_p90_ms": percentile(lat[gen.UPLOAD], 0.9),
        "download_p50_ms": percentile(lat[gen.DOWNLOAD], 0.5),
        "download_p90_ms": percentile(lat[gen.DOWNLOAD], 0.9),
        "cpu_ms_per_op": cpu_per_op,
        "wire_kb_per_op": (run["loop"]["counters"]["net.bytes_sent"]
                           / len(run["loop"]["type"]) / KIB),
        "stored_bytes_per_user_byte": res["stored_bytes"] / res["live_bytes"],
        "peak_rss_mb": res["peak_rss_kb"] / 1024.0,
        "window_s": window_s,
        "window_cpu_s": window_cpu_s,
        "window_wire_mb": window_bytes / len(run["windows"]) / MIB,
    }


def unscaled(raw, chunk):
    """The headline times as the clock read them, for the context line."""
    run = raw["run"]
    loop = run["loop"]
    wall, _ = chunk_medians(loop["done_ns"], loop["done_cpu_ns"], chunk)
    return {"ops_per_s": chunk / (wall / 1e9),
            "window_s": statistics.median(w["wall_ns"] for w in run["windows"]) / 1e9,
            "setup_s": statistics.median(raw["setups"]["wall_ns"]) / 1e9}


def per_layer(raw, chunk):
    untraced, traced = raw["untraced"], raw["traced"]
    loop = untraced["loop"]
    ops = len(loop["type"])
    rate = serving(loop, chunk)[0]
    kept = range(chunk, ops)
    m = {"serving.queue_wait_p50_ms":
         percentile([loop["queue_ns"][j] for j in kept], 0.5) / 1e6}
    for code, name in gen.OP_NAMES.items():
        service = [loop["service_ns"][j] for j in kept if loop["type"][j] == code]
        m[f"serving.{name}_service_p50_ms"] = percentile(service, 0.5) / 1e6
    m["serving.submit_us"] = statistics.median(loop["submit_ns"]) / 1e3
    m["serving.poll_ms"] = statistics.median(loop["poll_ns"]) / 1e6
    m.update(raw["probes"])

    windows = traced["windows"]
    spans = traced["spans"]
    for span in WINDOW_SPANS:
        m[f"pss.{span}.self_ms"] = spans.get(span, {}).get("self_wall_ns", 0) / 1e6

    c = loop["counters"]
    wc = c["math.wc_hits"] + c["math.wc_misses"]
    pd = c["math.pd_hits"] + c["math.pd_misses"]
    m["math.wc_hit_ratio"] = c["math.wc_hits"] / wc if wc else 0.0
    m["math.pd_hit_ratio"] = c["math.pd_hits"] / pd if pd else 0.0
    m["math.tree_interps_per_op"] = c["math.tree_interps"] / ops
    m["field.dot_calls_per_op"] = c["field.dot_calls"] / ops
    m["field.dot_products_per_op"] = c["field.dot_products"] / ops
    for t in OP_MSG_TYPES:
        m[f"net.kb_sent.{t}_per_op"] = c[f"net.bytes_sent.{t}"] / ops / KIB
    for t in WINDOW_MSG_TYPES:
        sent = sum(w["counters"][f"net.bytes_sent.{t}"] for w in untraced["windows"])
        m[f"net.mb_sent.{t}_per_window"] = sent / len(untraced["windows"]) / MIB

    m["window.refresh_s"] = spans.get("refresh.session", {}).get("wall_ns", 0) / 1e9
    m["window.recovery_s"] = spans.get("recovery.batch", {}).get("wall_ns", 0) / 1e9
    layer = [v for name, v in spans.items() if name != "window"]
    m["window.unattributed_s"] = (
        windows[0]["wall_ns"] - sum(v["self_wall_ns"] for v in layer)) / 1e9
    m["attributed_frac"] = (sum(v["self_cpu_ns"] for v in layer)
                            / traced["windows_cpu_ns"])

    # Tracing cost: the same work untraced and traced, on the op loop and
    # on one window, averaged.
    traced_rate = serving(traced["loop"], chunk)[0]
    window_ratio = median_window(windows)[0] / median_window(untraced["windows"])[0]
    m["obs.trace_overhead_frac"] = (rate / traced_rate - 1 + window_ratio - 1) / 2
    return m


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(gen.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()

    try:
        exe = build_program()
        header, preload, ops = gen.generate(a.workload, a.seed, a.seconds)
        stem = BUILD / a.workload
        inp, out = stem.with_suffix(".in"), stem.with_suffix(".raw.json")
        gen.write_input(inp, header, preload, ops)
        cmd = [str(exe), "--input", str(inp), "--out", str(out),
               "--trace", str(a.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
        if proc.returncode != 0:
            raise BenchError(f"pisces_perf exited {proc.returncode}: {proc.stderr[-2000:]}")
        raw = json.loads(out.read_text())
        w = gen.WORKLOADS[a.workload]
        chunk = w["chunk_rounds"] * sum(w["round"].values())
        if a.trace:
            metrics, names = per_layer(raw, chunk), PER_LAYER
        else:
            metrics, names = end_to_end(raw, chunk), END_TO_END
    except (BenchError, ValueError, KeyError, OSError,
            subprocess.TimeoutExpired) as e:
        print(f"perfbench: {e!r}", file=sys.stderr)
        return 2

    res = raw["result"]
    live_files, live_bytes = expected_state(preload, ops)
    phase = raw["traced" if a.trace else "run"]
    problems = list(res["errors"])
    if res["ok"] != res["attempted"]:
        problems.append(f"{res['attempted'] - res['ok']} ops or windows not ok")
    if not res["ledger_ok"]:
        problems.append("serving ledger: accepted != completed + failed")
    if (res["live_files"], res["live_bytes"]) != (live_files, live_bytes):
        problems.append("live files differ from the generated model")
    done = len(phase["loop"]["type"]) + (len(raw["untraced"]["loop"]["type"]) if a.trace else 0)
    if done != len(ops):
        problems.append(f"{len(ops) - done} ops never completed")
    correct = not problems

    run = raw.get("run") or raw["untraced"]
    loop = run["loop"]
    context = dict(raw["context"], **source_context(), workload=a.workload,
                   seed=a.seed, seconds=a.seconds, trace=a.trace,
                   samples={gen.OP_NAMES[c]: loop["type"].count(c) for c in gen.OP_NAMES},
                   windows=len(run["windows"]), setups=len(raw["setups"]["wall_ns"]),
                   ok_frac=res["ok"] / res["attempted"], cpus=res["cpus"],
                   probe_median_us=res["probe_median_us"],
                   baseline_anon_mb=res["baseline_anon_kb"] / 1024.0)
    if not a.trace:
        context["unscaled"] = unscaled(raw, chunk)
    for p in problems:
        print(f"perfbench: FAILED: {p}", file=sys.stderr)
    for name, unit in names:
        print(f"{name:40s} {metrics[name]:16.6f} {unit}")
    print(json.dumps({"context": context}))
    print(json.dumps({
        "correct": correct,
        "attempted": res["attempted"],
        "failed": res["attempted"] - res["ok"],
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in names},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
