#!/usr/bin/env python3
"""Workload generator of the PiSCES benchmark.

Writes the input file pisces_perf runs: the plane shape, the preload and the
op list. Everything random comes from --seed, so one seed gives the same
bytes; the program never sees the seed itself. An upload's record holds its
file id and length; the program derives the bytes from those and the
header's `payload_seed` (Payload in pisces_perf.cpp), so it never holds the
payloads of the whole op list.

    python3 perfbench/gen.py --workload serve_read --seed 1 --seconds 20 \
        --out input.bin

Ops come in rounds of a fixed composition, shuffled within the round, so
every chunk of whole rounds does the same mix of work. File sizes are drawn
uniformly from 31/32 to 33/32 of the nominal size: odd lengths exercise the
codec's padding, and the run-to-run spread of the metrics stays small. The
ops are valid in list order: a download or delete always names a file that
is live at that point.
"""
import argparse
import math
import random
import struct

UPLOAD, DOWNLOAD, DELETE = 0, 1, 2
OP_NAMES = {UPLOAD: "upload", DOWNLOAD: "download", DELETE: "delete"}

# Why each workload exists is recorded in perfbench/README.md. The closed
# loop has one request outstanding at a time (README.md: One session).
# `ops_per_second` sizes the op list to about 60% of a run; a chunk is
# `chunk_rounds` rounds. The loop picks a CPU every `pick_ops` ops (default:
# every chunk), 4-40 ms of work, short enough that the clock rarely steps
# between two picks.
WORKLOADS = {
    "serve_read": {
        "plane": {"shards": 2, "n": 8, "t": 1, "l": 2, "r": 2, "g": 256},
        "file_bytes": 2048, "preload": 32,
        "round": {DOWNLOAD: 18, UPLOAD: 1, DELETE: 1},
        "ops_per_second": 3500, "chunk_rounds": 10,
        "windows_per_second": 1.5,
    },
    "serve_write": {
        "plane": {"shards": 2, "n": 8, "t": 1, "l": 2, "r": 2, "g": 256},
        "file_bytes": 8192, "preload": 16,
        "round": {UPLOAD: 4, DOWNLOAD: 1, DELETE: 4},
        "ops_per_second": 400, "chunk_rounds": 2,
        "windows_per_second": 1.5,
    },
    "window": {
        "plane": {"shards": 1, "n": 21, "t": 4, "l": 6, "r": 3, "g": 1024},
        "file_bytes": 10240, "preload": 2, "window_files": 1,
        # Equal thirds give each op type its 100 samples in the fewest ops;
        # see README.md (Workloads) for why `window` runs ops at all.
        "round": {DOWNLOAD: 1, UPLOAD: 1, DELETE: 1}, "pick_ops": 1,
        "ops_per_second": 55, "chunk_rounds": 1,
        "windows_per_second": 1.5,
    },
}

# The fewest samples of each op type the reported percentiles need after
# the warm-up chunk: p90 with ten samples beyond it needs 100.
MIN_SAMPLES = 100
MIN_WINDOWS = 3


def sizing(workload, seconds):
    """Rounds and windows of a run of `seconds` seconds."""
    w = WORKLOADS[workload]
    round_ops = sum(w["round"].values())
    chunk = w["chunk_rounds"]
    rounds = math.ceil(seconds * w["ops_per_second"] / round_ops)
    rounds = max(rounds, math.ceil(MIN_SAMPLES / min(w["round"].values())) + chunk)
    # Whole chunks only, and an even count of them, so the traced run can
    # split the list into two halves of the same composition.
    rounds = math.ceil(rounds / (2 * chunk)) * 2 * chunk
    windows = max(MIN_WINDOWS, round(seconds * w["windows_per_second"]))
    return rounds, windows


def generate(workload, seed, seconds):
    """Returns (header dict, preload list, op list); ops are (code, id, size),
    with size 0 for downloads and deletes."""
    w = WORKLOADS[workload]
    rng = random.Random(f"{workload}/{seed}")
    rounds, windows = sizing(workload, seconds)
    nominal = w["file_bytes"]

    def new_file(ids):
        size = rng.randint(nominal * 31 // 32, nominal * 33 // 32)
        return (UPLOAD, next(ids), size)

    ids = iter(range(1, 1 << 62))
    preload = [new_file(ids) for _ in range(w["preload"])]
    live = [op[1] for op in preload]

    ops = []
    for _ in range(rounds):
        kinds = [op for op, k in w["round"].items() for _ in range(k)]
        rng.shuffle(kinds)
        for kind in kinds:
            if kind == UPLOAD or not live:
                op = new_file(ids)
                live.append(op[1])
            else:
                pick = rng.randrange(len(live))
                op = (kind, live[pick], 0)
                if kind == DELETE:
                    live[pick] = live[-1]
                    live.pop()
            ops.append(op)

    round_ops = sum(w["round"].values())
    header = dict(w["plane"])
    header.update({
        "plane_seed": rng.getrandbits(62) + 1,
        "payload_seed": rng.getrandbits(62) + 1,
        "windows": windows,
        "chunk_ops": w["chunk_rounds"] * round_ops,
        "pick_ops": w.get("pick_ops", w["chunk_rounds"] * round_ops),
        "preload": len(preload),
        "window_files": w.get("window_files", len(preload)),
        "ops": len(ops),
        "trace_split": rounds // 2 * round_ops,
    })
    return header, preload, ops


def write_input(path, header, preload, ops):
    with open(path, "wb") as f:
        f.write(b"pisces-perf-input 1\n")
        for k, v in header.items():
            f.write(f"{k} {v}\n".encode())
        f.write(b"end\n")
        for code, file_id, size in preload + ops:
            f.write(struct.pack("<BQI", code, file_id, size))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--out", required=True)
    a = ap.parse_args()
    write_input(a.out, *generate(a.workload, a.seed, a.seconds))


if __name__ == "__main__":
    main()
