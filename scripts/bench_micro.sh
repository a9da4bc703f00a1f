#!/usr/bin/env bash
# Field-kernel + polynomial-engine microbenchmark harness: configures and
# builds a Release tree, runs the mul/sqr/dot kernels at every standard prime
# size plus the subproduct-tree eval/interp/batch-inversion benchmarks at
# n in {16, 64, 256, 1024}, and distills the google-benchmark JSON into
# BENCH_field.json at the repo root -- machine-readable specialized-vs-generic
# numbers plus speedup ratios, with the acceptance gates (>= 1.5x Montgomery
# multiply at g=256; >= 5x tree interpolation vs the Lagrange oracle at
# n=1024) spelled out as fields.
#
# The post-pass HARD-FAILS unless the benchmark binary was built with NDEBUG:
# it gates on the custom context key `pisces_build_type` emitted by
# micro_field_ops itself. google-benchmark's own `library_build_type` key is
# untrustworthy for this (it reports how the installed benchmark LIBRARY was
# compiled -- "debug" for the distro package -- not how our code was).
#
# Usage: scripts/bench_micro.sh [build-dir]   (default: build-rel)
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build-rel}"
RAW_FIELD_JSON="$BUILD_DIR/micro_field_raw.json"
RAW_POLY_JSON="$BUILD_DIR/micro_poly_raw.json"
OUT_JSON="BENCH_field.json"

cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=Release
cmake --build "$BUILD_DIR" -j "$(nproc)" --target micro_field_ops

# Belt and braces: the configured build type must be a release flavor even
# before we look at the binary's own context key.
if ! grep -q '^CMAKE_BUILD_TYPE:[^=]*=Rel' "$BUILD_DIR/CMakeCache.txt"; then
  echo "bench_micro.sh: $BUILD_DIR is not a release build" >&2
  exit 1
fi

# Repetitions with a min-selecting post-pass: on a shared host, interference
# is one-sided (it only ever slows a rep down), so the minimum across reps is
# the faithful estimate of the kernel's cost.
"$BUILD_DIR/bench/micro_field_ops" \
  --benchmark_filter='BM_Field(Mul|Sqr|Dot)' \
  --benchmark_out="$RAW_FIELD_JSON" \
  --benchmark_out_format=json \
  --benchmark_repetitions=5

# The poly-engine benches include the O(n^2) Lagrange oracle at n=1024
# (hundreds of ms per iteration), so fewer repetitions keep the harness
# tractable; min-of-3 retains the one-sided-noise property.
"$BUILD_DIR/bench/micro_field_ops" \
  --benchmark_filter='BM_(Poly|BatchInv)' \
  --benchmark_out="$RAW_POLY_JSON" \
  --benchmark_out_format=json \
  --benchmark_repetitions=3

python3 - "$RAW_FIELD_JSON" "$RAW_POLY_JSON" "$OUT_JSON" <<'EOF'
import json
import sys

field_path, poly_path, out_path = sys.argv[1], sys.argv[2], sys.argv[3]
with open(field_path) as f:
    raw_field = json.load(f)
with open(poly_path) as f:
    raw_poly = json.load(f)

# HARD GATE: numbers from a non-release build are not publishable. The key is
# emitted by our own translation unit (NDEBUG check), because the library's
# own library_build_type describes the distro libbenchmark, not our code.
for raw in (raw_field, raw_poly):
    build_type = raw.get("context", {}).get("pisces_build_type")
    if build_type != "release":
        sys.exit(f"bench_micro.sh: refusing non-release numbers "
                 f"(pisces_build_type={build_type!r}); build with NDEBUG")

# Keep the MIN across repetitions of each benchmark/size pair (interference
# on a shared host only ever inflates a rep).
ns = {}
for raw in (raw_field, raw_poly):
    for b in raw["benchmarks"]:
        if b.get("run_type") != "iteration":
            continue
        name, arg = b["run_name"].split("/")
        d = ns.setdefault(name, {})
        g = int(arg)
        d[g] = min(d.get(g, float("inf")), b["real_time"])

def ratio(num, den):
    return round(num / den, 3) if den else None

sizes = sorted(ns.get("BM_FieldMul", {}))
result = {
    "benchmark": "micro_field_ops",
    "dot_length": 32,
    "unit": "ns_min_of_reps",
    "context": raw_field.get("context", {}),
    "sizes": {},
    "poly": {},
}
for g in sizes:
    mul = ns["BM_FieldMul"][g]
    mul_gen = ns["BM_FieldMulGeneric"][g]
    sqr = ns["BM_FieldSqr"][g]
    sqr_gen = ns["BM_FieldSqrGeneric"][g]
    dot = ns["BM_FieldDot"][g]
    dot_naive = ns["BM_FieldDotNaive"][g]
    result["sizes"][str(g)] = {
        "mul_ns": mul,
        "mul_generic_ns": mul_gen,
        "mul_speedup": ratio(mul_gen, mul),
        "sqr_ns": sqr,
        "sqr_generic_ns": sqr_gen,
        "sqr_speedup": ratio(sqr_gen, sqr),
        "sqr_vs_mul": ratio(mul, sqr),
        "dot32_ns": dot,
        "dot32_naive_ns": dot_naive,
        "dot_speedup": ratio(dot_naive, dot),
    }

# Polynomial engine (256-bit field, domain size n): subproduct-tree
# eval/interp vs the generic oracles, plus domain build and batch inversion.
# eval_speedup < 1 through n=1024 is EXPECTED and recorded honestly -- it is
# the measurement behind keeping multipoint evaluation off the tree (see
# docs/polynomial_engine.md).
for n in sorted(ns.get("BM_PolyInterpTree", {})):
    result["poly"][str(n)] = {
        "eval_tree_ns": ns["BM_PolyEvalTree"][n],
        "eval_horner_ns": ns["BM_PolyEvalHorner"][n],
        "eval_speedup": ratio(ns["BM_PolyEvalHorner"][n],
                              ns["BM_PolyEvalTree"][n]),
        "interp_tree_ns": ns["BM_PolyInterpTree"][n],
        "interp_lagrange_ns": ns["BM_PolyInterpLagrange"][n],
        "interp_speedup": ratio(ns["BM_PolyInterpLagrange"][n],
                                ns["BM_PolyInterpTree"][n]),
        "domain_build_ns": ns["BM_PolyDomainBuild"][n],
        "batchinv_ns": ns["BM_BatchInv"][n],
    }

mul256 = result["sizes"].get("256", {}).get("mul_speedup")
interp1024 = result["poly"].get("1024", {}).get("interp_speedup")
result["acceptance"] = {
    "build_type": "release",
    "mul256_speedup": mul256,
    "mul256_target": 1.5,
    "mul256_ok": bool(mul256 and mul256 >= 1.5),
    "interp1024_speedup": interp1024,
    "interp1024_target": 5.0,
    "interp1024_ok": bool(interp1024 and interp1024 >= 5.0),
}
with open(out_path, "w") as f:
    json.dump(result, f, indent=2)
    f.write("\n")
print(f"wrote {out_path}")
print(json.dumps(result["acceptance"], indent=2))
if not (result["acceptance"]["mul256_ok"]
        and result["acceptance"]["interp1024_ok"]):
    sys.exit("bench_micro.sh: acceptance gate failed")
EOF
