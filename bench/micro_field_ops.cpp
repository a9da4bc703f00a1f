// Microbenchmarks of the field and polynomial substrate (google-benchmark):
// the primitive costs behind every figure. Field ops dominate the protocol,
// so this is where the g parameter's cost physically lives.
#include <benchmark/benchmark.h>

#include <map>
#include <memory>

#include "bench_common.h"
#include "crypto/schnorr.h"
#include "field/primes.h"
#include "math/poly.h"
#include "pss/vss.h"

namespace {

using pisces::Rng;
using pisces::field::FpCtx;
using pisces::field::FpElem;
using pisces::field::FpMont;
using pisces::field::StandardPrimeBe;

const FpCtx& CtxFor(std::size_t bits) {
  static std::map<std::size_t, std::unique_ptr<FpCtx>> ctxs;
  auto it = ctxs.find(bits);
  if (it == ctxs.end()) {
    it = ctxs.emplace(bits, std::make_unique<FpCtx>(StandardPrimeBe(bits)))
             .first;
  }
  return *it->second;
}

// Generic runtime-width path (the unspecialized baseline): the
// Generic-suffixed benchmarks below measure the same op on this context, so
// specialized/generic ratios come straight out of one run.
const FpCtx& GenericCtxFor(std::size_t bits) {
  static std::map<std::size_t, std::unique_ptr<FpCtx>> ctxs;
  auto it = ctxs.find(bits);
  if (it == ctxs.end()) {
    it = ctxs.emplace(bits, std::make_unique<FpCtx>(
                                StandardPrimeBe(bits),
                                pisces::field::KernelDispatch::kGeneric))
             .first;
  }
  return *it->second;
}

constexpr std::size_t kDotLen = 32;

// One Montgomery multiply kernel: FpMont x FpMont, the form exponentiation
// and product chains run in.
void MontMul(benchmark::State& state, const FpCtx& ctx) {
  Rng rng(1);
  FpMont a = ctx.ToMont(ctx.Random(rng)), b = ctx.ToMont(ctx.Random(rng));
  for (auto _ : state) {
    a = ctx.Mul(a, b);
    benchmark::DoNotOptimize(a);
  }
}
void BM_FieldMul(benchmark::State& state) {
  MontMul(state, CtxFor(state.range(0)));
}
BENCHMARK(BM_FieldMul)->Arg(256)->Arg(512)->Arg(1024)->Arg(2048);
void BM_FieldMulGeneric(benchmark::State& state) {
  MontMul(state, GenericCtxFor(state.range(0)));
}
BENCHMARK(BM_FieldMulGeneric)->Arg(256)->Arg(512)->Arg(1024)->Arg(2048);

void MontSqr(benchmark::State& state, const FpCtx& ctx) {
  Rng rng(8);
  FpMont a = ctx.ToMont(ctx.Random(rng));
  for (auto _ : state) {
    a = ctx.Sqr(a);
    benchmark::DoNotOptimize(a);
  }
}
void BM_FieldSqr(benchmark::State& state) {
  MontSqr(state, CtxFor(state.range(0)));
}
BENCHMARK(BM_FieldSqr)->Arg(256)->Arg(512)->Arg(1024)->Arg(2048);
void BM_FieldSqrGeneric(benchmark::State& state) {
  MontSqr(state, GenericCtxFor(state.range(0)));
}
BENCHMARK(BM_FieldSqrGeneric)->Arg(256)->Arg(512)->Arg(1024)->Arg(2048);

// Product of two plain elements: the kernel, then x R^2 (two kernels).
void BM_FieldMulPlain(benchmark::State& state) {
  const FpCtx& ctx = CtxFor(state.range(0));
  Rng rng(1);
  FpElem a = ctx.Random(rng), b = ctx.Random(rng);
  for (auto _ : state) {
    a = ctx.Mul(a, b);
    benchmark::DoNotOptimize(a);
  }
}
BENCHMARK(BM_FieldMulPlain)->Arg(256)->Arg(512)->Arg(1024)->Arg(2048);

// Out of Montgomery form: the bare reduction behind FromMont and Random.
void BM_FieldRedc(benchmark::State& state) {
  const FpCtx& ctx = CtxFor(state.range(0));
  Rng rng(10);
  const FpMont a = ctx.ToMont(ctx.Random(rng));
  for (auto _ : state) benchmark::DoNotOptimize(ctx.FromMont(a));
}
BENCHMARK(BM_FieldRedc)->Arg(256)->Arg(512)->Arg(1024)->Arg(2048);

// Wire crossings of kDotLen elements: limb copies (plus the < p check on
// the way in).
std::vector<FpElem> RandomElems(const FpCtx& ctx, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<FpElem> v;
  for (std::size_t i = 0; i < kDotLen; ++i) v.push_back(ctx.Random(rng));
  return v;
}
void BM_FieldSerialize(benchmark::State& state) {
  const FpCtx& ctx = CtxFor(state.range(0));
  const std::vector<FpElem> elems = RandomElems(ctx, 11);
  for (auto _ : state) {
    benchmark::DoNotOptimize(pisces::field::SerializeElems(ctx, elems));
  }
}
BENCHMARK(BM_FieldSerialize)->Arg(256)->Arg(512)->Arg(1024)->Arg(2048);
void BM_FieldDeserialize(benchmark::State& state) {
  const FpCtx& ctx = CtxFor(state.range(0));
  const pisces::Bytes wire =
      pisces::field::SerializeElems(ctx, RandomElems(ctx, 11));
  for (auto _ : state) {
    benchmark::DoNotOptimize(pisces::field::DeserializeElems(ctx, wire));
  }
}
BENCHMARK(BM_FieldDeserialize)->Arg(256)->Arg(512)->Arg(1024)->Arg(2048);

// Lazy-reduction dot product (one wide reduction per output) vs the naive
// Add(Mul(...)) fold it replaced in MulVec / Lagrange / VSS hot loops.
void BM_FieldDot(benchmark::State& state) {
  const FpCtx& ctx = CtxFor(state.range(0));
  Rng rng(9);
  std::vector<FpElem> a, b;
  for (std::size_t i = 0; i < kDotLen; ++i) {
    a.push_back(ctx.Random(rng));
    b.push_back(ctx.Random(rng));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(ctx.Dot(a, b));
  }
}
BENCHMARK(BM_FieldDot)->Arg(256)->Arg(512)->Arg(1024)->Arg(2048);

// The word-coefficient dot of the integer rows: one row of kDotLen k x 1
// products (FpCtx::DotI64Into on element encodings), coefficients of both
// signs (both accumulators reduce).
void BM_FieldDotI64(benchmark::State& state) {
  const FpCtx& ctx = CtxFor(state.range(0));
  const std::size_t eb = ctx.elem_bytes();
  Rng rng(9);
  pisces::Bytes a(kDotLen * eb), sum(eb);
  std::vector<const std::uint8_t*> ptrs;
  std::vector<std::int64_t> c;
  for (std::size_t i = 0; i < kDotLen; ++i) {
    ctx.ToBytes(ctx.Random(rng), a.data() + i * eb);
    ptrs.push_back(a.data() + i * eb);
    const auto mag = static_cast<std::int64_t>(rng.Next() >> 1);
    c.push_back(i % 2 == 0 ? mag : -mag);
  }
  std::uint8_t* const out = sum.data();
  for (auto _ : state) {
    ctx.DotI64Into(ptrs, c, {}, {&out, 1});
    benchmark::DoNotOptimize(sum.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_FieldDotI64)->Arg(256)->Arg(512)->Arg(1024)->Arg(2048);

void BM_FieldDotNaive(benchmark::State& state) {
  const FpCtx& ctx = CtxFor(state.range(0));
  Rng rng(9);
  std::vector<FpElem> a, b;
  for (std::size_t i = 0; i < kDotLen; ++i) {
    a.push_back(ctx.Random(rng));
    b.push_back(ctx.Random(rng));
  }
  for (auto _ : state) {
    FpElem acc = ctx.Zero();
    for (std::size_t i = 0; i < kDotLen; ++i) {
      acc = ctx.Add(acc, ctx.Mul(a[i], b[i]));
    }
    benchmark::DoNotOptimize(acc);
  }
}
BENCHMARK(BM_FieldDotNaive)->Arg(256)->Arg(512)->Arg(1024)->Arg(2048);

void BM_FieldAdd(benchmark::State& state) {
  const FpCtx& ctx = CtxFor(state.range(0));
  Rng rng(2);
  FpElem a = ctx.Random(rng), b = ctx.Random(rng);
  for (auto _ : state) {
    a = ctx.Add(a, b);
    benchmark::DoNotOptimize(a);
  }
}
BENCHMARK(BM_FieldAdd)->Arg(256)->Arg(2048);

void BM_FieldInv(benchmark::State& state) {
  const FpCtx& ctx = CtxFor(state.range(0));
  Rng rng(3);
  FpElem a = ctx.RandomNonZero(rng);
  for (auto _ : state) {
    a = ctx.Inv(a);
    benchmark::DoNotOptimize(a);
  }
}
BENCHMARK(BM_FieldInv)->Arg(256)->Arg(1024);

// Batch inversion (256-bit field): one Inv plus 3(m-1) muls, vs m full Inv
// exponentiations without the trick.
void BM_BatchInv(benchmark::State& state) {
  const FpCtx& ctx = CtxFor(256);
  Rng rng(4);
  std::vector<FpElem> elems;
  for (std::int64_t i = 0; i < state.range(0); ++i) {
    elems.push_back(ctx.RandomNonZero(rng));
  }
  for (auto _ : state) {
    auto copy = elems;
    ctx.BatchInv(copy);
    benchmark::DoNotOptimize(copy);
  }
}
BENCHMARK(BM_BatchInv)->Arg(16)->Arg(64)->Arg(256)->Arg(1024);

void BM_PolyEvalDeg18(benchmark::State& state) {
  const FpCtx& ctx = CtxFor(state.range(0));
  Rng rng(5);
  auto f = pisces::math::Poly::Random(ctx, rng, 18);
  FpElem x = ctx.Random(rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.Eval(ctx, x));
  }
}
BENCHMARK(BM_PolyEvalDeg18)->Arg(256)->Arg(1024);

void BM_Interpolate(benchmark::State& state) {
  const FpCtx& ctx = CtxFor(1024);
  Rng rng(6);
  std::size_t m = state.range(0);
  std::vector<FpElem> xs, ys;
  for (std::size_t i = 0; i < m; ++i) {
    xs.push_back(ctx.FromUint64(i + 1));
    ys.push_back(ctx.Random(rng));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(pisces::math::Poly::Interpolate(ctx, xs, ys));
  }
}
BENCHMARK(BM_Interpolate)->Arg(8)->Arg(19)->Arg(37);

void BM_LagrangeCoeffs(benchmark::State& state) {
  const FpCtx& ctx = CtxFor(1024);
  Rng rng(7);
  std::size_t m = state.range(0);
  std::vector<FpElem> xs;
  for (std::size_t i = 0; i < m; ++i) xs.push_back(ctx.FromUint64(i + 1));
  FpElem x = ctx.FromUint64(1000);
  for (auto _ : state) {
    benchmark::DoNotOptimize(pisces::math::LagrangeCoeffs(ctx, xs, x));
  }
}
BENCHMARK(BM_LagrangeCoeffs)->Arg(19)->Arg(37);

// One VSS batch of one group over nh holders at t = (nh - 2) / 4,
// l = t + 2 (nh = 18 is a paper-best recovery batch: n = 21 less r = 3
// targets, t = 4, l = 6): the dealing vanishes on the first target's alpha.
pisces::pss::VssBatch VssBench(const FpCtx& ctx, std::size_t nh) {
  const std::size_t t = (nh - 2) / 4, l = t + 2;
  const pisces::pss::EvalPoints points(ctx, nh + 1, l);
  std::vector<std::uint32_t> holders(nh);
  for (std::uint32_t i = 0; i < nh; ++i) holders[i] = i;
  return pisces::pss::VssBatch(ctx, points, holders, {{points.alpha_node(nh)}},
                               t + l, 2 * t, /*groups=*/1, /*recovery=*/true);
}

// Args: {nh, g}. Holder side: one group's dealings through M.
void BM_VssTransform(benchmark::State& state) {
  const FpCtx& ctx = CtxFor(state.range(1));
  const auto batch = VssBench(ctx, state.range(0));
  Rng rng(11);
  std::vector<pisces::Bytes> deals(batch.dealers());
  for (auto& row : deals) row = ctx.ToBytes(ctx.Random(rng));
  for (auto _ : state) {
    benchmark::DoNotOptimize(batch.Transform(deals));
  }
}
BENCHMARK(BM_VssTransform)->Args({18, 1024})->Args({8, 256});

// Args: {nh, g}. Dealer side: one group's polynomial at every holder.
void BM_VssDeal(benchmark::State& state) {
  const FpCtx& ctx = CtxFor(state.range(1));
  const auto batch = VssBench(ctx, state.range(0));
  Rng rng(12);
  const std::vector<pisces::math::Poly> us = batch.DrawDealRandomness(rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(batch.DealFrom(us));
  }
}
BENCHMARK(BM_VssDeal)->Args({18, 1024})->Args({8, 256});

// A host-cert signature check on the default group; Arg 1 pins the CA
// key's comb table (as every host and the hypervisor do), Arg 0 does not.
void BM_SchnorrVerify(benchmark::State& state) {
  using namespace pisces::crypto;
  const SchnorrGroup& group = SchnorrGroup::Default();
  Rng rng(13);
  const SchnorrKeyPair ca = SchnorrKeygen(group, rng);
  const auto table = state.range(0) ? group.PinKeyTable(ca.pk) : nullptr;
  const pisces::Bytes msg = rng.RandomBytes(64);
  const SchnorrSignature sig = SchnorrSign(group, ca.sk, msg, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(SchnorrVerify(group, ca.pk, msg, sig));
  }
}
BENCHMARK(BM_SchnorrVerify)->Arg(0)->Arg(1);

}  // namespace

// Custom main instead of BENCHMARK_MAIN(): the shared flags (--threads,
// --trace, ...) are stripped by bench::Parse before google-benchmark sees
// argv, since ReportUnrecognizedArguments treats any leftover as fatal.
int main(int argc, char** argv) {
  pisces::bench::Options opts = pisces::bench::Parse(argc, argv);
  // Trustworthy build-type marker for scripts/bench_micro.sh's release gate.
  // google-benchmark's own "library_build_type" context key reflects the
  // NDEBUG state of the *library* when IT was compiled (the distro package
  // reports "debug" regardless of how this binary is built), so the gate
  // keys on our translation unit instead.
#ifdef NDEBUG
  benchmark::AddCustomContext("pisces_build_type", "release");
#else
  benchmark::AddCustomContext("pisces_build_type", "debug");
#endif
  int rest_argc = static_cast<int>(opts.rest.size());
  benchmark::Initialize(&rest_argc, opts.rest.data());
  if (benchmark::ReportUnrecognizedArguments(rest_argc, opts.rest.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  if (obs::TraceEnabled()) obs::WriteTrace();
  return 0;
}
