#!/usr/bin/env bash
# ThreadSanitizer check: configures a dedicated build tree with PISCES_TSAN=ON
# and runs the suites that exercise the task pool hardest -- the pool/PSS unit
# tests, the threaded determinism tests, and the chaos drill -- with a
# multi-thread global pool so races in parallel bodies actually interleave.
# The event-loop and async-TCP suites ride along: the reactor thread vs
# application thread locking discipline (net/async_tcp.h) is exactly the kind
# of contract TSan can falsify.
# The crypto suites cover the process-wide fixed-base table map, which the
# tcp_cluster HostProcess threads reach concurrently (every keyring pins its
# CA key's table; every cert check looks it up).
# DomainCacheKey.* includes pool workers racing to fill one cold Lagrange
# denominator entry (math::DomainCache) at pool sizes 1, 2 and 8.
# ClientUpload.* and ClientDownload.* run the client's upload and download
# at pool size 3: ShareBlocks and ReconstructRows write from pool workers
# into per-block slices of shared per-host (or per-file) byte buffers.
# FlagChainKernelTest.* and SplitFactorDealTest.* run the portable kernels
# here: TSan (like ASan) does not see memory accesses inside inline
# assembly, so sanitizer builds compile only the portable field and VSS
# kernels (PISCES_FIELD_ASM in field/fp_kernels.h).
# StoreTest.*, HostStore.* and HostDirect.* cover the share store, whose
# refresh apply writes in place into the buffer a Find pointer refers to.
# The FieldInv suites stay out: FpCtx::Inv touches no shared state and both
# tests are single-threaded, yet their 2048- and 1024-bit cases took about
# half of this lane under TSan. They run in tier-1 and in the ASan/UBSan
# lane (scripts/check_sanitize.sh).
# Any report is fatal (-fno-sanitize-recover=all + halt_on_error).
#
# The determinism contract (docs/parallelism.md) says parallel bodies write
# only index-owned state; TSan is the tool that proves every call site keeps
# that promise instead of merely asserting it.
#
# Usage: scripts/check_tsan.sh [build-dir]   (default: build-tsan)
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build-tsan}"

cmake -B "$BUILD_DIR" -S . \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DPISCES_TSAN=ON
cmake --build "$BUILD_DIR" -j "$(nproc)" --target pisces_tests scenario \
  tcp_cluster

export TSAN_OPTIONS="halt_on_error=1:second_deadlock_stack=1"
# Run the pool-heavy suites with a wide pool (PISCES_THREADS is honored by the
# benches; the tests size the pool themselves via SetGlobalPoolThreads /
# params.b, so the filters below are what matters).
"$BUILD_DIR/tests/pisces_tests" --gtest_filter='Determinism.*:*VssBatchTest*:*PssGridTest*:RobustShamir.*:*FieldPropertyTest*:*FieldKernelTest*:FieldKernelFallback.*:DifferentialTest.*:BatchInv.*:Chaos.*:Cluster.*:LongHorizon.*:Registry.*:Trace.*:Byzantine*:Fuzz.*:EventLoop.*:AsyncTcp.*:TransportConformance.*:Serving.*:ServingDifferential.*:PlainMulGuard.*:CommStripe.*:CommReadSpec.*:CommDifferential.*:CommBytes.*:CommRecovery.*:CommServing.*:CommStatus.*:Reshare*:Elastic*:PackedShamirGenerator.*:DomainCacheKey.*:WireFleet.*:Crypto*:SchnorrTest.*:ClientUpload.*:ClientDownload.*:*FlagChainKernelTest*:*SplitFactorDealTest*:StoreTest.*:HostStore.*:HostDirect.*'

# The scenario engine's open-loop serving profile: many protocol sessions
# pumped through the task pool per tick while admission queues churn -- the
# serving lane's pool-contention shape, distinct from the unit suites above.
"$BUILD_DIR/tests/scenario" --profile serving

# Its combined resharding profile: live migrations (Reshard drains + reshapes
# one shard on the pool while the others keep serving) interleaved with the
# open-loop generator, churn, and a batched refresh -- the shape-change
# locking discipline the Reshare*/Elastic* unit filters above can't reach
# at drill concurrency.
"$BUILD_DIR/tests/scenario" --profile reshare

# The deployment path in one process: HostProcess threads serving over
# AsyncTcpEndpoints, the hypervisor's WireFleet waits and the wire Cluster's
# client pump -- the one lane where host threads, reactor threads and the
# driving thread all share memory.
"$BUILD_DIR/examples/tcp_cluster"
