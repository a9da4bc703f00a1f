// Serving-plane unit tests: shard routing, session multiplexing, admission
// control, the wire gateway, and the batched refresh scheduler
// (docs/serving.md). The open-loop load drill is scenario.cpp's serving
// profile (ctest -L serving); determinism pins are in determinism_test.cpp and the
// batched-vs-sequential refresh differential in differential_test.cpp.
#include <gtest/gtest.h>

#include <array>
#include <map>
#include <vector>

#include "net/serving_frame.h"
#include "net/sim_transport.h"
#include "net/sync_network.h"
#include "obs/registry.h"
#include "pisces/pisces.h"
#include "pisces/serving_client.h"

namespace pisces {
namespace {

using net::ServingOp;
using net::ServingStatus;

// Small-but-real per-shard group: n = 8, t = 1, l = 2, r = 2 over the
// 256-bit field (same shape as the determinism suite).
ServingConfig SmallConfig(std::uint64_t seed, std::uint32_t shards = 2) {
  ServingConfig cfg;
  cfg.shards = shards;
  cfg.params.n = 8;
  cfg.params.t = 1;
  cfg.params.l = 2;
  cfg.params.r = 2;
  cfg.params.field_bits = 256;
  cfg.seed = seed;
  return cfg;
}

// Admission result of an upload, submitted and immediately drained.
ServingStatus UploadNow(ServingPlane& plane, std::uint64_t session,
                        std::uint64_t file_id, const Bytes& data) {
  auto adm = plane.Submit(session, ServingOp::kUpload, file_id, data);
  plane.Drain();
  return adm.status;
}

TEST(Serving, RouterIsPureBalancedAndStable) {
  ShardRouter a(4);
  ShardRouter b(4);
  std::array<std::size_t, 4> buckets{};
  for (std::uint64_t id = 0; id < 4096; ++id) {
    const std::uint32_t shard = a.ShardOf(id);
    EXPECT_EQ(shard, b.ShardOf(id));                  // instance-free
    EXPECT_EQ(shard, ShardRouter::Route(id, 4));      // static core agrees
    EXPECT_EQ(ShardRouter::Route(id, 1), 0u);         // single shard: all
    ASSERT_LT(shard, 4u);
    buckets[shard] += 1;
  }
  // splitmix64 mixing: every shard gets a healthy cut of a sequential id
  // range (raw modulo would stripe, which is fine here, but the mixed map
  // must not be degenerate either).
  for (std::size_t n : buckets) {
    EXPECT_GT(n, 4096u / 4 / 2) << "unbalanced shard";
    EXPECT_LT(n, 4096u / 4 * 2) << "unbalanced shard";
  }
}

TEST(Serving, FramesRoundTripOnBytes) {
  net::ServingRequestFrame req;
  req.session = 0x1122334455667788ull;
  req.request = 42;
  req.shard = 3;
  req.op = ServingOp::kUpload;
  req.file_id = 0xDEADBEEFull;
  req.payload = {1, 2, 3, 4, 5};
  const Bytes wire = req.Serialize();
  EXPECT_EQ(wire.size(), net::kServingRequestHeaderSize + req.payload.size());
  const auto back = net::ServingRequestFrame::Deserialize(wire);
  EXPECT_EQ(back.Serialize(), wire);
  EXPECT_EQ(back.session, req.session);
  EXPECT_EQ(back.request, req.request);
  EXPECT_EQ(back.shard, req.shard);
  EXPECT_EQ(back.op, req.op);
  EXPECT_EQ(back.file_id, req.file_id);
  EXPECT_EQ(back.payload, req.payload);

  net::ServingResponseFrame resp;
  resp.session = 7;
  resp.request = 9;
  resp.status = ServingStatus::kRejected;
  resp.retry_after_ms = 15;
  resp.payload = {0xAA};
  const Bytes rwire = resp.Serialize();
  EXPECT_EQ(rwire.size(),
            net::kServingResponseHeaderSize + resp.payload.size());
  const auto rback = net::ServingResponseFrame::Deserialize(rwire);
  EXPECT_EQ(rback.Serialize(), rwire);
  EXPECT_EQ(rback.status, resp.status);
  EXPECT_EQ(rback.retry_after_ms, resp.retry_after_ms);
}

TEST(Serving, SessionLifecycle) {
  ServingPlane plane(SmallConfig(1));
  const std::uint64_t s1 = plane.OpenSession();
  const std::uint64_t s2 = plane.OpenSession();
  EXPECT_NE(s1, s2);
  EXPECT_TRUE(plane.SessionOpen(s1));
  EXPECT_TRUE(plane.SessionOpen(s2));

  // Ping is an immediate op: accepted, completed without Poll, echoes.
  auto adm = plane.Submit(s1, ServingOp::kPing, 0, Bytes{9, 8, 7});
  EXPECT_EQ(adm.status, ServingStatus::kOk);
  auto done = plane.TakeCompletions();
  ASSERT_EQ(done.size(), 1u);
  EXPECT_EQ(done[0].session, s1);
  EXPECT_EQ(done[0].payload, (Bytes{9, 8, 7}));

  EXPECT_TRUE(plane.CloseSession(s1));
  EXPECT_FALSE(plane.CloseSession(s1));  // tombstoned, not reopenable
  EXPECT_FALSE(plane.SessionOpen(s1));
  EXPECT_EQ(plane.Submit(s1, ServingOp::kPing, 0).status,
            ServingStatus::kBadSession);
  EXPECT_EQ(plane.Submit(999, ServingOp::kPing, 0).status,
            ServingStatus::kBadSession);  // never opened

  EXPECT_EQ(plane.stats().sessions_opened, 2u);
  EXPECT_EQ(plane.stats().sessions_closed, 1u);
}

TEST(Serving, UploadDownloadDeleteAcrossShards) {
  ServingPlane plane(SmallConfig(2));
  const std::uint64_t session = plane.OpenSession();
  Rng rng(31);

  std::map<std::uint64_t, Bytes> reference;
  for (std::uint64_t id = 1; id <= 6; ++id) {
    reference[id] = rng.RandomBytes(600 + 37 * id);
    EXPECT_EQ(UploadNow(plane, session, id, reference[id]),
              ServingStatus::kOk);
  }
  plane.TakeCompletions();

  // The hashed namespace spreads six sequential ids over both shards.
  std::array<std::size_t, 2> owned{};
  for (const auto& [id, shard] : plane.files()) owned[shard] += 1;
  EXPECT_EQ(owned[0] + owned[1], 6u);
  EXPECT_GT(owned[0], 0u);
  EXPECT_GT(owned[1], 0u);

  // Every file downloads bit-exactly and lives ONLY on its routed shard.
  const std::uint32_t n = plane.shard(0).config().params.n;
  for (const auto& [id, data] : reference) {
    auto adm = plane.Submit(session, ServingOp::kDownload, id);
    ASSERT_EQ(adm.status, ServingStatus::kOk);
    plane.Drain();
    auto done = plane.TakeCompletions();
    ASSERT_EQ(done.size(), 1u);
    EXPECT_EQ(done[0].status, ServingStatus::kOk);
    EXPECT_EQ(done[0].payload, data);

    const std::uint32_t home = plane.ShardOf(id);
    for (std::uint32_t s = 0; s < plane.shard_count(); ++s) {
      for (std::uint32_t h = 0; h < n; ++h) {
        EXPECT_EQ(plane.shard(s).host(h).store().Has(id), s == home)
            << "file " << id << " shard " << s << " host " << h;
      }
    }
  }

  // Delete removes the file from the namespace and from every host.
  ASSERT_EQ(plane.Submit(session, ServingOp::kDelete, 3).status,
            ServingStatus::kOk);
  plane.Drain();
  EXPECT_EQ(plane.files().count(3), 0u);
  EXPECT_EQ(plane.Submit(session, ServingOp::kDownload, 3).status,
            ServingStatus::kNotFound);
  for (std::uint32_t h = 0; h < n; ++h) {
    EXPECT_FALSE(plane.shard(plane.ShardOf(3)).host(h).store().Has(3));
  }
}

TEST(Serving, DuplicateAndInvalidRequestsRefusedAtAdmission) {
  ServingPlane plane(SmallConfig(3));
  const std::uint64_t session = plane.OpenSession();
  Rng rng(5);
  const Bytes data = rng.RandomBytes(256);

  EXPECT_EQ(UploadNow(plane, session, 10, data), ServingStatus::kOk);
  // Duplicate of a stored file.
  EXPECT_EQ(plane.Submit(session, ServingOp::kUpload, 10, data).status,
            ServingStatus::kDuplicate);
  // Duplicate of a QUEUED upload: the id is claimed at admission, so two
  // queued uploads of one id can never both be accepted.
  EXPECT_EQ(plane.Submit(session, ServingOp::kUpload, 11, data).status,
            ServingStatus::kOk);
  EXPECT_EQ(plane.Submit(session, ServingOp::kUpload, 11, data).status,
            ServingStatus::kDuplicate);
  plane.Drain();

  EXPECT_EQ(plane.Submit(session, ServingOp::kUpload, 12, Bytes{}).status,
            ServingStatus::kFailed);  // empty upload carries no file
  EXPECT_EQ(plane.Submit(session, ServingOp::kDownload, 404).status,
            ServingStatus::kNotFound);
  EXPECT_EQ(plane.Submit(session, ServingOp::kDelete, 404).status,
            ServingStatus::kNotFound);
  EXPECT_EQ(plane.stats().refused, 5u);  // two dups, empty, two not-found
  EXPECT_EQ(plane.stats().rejected, 0u);  // none of these is backpressure
}

TEST(Serving, AdmissionQueueIsBoundedAndRejectsWithRetryAfter) {
  ServingConfig cfg = SmallConfig(4, /*shards=*/1);
  cfg.admission_capacity = 4;
  cfg.max_inflight = 2;
  cfg.retry_after_ms = 5;
  ServingPlane plane(cfg);
  const std::uint64_t session = plane.OpenSession();
  Rng rng(6);
  const Bytes data = rng.RandomBytes(512);
  ASSERT_EQ(UploadNow(plane, session, 1, data), ServingStatus::kOk);
  plane.TakeCompletions();

  // Offer 12 downloads against a capacity-4 queue without polling: exactly
  // 4 admitted, 8 shed, and the queue never grows past the bound.
  std::size_t accepted = 0, rejected = 0;
  std::uint32_t last_hint = 0;
  for (int k = 0; k < 12; ++k) {
    auto adm = plane.Submit(session, ServingOp::kDownload, 1);
    if (adm.status == ServingStatus::kOk) {
      ++accepted;
    } else {
      ASSERT_EQ(adm.status, ServingStatus::kRejected);
      ++rejected;
      EXPECT_GE(adm.retry_after_ms, cfg.retry_after_ms);
      last_hint = adm.retry_after_ms;
    }
    EXPECT_LE(plane.QueueDepth(0), cfg.admission_capacity);
  }
  EXPECT_EQ(accepted, 4u);
  EXPECT_EQ(rejected, 8u);
  // Full queue: depth/max_inflight = 2 extra service rounds in the hint.
  EXPECT_EQ(last_hint, cfg.retry_after_ms * 3);
  EXPECT_EQ(plane.stats().queue_peak, 4u);
  EXPECT_EQ(plane.stats().rejected, 8u);

  // Backpressure is advisory, not fatal: drain and the retry succeeds.
  EXPECT_EQ(plane.Drain(), 4u);
  auto done = plane.TakeCompletions();
  ASSERT_EQ(done.size(), 4u);
  for (const auto& c : done) {
    EXPECT_EQ(c.status, ServingStatus::kOk);
    EXPECT_EQ(c.payload, data);
  }
  EXPECT_EQ(plane.Submit(session, ServingOp::kDownload, 1).status,
            ServingStatus::kOk);
  plane.Drain();
}

TEST(Serving, SubmitFrameValidatesRouteAndOrdinals) {
  ServingPlane plane(SmallConfig(7));
  Rng rng(8);

  net::ServingRequestFrame f;
  f.session = 77;
  f.request = 1;
  f.op = ServingOp::kUpload;
  f.file_id = 5;
  f.payload = rng.RandomBytes(128);
  f.shard = 1 - plane.ShardOf(5);  // deliberately wrong (2 shards)
  EXPECT_EQ(plane.SubmitFrame(f).status, ServingStatus::kBadRoute);
  EXPECT_FALSE(plane.SessionOpen(77));  // a bad route never opens a session

  f.shard = plane.ShardOf(5);
  EXPECT_EQ(plane.SubmitFrame(f).status, ServingStatus::kOk);  // implicit open
  EXPECT_TRUE(plane.SessionOpen(77));
  plane.Drain();

  // Replayed and reordered ordinals are refused: strictly increasing.
  EXPECT_EQ(plane.SubmitFrame(f).status, ServingStatus::kBadSession);
  f.request = 0;
  f.op = ServingOp::kPing;
  EXPECT_EQ(plane.SubmitFrame(f).status, ServingStatus::kBadSession);

  // Gaps are fine (the client may have burned ordinals on rejects).
  f.request = 9;
  EXPECT_EQ(plane.SubmitFrame(f).status, ServingStatus::kOk);

  f.request = 10;
  f.op = ServingOp::kCloseSession;
  EXPECT_EQ(plane.SubmitFrame(f).status, ServingStatus::kOk);
  f.request = 11;
  f.op = ServingOp::kPing;
  EXPECT_EQ(plane.SubmitFrame(f).status, ServingStatus::kBadSession);
}

// Two wire sessions multiplexed over ONE SimNet endpoint through a
// ServingGateway: the persistent-connection serving path in miniature.
TEST(Serving, GatewayMultiplexesWireSessionsOverOneEndpoint) {
  ServingPlane plane(SmallConfig(9));

  net::SimNet simnet;
  net::SimEndpoint* gw_ep = simnet.AddEndpoint(net::kGatewayId);
  const std::uint32_t client_id = net::kGatewayId + 1;
  net::SimEndpoint* cl_ep = simnet.AddEndpoint(client_id);

  ServingGateway gateway(plane, *gw_ep);

  struct Capture : net::MessageHandler {
    std::vector<net::ServingResponseFrame> responses;
    void HandleMessage(const net::Message& msg) override {
      ASSERT_EQ(msg.type, net::MsgType::kServingResponse);
      responses.push_back(net::ServingResponseFrame::Deserialize(msg.payload));
    }
  } capture;

  net::SyncNetwork sync(simnet);
  sync.Register(net::kGatewayId, gw_ep, &gateway);
  sync.Register(client_id, cl_ep, &capture);

  Rng rng(10);
  const Bytes file_a = rng.RandomBytes(700);
  const Bytes file_b = rng.RandomBytes(300);

  auto send = [&](std::uint64_t session, std::uint64_t request, ServingOp op,
                  std::uint64_t file_id, Bytes payload = {}) {
    net::ServingRequestFrame f;
    f.session = session;
    f.request = request;
    f.shard = plane.ShardOf(file_id);
    f.op = op;
    f.file_id = file_id;
    f.payload = std::move(payload);
    net::Message m;
    m.from = client_id;
    m.to = net::kGatewayId;
    m.type = net::MsgType::kServingRequest;
    m.file_id = file_id;
    m.payload = f.Serialize();
    cl_ep->Send(std::move(m));
  };

  // Interleave two logical sessions (both client-named, distinct files).
  send(1, 1, ServingOp::kUpload, 100, file_a);
  send(2, 1, ServingOp::kUpload, 200, file_b);
  send(1, 2, ServingOp::kPing, 0);
  sync.RunToQuiescence();  // deliver requests into the gateway
  gateway.Pump();          // execute + flush completions
  sync.RunToQuiescence();  // deliver responses back

  ASSERT_EQ(capture.responses.size(), 3u);
  for (const auto& r : capture.responses) {
    EXPECT_EQ(r.status, ServingStatus::kOk) << "session " << r.session;
  }
  capture.responses.clear();

  // Downloads come back with the right bytes to the right wire session.
  send(1, 3, ServingOp::kDownload, 100);
  send(2, 2, ServingOp::kDownload, 200);
  sync.RunToQuiescence();
  gateway.Pump();
  sync.RunToQuiescence();
  ASSERT_EQ(capture.responses.size(), 2u);
  for (const auto& r : capture.responses) {
    EXPECT_EQ(r.status, ServingStatus::kOk);
    EXPECT_EQ(r.payload, r.session == 1 ? file_a : file_b);
  }
  capture.responses.clear();

  // A bad routing header is answered synchronously, before any Pump.
  {
    net::ServingRequestFrame f;
    f.session = 1;
    f.request = 4;
    f.file_id = 100;
    f.shard = 1 - plane.ShardOf(100);
    f.op = ServingOp::kDownload;
    net::Message m;
    m.from = client_id;
    m.to = net::kGatewayId;
    m.type = net::MsgType::kServingRequest;
    m.payload = f.Serialize();
    cl_ep->Send(std::move(m));
  }
  sync.RunToQuiescence();
  ASSERT_EQ(capture.responses.size(), 1u);
  EXPECT_EQ(capture.responses[0].status, ServingStatus::kBadRoute);
  capture.responses.clear();

  // Unparseable frames are counted and dropped, never answered or fatal.
  net::Message junk;
  junk.from = client_id;
  junk.to = net::kGatewayId;
  junk.type = net::MsgType::kServingRequest;
  junk.payload = Bytes{1, 2, 3};
  cl_ep->Send(std::move(junk));
  sync.RunToQuiescence();
  EXPECT_EQ(gateway.bad_frames(), 1u);
  EXPECT_TRUE(capture.responses.empty());

  // The plane namespaced the two wire sessions separately.
  EXPECT_EQ(plane.stats().sessions_opened, 2u);
}

TEST(Serving, BatchRefreshPreservesEveryFile) {
  ServingPlane plane(SmallConfig(11, /*shards=*/1));
  const std::uint64_t session = plane.OpenSession();
  Rng rng(12);

  std::map<std::uint64_t, Bytes> reference;
  for (std::uint64_t id = 1; id <= 5; ++id) {
    reference[id] = rng.RandomBytes(400);
    ASSERT_EQ(UploadNow(plane, session, id, reference[id]),
              ServingStatus::kOk);
  }
  plane.TakeCompletions();

  EXPECT_TRUE(plane.BatchRefresh());
  EXPECT_EQ(plane.stats().refresh_files, 5u);

  for (const auto& [id, data] : reference) {
    ASSERT_EQ(plane.Submit(session, ServingOp::kDownload, id).status,
              ServingStatus::kOk);
    plane.Drain();
    auto done = plane.TakeCompletions();
    ASSERT_EQ(done.size(), 1u);
    EXPECT_EQ(done[0].payload, data) << "file " << id;
  }
}

TEST(Serving, ProactiveWindowKeepsNamespaceAlive) {
  ServingPlane plane(SmallConfig(13));
  const std::uint64_t session = plane.OpenSession();
  Rng rng(14);
  const Bytes a = rng.RandomBytes(900);
  const Bytes b = rng.RandomBytes(450);
  ASSERT_EQ(UploadNow(plane, session, 21, a), ServingStatus::kOk);
  ASSERT_EQ(UploadNow(plane, session, 22, b), ServingStatus::kOk);
  plane.TakeCompletions();

  // Full proactive window on every shard: batched refresh + secure reboots.
  EXPECT_TRUE(plane.RunProactiveWindow());

  for (const auto& [id, want] : std::map<std::uint64_t, Bytes>{{21, a},
                                                               {22, b}}) {
    ASSERT_EQ(plane.Submit(session, ServingOp::kDownload, id).status,
              ServingStatus::kOk);
    plane.Drain();
    auto done = plane.TakeCompletions();
    ASSERT_EQ(done.size(), 1u);
    EXPECT_EQ(done[0].payload, want);
  }
}

// --- versioned routing + live resharding (docs/resharding.md) ---

// Grow target for the SmallConfig shape: same packing (l = 2) and rate
// (r = 2), four more slots, and the extra corruption tolerance the packed
// constraints allow at n = 12 (3t + l < n and r + l < n - 3t).
pss::Params GrownParams() {
  pss::Params p;
  p.n = 12;
  p.t = 2;
  p.l = 2;
  p.r = 2;
  p.field_bits = 256;
  return p;
}

TEST(ReshareServing, StaleEpochRefusedWithoutConsumingTheOrdinal) {
  ServingPlane plane(SmallConfig(41));
  EXPECT_EQ(plane.route_epoch(), 1u);

  net::ServingRequestFrame f;
  f.session = 77;
  f.request = 1;
  f.op = ServingOp::kPing;
  f.file_id = 0;
  f.shard = plane.ShardOf(0);

  // The current epoch and the unversioned sentinel (0) are both accepted.
  f.epoch = plane.route_epoch();
  EXPECT_EQ(plane.SubmitFrame(f).status, ServingStatus::kOk);

  // A future epoch (client ahead of the plane: impossible under monotone
  // maps, so it can only be corruption) is refused just like a stale one.
  f.request = 2;
  f.epoch = 999;
  EXPECT_EQ(plane.SubmitFrame(f).status, ServingStatus::kBadRoute);
  EXPECT_EQ(plane.stats().stale_epoch, 1u);

  // The refused ordinal was NOT consumed: the same request re-sent under an
  // acceptable stamp is a re-route, not a replay.
  f.epoch = 0;
  EXPECT_EQ(plane.SubmitFrame(f).status, ServingStatus::kOk);

  // After a reshard the old epoch goes stale; the new one is accepted.
  ASSERT_TRUE(plane.Reshard(0, GrownParams()));
  EXPECT_EQ(plane.route_epoch(), 2u);
  EXPECT_EQ(plane.stats().reshards, 1u);
  f.request = 3;
  f.epoch = 1;
  EXPECT_EQ(plane.SubmitFrame(f).status, ServingStatus::kBadRoute);
  EXPECT_EQ(plane.stats().stale_epoch, 2u);
  f.epoch = 2;
  EXPECT_EQ(plane.SubmitFrame(f).status, ServingStatus::kOk);
}

TEST(ReshareServing, ReshardMigratesOneShardWhileTheOtherKeepsItsQueue) {
  ServingPlane plane(SmallConfig(42));
  const std::uint64_t session = plane.OpenSession();
  Rng rng(43);

  std::map<std::uint64_t, Bytes> reference;
  for (std::uint64_t id = 1; id <= 6; ++id) {
    reference[id] = rng.RandomBytes(500 + 13 * id);
    ASSERT_EQ(UploadNow(plane, session, id, reference[id]),
              ServingStatus::kOk);
  }
  plane.TakeCompletions();
  // The hashed namespace must populate both shards for this to test
  // anything; six sequential ids always do (RouterIsPureBalancedAndStable).
  std::array<std::size_t, 2> owned{};
  for (const auto& [id, shard] : plane.files()) owned[shard] += 1;
  ASSERT_GT(owned[0], 0u);
  ASSERT_GT(owned[1], 0u);

  // Queue (without draining) a download for every file homed on shard 1,
  // then migrate shard 0 under it.
  std::size_t queued = 0;
  for (const auto& [id, data] : reference) {
    if (plane.ShardOf(id) != 1) continue;
    ASSERT_EQ(plane.Submit(session, ServingOp::kDownload, id).status,
              ServingStatus::kOk);
    ++queued;
  }
  ASSERT_EQ(plane.QueueDepth(1), queued);

  ASSERT_TRUE(plane.Reshard(0, GrownParams()));
  EXPECT_EQ(plane.route_epoch(), 2u);
  EXPECT_EQ(plane.shard_params(0).n, 12u);
  EXPECT_EQ(plane.shard_params(0).t, 2u);
  EXPECT_EQ(plane.shard_params(1).n, 8u);   // untouched shard keeps shape...
  EXPECT_EQ(plane.QueueDepth(1), queued);   // ...and its queued work
  EXPECT_EQ(plane.QueueDepth(0), 0u);       // migrating shard was drained

  // The routing-map snapshot mirrors the per-shard shapes and the epoch.
  const net::RoutingMap map = plane.routing_map();
  EXPECT_EQ(map.epoch, 2u);
  ASSERT_EQ(map.shards.size(), 2u);
  EXPECT_EQ(map.shards[0].n, 12u);
  EXPECT_EQ(map.shards[0].t, 2u);
  EXPECT_EQ(map.shards[1].n, 8u);
  EXPECT_EQ(map.shards[0].migrating, 0u);  // migrations are synchronous

  // The queued downloads execute against the untouched shard and every file
  // on BOTH shards still downloads bit-exactly.
  plane.Drain();
  auto done = plane.TakeCompletions();
  ASSERT_EQ(done.size(), queued);
  for (const auto& c : done) {
    EXPECT_EQ(c.status, ServingStatus::kOk);
    EXPECT_EQ(c.payload, reference.at(c.file_id));
  }
  for (const auto& [id, data] : reference) {
    ASSERT_EQ(plane.Submit(session, ServingOp::kDownload, id).status,
              ServingStatus::kOk);
    plane.Drain();
    done = plane.TakeCompletions();
    ASSERT_EQ(done.size(), 1u);
    EXPECT_EQ(done[0].payload, data) << "file " << id;
  }

  // A failed migration (wrong field) leaves the epoch and shapes untouched.
  pss::Params bad = GrownParams();
  bad.field_bits = 512;
  EXPECT_FALSE(plane.Reshard(1, bad));
  EXPECT_EQ(plane.route_epoch(), 2u);
  EXPECT_EQ(plane.shard_params(1).n, 8u);
}

// End-to-end wire re-route: a ServingWireClient with no routing map sends a
// request that lands on the wrong shard, the gateway refuses it with
// kBadRoute carrying the current map, the client adopts the map and re-sends
// the SAME ordinal, and the request completes. Then a live reshard bumps the
// epoch and the client's next request re-routes the same way.
TEST(ReshareServing, GatewayPushesMapAndWireClientReroutes) {
  ServingPlane plane(SmallConfig(44));

  net::SimNet simnet;
  net::SimEndpoint* gw_ep = simnet.AddEndpoint(net::kGatewayId);
  WireClientConfig ccfg;
  net::SimEndpoint* cl_ep = simnet.AddEndpoint(ccfg.id);

  ServingGateway gateway(plane, *gw_ep);
  ServingWireClient client(ccfg, *cl_ep);

  net::SyncNetwork sync(simnet);
  sync.Register(net::kGatewayId, gw_ep, &gateway);
  sync.Register(ccfg.id, cl_ep, &client);

  // A file homed on shard 1: with no map the client stamps shard 0, which
  // the plane must refuse.
  std::uint64_t file = 0;
  while (plane.ShardOf(file) != 1) ++file;
  Rng rng(45);
  const Bytes data = rng.RandomBytes(640);

  const std::uint64_t session = client.OpenSession();
  client.Send(session, ServingOp::kUpload, file, data);
  // One quiescence round covers the whole refusal loop: request -> kBadRoute
  // + map (synchronous at the gateway) -> adopt -> re-send -> accepted.
  sync.RunToQuiescence();
  gateway.Pump();
  sync.RunToQuiescence();

  EXPECT_EQ(client.reroutes(), 1u);
  EXPECT_EQ(client.reroutes_exhausted(), 0u);
  EXPECT_EQ(client.map().epoch, 1u);
  auto responses = client.TakeResponses();
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_EQ(responses[0].status, ServingStatus::kOk);
  EXPECT_EQ(plane.stats().stale_epoch, 0u);  // shard header, not epoch

  // Reshard shard 1 under the live client: its adopted map (epoch 1) goes
  // stale, the next request is refused once, re-stamped with epoch 2, and
  // completes with the bit-exact payload.
  ASSERT_TRUE(plane.Reshard(1, GrownParams()));
  client.Send(session, ServingOp::kDownload, file);
  sync.RunToQuiescence();
  gateway.Pump();
  sync.RunToQuiescence();

  EXPECT_EQ(client.reroutes(), 2u);
  EXPECT_EQ(client.map().epoch, 2u);
  EXPECT_EQ(plane.stats().stale_epoch, 1u);
  responses = client.TakeResponses();
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_EQ(responses[0].status, ServingStatus::kOk);
  EXPECT_EQ(responses[0].payload, data);
  EXPECT_EQ(client.pending(), 0u);

  const obs::Snapshot snap = obs::TakeSnapshot();
  EXPECT_GE(obs::Value(snap, "serving.reroutes"), 2u);
}

TEST(ReshareServing, RerouteBudgetZeroMakesBadRouteTerminal) {
  ServingPlane plane(SmallConfig(46));

  net::SimNet simnet;
  net::SimEndpoint* gw_ep = simnet.AddEndpoint(net::kGatewayId);
  WireClientConfig ccfg;
  ccfg.reroute_budget = 0;
  net::SimEndpoint* cl_ep = simnet.AddEndpoint(ccfg.id);

  ServingGateway gateway(plane, *gw_ep);
  ServingWireClient client(ccfg, *cl_ep);

  net::SyncNetwork sync(simnet);
  sync.Register(net::kGatewayId, gw_ep, &gateway);
  sync.Register(ccfg.id, cl_ep, &client);

  // Routed op homed on shard 1: with no adopted map the client stamps
  // shard 0, which the plane refuses.
  std::uint64_t file = 0;
  while (plane.ShardOf(file) != 1) ++file;
  Rng rng(47);
  const Bytes data = rng.RandomBytes(320);

  const std::uint64_t session = client.OpenSession();
  client.Send(session, ServingOp::kUpload, file, data);
  sync.RunToQuiescence();

  // Budget 0: the refusal is delivered to the caller instead of re-sent.
  auto responses = client.TakeResponses();
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_EQ(responses[0].status, ServingStatus::kBadRoute);
  EXPECT_EQ(client.reroutes(), 0u);
  EXPECT_EQ(client.reroutes_exhausted(), 1u);

  // The pushed map was still adopted, so the NEXT request routes correctly.
  EXPECT_EQ(client.map().epoch, 1u);
  client.Send(session, ServingOp::kUpload, file, data);
  sync.RunToQuiescence();
  gateway.Pump();
  sync.RunToQuiescence();
  responses = client.TakeResponses();
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_EQ(responses[0].status, ServingStatus::kOk);
}

}  // namespace
}  // namespace pisces
