// Per-message-type wire-byte counters in the obs registry.
//
// net.bytes_sent / net.bytes_received used to exist only as span instant
// events (obs::NetEvent), so reconciling bytes-on-the-wire required tracing
// to be enabled. These counters make wire bytes a first-class, always-on
// metric: every transport (SimNet, AsyncTcpEndpoint) accounts
// each message under both the aggregate counter and a per-MsgType counter
// ("net.bytes_sent.ShareResponse", ...), so BENCH_comm.json and the CSV can
// attribute traffic to protocol phases from a plain snapshot delta.
//
// Counter references are resolved once per (direction, type) into a static
// table -- a delivery costs two relaxed atomic adds, nothing else.
#pragma once

#include "net/message.h"
#include "obs/registry.h"

namespace pisces::net {

// Aggregate counters across all message types.
obs::Counter& BytesSentTotal();
obs::Counter& BytesReceivedTotal();

// Per-type counters, e.g. net.bytes_sent.MaskedShare. `type` must be a
// valid MsgType (callers hold a parsed Message, so this is structural).
obs::Counter& BytesSentCounter(MsgType type);
obs::Counter& BytesReceivedCounter(MsgType type);

// One send/receive accounting step: aggregate + per-type bump of `wire`
// bytes. The single entry point every transport calls.
void CountSend(MsgType type, std::size_t wire);
void CountReceive(MsgType type, std::size_t wire);

}  // namespace pisces::net
