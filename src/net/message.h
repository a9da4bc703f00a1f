// Wire message format shared by the simulated and TCP transports.
//
// Every protocol step in PiSCES is a point-to-point message between two
// endpoints (hosts, the client, or the hypervisor). Messages carry a type,
// correlation ids (file, epoch, batch, row) so concurrent protocol sessions
// can be demultiplexed, and an opaque payload (serialized field elements,
// certificates, or control structures).
#pragma once

#include <cstdint>
#include <string>

#include "common/bytes.h"

namespace pisces::net {

// Reserved endpoint ids; hosts are 0..n-1.
inline constexpr std::uint32_t kClientId = 0xFFFF0000;
inline constexpr std::uint32_t kHypervisorId = 0xFFFF0001;
// Serving-plane gateway (docs/serving.md); serving clients use ids above it.
inline constexpr std::uint32_t kGatewayId = 0xFFFF0002;

enum class MsgType : std::uint8_t {
  // Client / hypervisor -> host control plane.
  kSetShares = 0,       // initial share upload (paper Fig 5 event "Set")
  kReconstructRequest,  // client asks for shares of a file
  kShareResponse,       // host -> client share material
  kStartRefresh,        // hypervisor starts a rerandomization phase
  kStartRecovery,       // hypervisor starts recovery toward rebooted hosts
  kHostCert,            // hypervisor -> every endpoint: a reboot batch's
                        //   signed crypto::CertSnapshot (acked by a hostd)
  kDeleteFile,          // client asks hosts to drop a file

  // PSS data plane.
  kDeal,         // dealer -> holder: shares of dealt polynomials
  kCheckShare,   // holder -> verifier: share of a check row
  kVerdict,      // verifier -> all: accept/reject of its check rows
  kMaskedShare,  // surviving host -> rebooted host: f(alpha_i) + q(alpha_i)

  // Session completion notices (host -> hypervisor/driver).
  kPhaseDone,

  // Process-per-host control plane (docs/deployment.md). In-process fleets
  // never emit these: the hypervisor's SimFleet drives its hosts by direct
  // privileged calls. Over a WireFleet (pisces/wire_fleet.h) the same
  // lifecycle operations and host inspections travel the wire between the
  // hypervisor and each pisces_hostd process; acks echo the request's row.
  kBootHost,       // hypervisor -> hostd: boot material (sk, directory,
                   //   snapshot)
  kHaltHost,       // hypervisor -> hostd: secure disassociation (wipe state)
  kStatusRequest,  // hypervisor -> hostd: end-of-round survey; epoch = the
                   //   round's seq, whose archived dealings are handed over
  kStatusReport,   // hostd -> hypervisor: HostStatus (pisces/host_process.h);
                   //   also every ack and the "needs boot" announcement
  kAbortStuck,     // hypervisor -> hostd: bounded-delay timeout fired; abort
                   //   wedged sessions so the next attempt starts clean

  // Serving plane (docs/serving.md): multiplexed request framing. The
  // payload is a net::ServingRequestFrame / ServingResponseFrame carrying
  // the session id, per-session request ordinal, and shard routing header,
  // so many logical client sessions share one persistent connection to a
  // serving gateway instead of one-shot Client objects.
  kServingRequest,   // client -> gateway: one serving operation
  kServingResponse,  // gateway -> client: completion or admission reject
};

// Last valid wire value of MsgType; Deserialize rejects anything above.
inline constexpr std::uint8_t kMaxMsgType =
    static_cast<std::uint8_t>(MsgType::kServingResponse);

const char* MsgTypeName(MsgType t);

// Fixed wire-header size: from, to, type, file_id, epoch, batch, row, and
// the payload length prefix.
inline constexpr std::size_t kWireHeaderSize = 4 + 4 + 1 + 8 + 4 + 4 + 4 + 4;

// Hard cap on the payload size accepted off the wire. A length-field lie in
// a frame must fail parsing up front instead of driving allocation; the cap
// is generous against every real payload (the largest dealings are a few MiB
// at paper-scale parameters).
inline constexpr std::size_t kMaxPayload = 64u << 20;

// Hard cap on a framed message as it appears on a TCP stream: the 4-byte
// length prefix announces at most header + max payload. Both TCP transports
// validate the prefix against this BEFORE allocating the frame buffer, so a
// lying length field can never drive a giant allocation; a zero length is a
// transport-level heartbeat, not a message.
inline constexpr std::size_t kMaxFrameBytes = kWireHeaderSize + kMaxPayload;

// Whether a received length prefix is acceptable to read and buffer.
inline constexpr bool FrameLengthAcceptable(std::uint64_t len) {
  return len <= kMaxFrameBytes;
}

struct Message {
  std::uint32_t from = 0;
  std::uint32_t to = 0;
  MsgType type = MsgType::kSetShares;
  std::uint64_t file_id = 0;
  std::uint32_t epoch = 0;  // proactive round number
  std::uint32_t batch = 0;  // unused by the current flows (0)
  std::uint32_t row = 0;    // check-row / target-host / misc discriminator
  Bytes payload;

  Bytes Serialize() const;
  static Message Deserialize(std::span<const std::uint8_t> data);

  // Bytes this message occupies on the wire (header + payload); used by the
  // communication-overhead accounting in the experiments.
  std::size_t WireSize() const;

  std::string Describe() const;
};

}  // namespace pisces::net
