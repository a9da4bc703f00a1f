// One status vocabulary for every reply surface in the system.
//
// Before this header existed the serving frame, the serving plane's client
// API, and the multiprocess RPC helpers each spoke their own dialect: a
// wire status byte, ad-hoc bools, and log strings. StatusCode unifies them.
//
// Wire compatibility contract: the first seven values are the serving-frame
// status byte and their numeric values are FROZEN -- ServingStatus in
// net/serving_frame.h is an alias of this enum and golden vectors plus the
// structure-aware fuzzer pin the byte meanings. Codes after kFailed are
// local-only (RPC deadline expiries, transport faults); they never travel as
// a serving status byte, and ServingResponseFrame::Serialize refuses them.
#pragma once

#include <cstdint>

namespace pisces {

enum class StatusCode : std::uint8_t {
  // --- serving-frame wire values (frozen; see net/serving_frame.h) ---
  kOk = 0,
  kRejected,    // admission control: queue full; see retry_after_ms
  kDuplicate,   // upload of a file id that already exists
  kNotFound,    // download/delete of an unknown file id
  kBadRoute,    // shard header disagrees with the deterministic router
  kBadSession,  // request on a closed (or never-opened) session
  kFailed,      // backend protocol failure (quorum loss, integrity reject)

  // --- local-only codes (never serialized as a serving status byte) ---
  kTimeout,      // bounded-delay RPC deadline expired
  kUnavailable,  // peer offline / no route to host
  kBadFrame,     // payload failed structural validation
};

// Last code that may appear as a serving-frame status byte.
inline constexpr std::uint8_t kMaxWireStatus =
    static_cast<std::uint8_t>(StatusCode::kFailed);

// Stable human-readable name for traces and logs ("Ok", "Timeout", ...).
const char* StatusName(StatusCode code);

}  // namespace pisces
