// Listener ports for the tests that bind real sockets.
//
// Linux draws outgoing connections' ports from 32768..60999, and the
// TIME_WAIT of such a connection can hold a listener port there and fail the
// bind. So each suite gets its own range of 5000 ports in 10000..29999, and
// inside it each process takes a block of 100, chosen by pid, so concurrent
// test processes rarely share one.
#pragma once

#include <unistd.h>

#include <cstdint>

namespace pisces::test {

enum class PortSuite { kAsyncTcp, kTransportConformance, kWireFleet, kMpDrill };

// The first port of this process's 100-port block for `suite`.
inline std::uint16_t BasePort(PortSuite suite) {
  const auto range = 10000 + 5000 * static_cast<int>(suite);
  return static_cast<std::uint16_t>(range + (::getpid() % 50) * 100);
}

}  // namespace pisces::test
