#include "net/sync_network.h"

namespace pisces::net {

void SyncNetwork::Register(std::uint32_t id, Transport* transport,
                           MessageHandler* handler) {
  Require(transport != nullptr && handler != nullptr,
          "SyncNetwork::Register: null transport/handler");
  Require(entries_.find(id) == entries_.end(),
          "SyncNetwork::Register: duplicate id");
  entries_[id] = Entry{transport, handler};
  order_.push_back(id);
}

SyncNetwork::PumpResult SyncNetwork::RunToQuiescence(std::uint64_t max_sweeps) {
  PumpResult result;
  while (net_.AnyPending()) {
    Invariant(result.sweeps < max_sweeps,
              "SyncNetwork: exceeded max sweeps (livelock?)");
    ++result.sweeps;
    // Advance the fabric's delivery clock: fault-delayed messages staged for
    // this sweep mature into their mailboxes before endpoints drain.
    net_.AdvanceSweep();
    // One sweep: every endpoint drains the messages that were pending at the
    // start of its turn. Messages sent during the sweep land next sweep (or
    // later this sweep for later-ordered endpoints; either way the sweep
    // count lower-bounds real synchronous rounds).
    // Iterate over a snapshot: handlers may (un)register endpoints while
    // processing (e.g. a host rebooting).
    const std::vector<std::uint32_t> ids = order_;
    for (std::uint32_t id : ids) {
      if (entries_.find(id) == entries_.end()) continue;
      std::size_t pending = net_.PendingFor(id);
      for (std::size_t i = 0; i < pending; ++i) {
        auto it = entries_.find(id);
        if (it == entries_.end()) break;
        auto msg = it->second.transport->Receive();
        if (!msg) break;
        ++result.deliveries;
        it->second.handler->HandleMessage(*msg);
      }
    }
  }
  return result;
}

}  // namespace pisces::net
