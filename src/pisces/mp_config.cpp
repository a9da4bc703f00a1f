#include "pisces/mp_config.h"

#include <fstream>
#include <sstream>

#include "common/error.h"

namespace pisces {

namespace {

std::string Trim(const std::string& s) {
  const auto b = s.find_first_not_of(" \t\r");
  if (b == std::string::npos) return "";
  const auto e = s.find_last_not_of(" \t\r");
  return s.substr(b, e - b + 1);
}

std::uint64_t ParseU64(const std::string& key, const std::string& value) {
  try {
    std::size_t used = 0;
    const std::uint64_t v = std::stoull(value, &used);
    Require(used == value.size(), "MpConfig: trailing junk");
    return v;
  } catch (const Error&) {
    throw;
  } catch (...) {
    throw InvalidArgument("MpConfig: bad numeric value for '" + key + "'");
  }
}

}  // namespace

MpConfig MpConfig::Parse(const std::string& text) {
  MpConfig cfg;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    const auto hash = line.find('#');
    if (hash != std::string::npos) line = line.substr(0, hash);
    line = Trim(line);
    if (line.empty()) continue;
    const auto eq = line.find('=');
    Require(eq != std::string::npos, "MpConfig: expected 'key = value': " + line);
    const std::string key = Trim(line.substr(0, eq));
    const std::string value = Trim(line.substr(eq + 1));
    Require(!value.empty(), "MpConfig: empty value for '" + key + "'");

    if (key == "n") {
      cfg.n = static_cast<std::uint32_t>(ParseU64(key, value));
    } else if (key == "t") {
      cfg.t = static_cast<std::uint32_t>(ParseU64(key, value));
    } else if (key == "l") {
      cfg.l = static_cast<std::uint32_t>(ParseU64(key, value));
    } else if (key == "r") {
      cfg.r = static_cast<std::uint32_t>(ParseU64(key, value));
    } else if (key == "field_bits") {
      cfg.field_bits = static_cast<std::uint32_t>(ParseU64(key, value));
    } else if (key == "base_port") {
      const std::uint64_t p = ParseU64(key, value);
      Require(p > 0 && p < 65536, "MpConfig: base_port out of range");
      cfg.base_port = static_cast<std::uint16_t>(p);
    } else if (key == "seed") {
      cfg.seed = ParseU64(key, value);
    } else if (key == "encrypt") {
      cfg.encrypt = ParseU64(key, value) != 0;
    } else if (key == "heartbeat_ms") {
      cfg.heartbeat_ms = ParseU64(key, value);
    } else if (key == "deadline_ms") {
      cfg.deadline_ms = ParseU64(key, value);
    } else if (key == "restart_backoff_ms") {
      cfg.restart_backoff_ms = ParseU64(key, value);
    } else if (key == "run_dir") {
      cfg.run_dir = value;
    } else if (key == "hostd") {
      cfg.hostd = value;
    } else {
      throw InvalidArgument("MpConfig: unknown key '" + key + "'");
    }
  }
  cfg.Validate();
  return cfg;
}

MpConfig MpConfig::Load(const std::string& path) {
  std::ifstream in(path);
  Require(in.good(), "MpConfig: cannot open " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return Parse(buf.str());
}

std::string MpConfig::Format() const {
  std::ostringstream out;
  out << "# PiSCES multiprocess deployment (docs/deployment.md)\n"
      << "n = " << n << "\n"
      << "t = " << t << "\n"
      << "l = " << l << "\n"
      << "r = " << r << "\n"
      << "field_bits = " << field_bits << "\n"
      << "base_port = " << base_port << "\n"
      << "seed = " << seed << "\n"
      << "encrypt = " << (encrypt ? 1 : 0) << "\n"
      << "heartbeat_ms = " << heartbeat_ms << "\n"
      << "deadline_ms = " << deadline_ms << "\n"
      << "restart_backoff_ms = " << restart_backoff_ms << "\n"
      << "run_dir = " << run_dir << "\n";
  if (!hostd.empty()) out << "hostd = " << hostd << "\n";
  return out.str();
}

void MpConfig::Save(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  Require(out.good(), "MpConfig: cannot write " + path);
  out << Format();
  Require(out.good(), "MpConfig: write failed for " + path);
}

void MpConfig::Validate() const {
  ToParams().Validate();
  Require(heartbeat_ms > 0, "MpConfig: heartbeat_ms must be positive");
  Require(deadline_ms > 0, "MpConfig: deadline_ms must be positive");
  Require(!run_dir.empty(), "MpConfig: run_dir must be set");
  // The port map must fit: hosts, hypervisor, client.
  Require(static_cast<std::uint32_t>(base_port) + n + 1 < 65536,
          "MpConfig: port map exceeds the port space");
}

pss::Params MpConfig::ToParams() const {
  pss::Params p;
  p.n = n;
  p.t = t;
  p.l = l;
  p.r = r;
  p.field_bits = field_bits;
  return p;
}

std::uint16_t MpConfig::HostPort(std::uint32_t host_id) const {
  Require(host_id < n, "MpConfig: host id out of range");
  return static_cast<std::uint16_t>(base_port + host_id);
}

std::uint16_t MpConfig::HypervisorPort() const {
  return static_cast<std::uint16_t>(base_port + n);
}

std::uint16_t MpConfig::ClientPort() const {
  return static_cast<std::uint16_t>(base_port + n + 1);
}

std::unique_ptr<net::AsyncTcpEndpoint> MpConfig::MakeEndpoint(
    std::uint32_t id) const {
  net::AsyncTcpOptions o;
  o.id = id;
  o.listen_port = id == net::kHypervisorId ? HypervisorPort()
                  : id == net::kClientId   ? ClientPort()
                                           : HostPort(id);
  o.seed = seed ^ (0xA5A5u + id);
  o.heartbeat_interval_ms = heartbeat_ms;
  auto ep = std::make_unique<net::AsyncTcpEndpoint>(o);
  for (std::uint32_t j = 0; j < n; ++j) {
    if (j != id) ep->AddPeer(j, HostPort(j));
  }
  if (id != net::kHypervisorId) {
    ep->AddPeer(net::kHypervisorId, HypervisorPort());
  }
  if (id != net::kClientId) ep->AddPeer(net::kClientId, ClientPort());
  return ep;
}

std::string MpConfig::PidPath(std::uint32_t host_id) const {
  return run_dir + "/host" + std::to_string(host_id) + ".pid";
}

std::string MpConfig::LogPath(std::uint32_t host_id) const {
  return run_dir + "/host" + std::to_string(host_id) + ".log";
}

}  // namespace pisces
