#include "net/topology_parse.h"

#include <cctype>
#include <sstream>
#include <vector>

#include "util/error.h"

namespace holmes::net {

namespace {

std::string strip(const std::string& s) {
  std::size_t first = 0;
  std::size_t last = s.size();
  while (first < last && std::isspace(static_cast<unsigned char>(s[first]))) {
    ++first;
  }
  while (last > first && std::isspace(static_cast<unsigned char>(s[last - 1]))) {
    --last;
  }
  return s.substr(first, last - first);
}

int parse_positive_int(const std::string& token, const char* what) {
  std::size_t consumed = 0;
  int value = 0;
  try {
    value = std::stoi(token, &consumed);
  } catch (const std::exception&) {
    throw ConfigError(std::string("expected ") + what + ", got '" + token + "'");
  }
  if (consumed != token.size() || value <= 0) {
    throw ConfigError(std::string("expected positive ") + what + ", got '" +
                      token + "'");
  }
  return value;
}

ClusterSpec parse_cluster(const std::string& token, int index) {
  const std::string body = strip(token);
  const std::size_t x = body.find('x');
  const std::size_t colon = body.find(':');
  if (x == std::string::npos || colon == std::string::npos || x > colon) {
    throw ConfigError("cluster spec must look like '2x8:ib', got '" + body +
                      "'");
  }
  ClusterSpec cluster;
  cluster.nodes = parse_positive_int(strip(body.substr(0, x)), "node count");
  cluster.gpus_per_node =
      parse_positive_int(strip(body.substr(x + 1, colon - x - 1)), "GPU count");

  std::string nic = strip(body.substr(colon + 1));
  const std::size_t at = nic.find('@');
  if (at != std::string::npos) {
    cluster.nic_gbps = static_cast<double>(
        parse_positive_int(strip(nic.substr(at + 1)), "Gbps"));
    nic = strip(nic.substr(0, at));
  }
  cluster.nic = parse_nic_type(nic);
  cluster.name = to_string(cluster.nic) + "-cluster-" + std::to_string(index);
  return cluster;
}

}  // namespace

Topology parse_topology(const std::string& spec) {
  std::vector<ClusterSpec> clusters;
  // Every '+'-separated token must be a cluster, the last one included:
  // a trailing '+' is an empty cluster spec, not the end of the list.
  std::size_t begin = 0;
  for (int index = 0;; ++index) {
    const std::size_t plus = spec.find('+', begin);
    const std::string token = spec.substr(begin, plus - begin);
    if (strip(token).empty()) {
      throw ConfigError("empty cluster spec in '" + spec + "'");
    }
    clusters.push_back(parse_cluster(token, index));
    if (plus == std::string::npos) break;
    begin = plus + 1;
  }
  return Topology(std::move(clusters));
}

std::string format_cluster(const ClusterSpec& cluster) {
  std::ostringstream os;
  os << cluster.nodes << "x" << cluster.gpus_per_node << ":";
  switch (cluster.nic) {
    case NicType::kInfiniBand: os << "ib"; break;
    case NicType::kRoCE: os << "roce"; break;
    case NicType::kEthernet: os << "eth"; break;
  }
  if (cluster.nic_gbps > 0) {
    os << "@" << static_cast<long long>(cluster.nic_gbps);
  }
  return os.str();
}

std::string format_topology(const Topology& topo) {
  std::string spec;
  for (int c = 0; c < topo.cluster_count(); ++c) {
    if (c > 0) spec += "+";
    spec += format_cluster(topo.cluster(c));
  }
  return spec;
}

}  // namespace holmes::net
