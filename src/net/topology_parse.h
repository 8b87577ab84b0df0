#pragma once

/// \file topology_parse.h
/// Textual topology specs, so CLIs and configs can describe multi-cluster
/// environments compactly:
///
///   spec     := cluster ( "+" cluster )*
///   cluster  := NODES "x" GPUS ":" NIC [ "@" GBPS ]
///   NIC      := ib | infiniband | roce | eth | ethernet   (case-insensitive)
///
/// Examples: "2x8:ib+2x8:roce"   (the paper's Hybrid environment)
///           "4x8:eth"           (pure Ethernet)
///           "1x8:ib@100 + 3x8:roce"  (IB cluster capped at 100 Gbps)
///
/// Whitespace around tokens is ignored.

#include <string>

#include "net/topology.h"

namespace holmes::net {

/// Parses a topology spec. Throws holmes::ConfigError with a pointer to the
/// offending token on malformed input.
Topology parse_topology(const std::string& spec);

/// Renders one cluster in spec form ("2x8:ib", "1x8:ib@100").
std::string format_cluster(const ClusterSpec& cluster);

/// Renders a topology back into spec form (inverse of parse_topology for
/// specs without custom names).
std::string format_topology(const Topology& topo);

}  // namespace holmes::net
