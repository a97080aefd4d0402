// The node counter schema. One table in stats.cc names every counter a Node
// exposes, once, as "<group>.<name>"; the text and JSON renderings, the
// conservation audit and the tests all read node counters through it.
#pragma once

#include <string>

#include "obs/metrics.h"
#include "osiris/node.h"

namespace osiris {

/// Reads every row of the node counter table as "<prefix><group>.<name>":
/// the uint64 rows as exact counters, the five ratio rows as gauges, then
/// one consulted/fired counter pair per point of the node's fault plane, if
/// it has one. Each section comes out sorted by name. Use a distinct prefix
/// per node ("a.", "b.") when joining a testbed's snapshots;
/// stats(n).counter("host.interrupts") reads one counter.
obs::Snapshot stats(Node& n, const std::string& prefix = "");

}  // namespace osiris
