// The node counter schema. One table in stats.cc names every counter a Node
// exposes, once, as "<group>.<name>"; the metrics registry, the text and
// JSON renderings, the conservation audit and the tests all read node
// counters through it.
#pragma once

#include <string>

#include "obs/metrics.h"
#include "osiris/node.h"

namespace osiris {

/// Registers every row of the node counter table with `r` as
/// "<prefix><group>.<name>": the uint64 rows as exact counters, the five
/// ratio rows as gauges, then one consulted/fired counter pair per point of
/// the node's fault plane, if it has one. The readers are pull-model, so
/// the node must outlive the registry. Use a distinct prefix per node
/// ("a.", "b.") when one registry covers a testbed.
void register_metrics(obs::Registry& r, Node& n, const std::string& prefix = "");

/// One node's unprefixed snapshot: stats(n).counter("host.interrupts").
obs::Snapshot stats(Node& n);

}  // namespace osiris
