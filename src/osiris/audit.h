// Cross-counter invariant checker (the observability subsystem's sanity
// net): after a run drains, independently-maintained counters on the two
// nodes must agree — every cell the transmit firmware built hit the wire,
// every wire cell was delivered or accounted as lost, the driver never
// delivered more PDUs than the board completed. Fault and QoS soaks call
// audit() at the end so a bookkeeping bug (a counter bumped on one side of
// a drop but not the other) fails the test even when throughput looks fine.
#pragma once

#include <string>
#include <vector>

#include "osiris/node.h"

namespace osiris::obs {

/// Checks conservation identities across the testbed after a completed
/// run(), reading both nodes' counters by their schema names
/// (osiris/stats.h). Returns one string per violated identity, e.g.
/// "a->b: tx.cells_sent vs link.cells_sent: 12 != 11"; an empty
/// vector means the books balance. Safe on faulty runs: every identity
/// already accounts for loss, corruption and drops through their own
/// counters.
std::vector<std::string> audit(Testbed& tb);

}  // namespace osiris::obs
