#include "osiris/audit.h"

#include <cstdint>

#include "osiris/stats.h"

namespace osiris::obs {

namespace {

void check_eq(std::vector<std::string>& out, const std::string& what,
              std::uint64_t lhs, std::uint64_t rhs) {
  if (lhs == rhs) return;
  out.push_back(what + ": " + std::to_string(lhs) + " != " + std::to_string(rhs));
}

void check_le(std::vector<std::string>& out, const std::string& what,
              std::uint64_t lhs, std::uint64_t rhs) {
  if (lhs <= rhs) return;
  out.push_back(what + ": " + std::to_string(lhs) + " > " + std::to_string(rhs));
}

/// One direction of the wire: `src` transmits through its outgoing link to
/// `dst`'s receive processor.
void audit_direction(std::vector<std::string>& out, const std::string& label,
                     const Snapshot& src, const Snapshot& dst) {
  // Every cell the SAR loop built was submitted to the link: the firmware
  // counts after submit(), so a mismatch means a counting bug, not a fault.
  check_eq(out, label + ": tx.cells_sent vs link.cells_sent",
           src.counter("tx.cells_sent"), src.counter("link.cells_sent"));

  // Wire conservation: a submitted cell is lost, dropped at the receiving
  // framer by the HEC, or delivered to on_cell() (which counts before any
  // FIFO/demux drop). Generator cells are board-local and excluded from
  // the wire budget.
  const std::uint64_t delivered =
      dst.counter("rx.cells_received") - dst.counter("rx.cells_generated");
  check_eq(out,
           label + ": link.cells_sent vs link.cells_lost + "
                   "link.cells_hec_dropped + delivered",
           src.counter("link.cells_sent"),
           src.counter("link.cells_lost") +
               src.counter("link.cells_hec_dropped") + delivered);

  // The driver can only deliver PDUs the board reassembled (resets can
  // discard completed-but-undelivered PDUs, so <=, not ==).
  check_le(out, label + ": host.pdus_received vs rx.pdus_completed",
           dst.counter("host.pdus_received"), dst.counter("rx.pdus_completed"));

  // Descriptor conservation: the driver never retires a transmit
  // descriptor it did not first accept.
  check_le(out, label + ": tx.descs_retired vs tx.descs_accepted",
           src.counter("tx.descs_retired"), src.counter("tx.descs_accepted"));
}

}  // namespace

std::vector<std::string> audit(Testbed& tb) {
  const Snapshot a = stats(tb.a);
  const Snapshot b = stats(tb.b);
  std::vector<std::string> out;
  audit_direction(out, "a->b", a, b);
  audit_direction(out, "b->a", b, a);
  return out;
}

}  // namespace osiris::obs
