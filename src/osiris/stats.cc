#include "osiris/stats.h"

#include <cstdint>

namespace osiris {
namespace {

using Count = std::uint64_t;

/// One row of the node counter table: a schema name and its reader.
template <typename T>
struct Row {
  const char* name;
  T (*read)(Node&);
};

double per_pdu(Count n, Count pdus) {
  return pdus == 0 ? 0.0 : static_cast<double>(n) / static_cast<double>(pdus);
}

// Every uint64 counter on a node. Adding a counter takes one row.
constexpr Row<Count> kCounters[] = {
    // Transmit half: firmware, then the driver's descriptor books.
    {"tx.pdus_sent", [](Node& n) -> Count { return n.txp.pdus_sent(); }},
    {"tx.cells_sent", [](Node& n) -> Count { return n.txp.cells_sent(); }},
    {"tx.dma_ops", [](Node& n) -> Count { return n.txp.dma_ops(); }},
    {"tx.dma_splits", [](Node& n) -> Count { return n.txp.dma_splits(); }},
    {"tx.suspensions", [](Node& n) -> Count { return n.driver.tx_suspensions(); }},
    {"tx.auth_violations",
     [](Node& n) -> Count { return n.txp.auth_violations(); }},
    {"tx.descs_accepted",
     [](Node& n) -> Count { return n.driver.tx_descs_accepted(); }},
    {"tx.descs_retired",
     [](Node& n) -> Count { return n.driver.tx_descs_retired(); }},

    // Receive half. cells_generated are board-local generator cells, a
    // subset of cells_received.
    {"rx.cells_received", [](Node& n) -> Count { return n.rxp.cells_received(); }},
    {"rx.cells_generated",
     [](Node& n) -> Count { return n.rxp.cells_generated(); }},
    {"rx.cells_unmapped", [](Node& n) -> Count { return n.rxp.cells_unmapped(); }},
    {"rx.cells_fifo_dropped",
     [](Node& n) -> Count { return n.rxp.cells_fifo_dropped(); }},
    {"rx.dma_ops", [](Node& n) -> Count { return n.rxp.dma_ops(); }},
    {"rx.combined_dma_ops",
     [](Node& n) -> Count { return n.rxp.combined_dma_ops(); }},
    {"rx.pdus_completed", [](Node& n) -> Count { return n.rxp.pdus_completed(); }},
    {"rx.pdus_dropped_nobuf",
     [](Node& n) -> Count { return n.rxp.pdus_dropped_nobuf(); }},
    {"rx.pdus_dropped_recvfull",
     [](Node& n) -> Count { return n.rxp.pdus_dropped_recvfull(); }},
    {"rx.auth_violations",
     [](Node& n) -> Count { return n.rxp.auth_violations(); }},

    // QoS and overload management (DESIGN.md §10).
    {"qos.pdus_dropped_quota",
     [](Node& n) -> Count { return n.rxp.pdus_dropped_quota(); }},
    {"qos.pdus_evicted", [](Node& n) -> Count { return n.rxp.pdus_evicted(); }},
    {"qos.backpressure_irqs",
     [](Node& n) -> Count { return n.rxp.backpressure_irqs(); }},
    {"qos.rate_deferrals", [](Node& n) -> Count { return n.txp.rate_deferrals(); }},
    {"qos.wedge_skips", [](Node& n) -> Count { return n.txp.wedge_skips(); }},
    {"qos.quarantine_drops",
     [](Node& n) -> Count { return n.rxp.quarantine_drops(); }},
    {"qos.dead_channel_drops",
     [](Node& n) -> Count { return n.rxp.dead_channel_drops(); }},

    // Early-demultiplexing flow table (per-VCI state on the Rx fast path).
    {"flow.occupancy", [](Node& n) -> Count { return n.rxp.flow_occupancy(); }},
    {"flow.capacity", [](Node& n) -> Count { return n.rxp.flow_capacity(); }},

    // The node's outgoing link: every submitted cell is lost, dropped at the
    // receiving framer by the HEC or delivered; a corrupted cell is one of
    // the last two.
    {"link.cells_sent", [](Node& n) -> Count { return n.out.cells_sent(); }},
    {"link.cells_lost", [](Node& n) -> Count { return n.out.cells_lost(); }},
    {"link.cells_corrupted",
     [](Node& n) -> Count { return n.out.cells_corrupted(); }},
    {"link.cells_hec_dropped",
     [](Node& n) -> Count { return n.out.cells_hec_dropped(); }},

    // Host: interrupts, driver deliveries, memory system.
    {"host.interrupts", [](Node& n) -> Count { return n.intc.raised(); }},
    {"host.pdus_received",
     [](Node& n) -> Count { return n.driver.pdus_received(); }},
    {"host.stale_partial_pdus",
     [](Node& n) -> Count { return n.driver.stale_partial_pdus(); }},
    // Received PDUs whose buffers the driver re-invalidated after a
    // consumer's checksum mismatch (§2.3 lazy invalidation), whether the
    // data was stale or damaged: one per recover_stale() call.
    {"host.checksum_invalidations",
     [](Node& n) -> Count { return n.driver.checksum_invalidations(); }},
    {"host.wired_frames",
     [](Node& n) -> Count { return n.driver.wiring().wired_frames(); }},
    {"host.dpram_host_accesses",
     [](Node& n) -> Count { return n.ram.host_accesses(); }},
    {"host.dpram_board_accesses",
     [](Node& n) -> Count { return n.ram.board_accesses(); }},
    {"host.cache_stale_reads",
     [](Node& n) -> Count { return n.cache.stale_reads(); }},
    {"host.cache_dma_stale_lines",
     [](Node& n) -> Count { return n.cache.dma_stale_lines(); }},

    // Faults observed and recovery actions taken.
    {"fault.board_stalls",
     [](Node& n) -> Count { return n.txp.stalls() + n.rxp.stalls(); }},
    {"fault.cells_sar_dropped",
     [](Node& n) -> Count { return n.rxp.cells_sar_dropped(); }},
    {"fault.dma_errors",
     [](Node& n) -> Count { return n.txp.dma_errors() + n.rxp.dma_errors(); }},
    {"fault.bad_chains", [](Node& n) -> Count { return n.txp.bad_chains(); }},
    {"fault.bad_descriptors",
     [](Node& n) -> Count { return n.driver.bad_descriptors(); }},
    {"fault.dpram_stale_reads",
     [](Node& n) -> Count { return n.ram.stale_reads(); }},
    {"fault.dpram_corrupted_words",
     [](Node& n) -> Count { return n.ram.corrupted_words(); }},
    {"fault.irqs_lost", [](Node& n) -> Count { return n.intc.lost(); }},
    {"fault.spurious_irqs",
     [](Node& n) -> Count { return n.driver.spurious_irqs(); }},
    // PDUs shorter than their 8-byte AAL trailer, recycled undelivered.
    {"fault.runt_pdus", [](Node& n) -> Count { return n.driver.runt_pdus(); }},
    {"fault.resyncs_observed",
     [](Node& n) -> Count { return n.driver.resyncs_observed(); }},
    {"fault.watchdog_polls",
     [](Node& n) -> Count { return n.driver.watchdog_polls(); }},
    {"fault.watchdog_resets",
     [](Node& n) -> Count { return n.driver.watchdog_resets(); }},
    {"fault.generation", [](Node& n) -> Count { return n.driver.generation(); }},
};

// The ratios, which are not counters.
constexpr Row<double> kGauges[] = {
    {"host.bus_utilization", [](Node& n) { return n.bus.bus().utilization(); }},
    {"host.cpu_utilization",
     [](Node& n) { return n.cpu.resource().utilization(); }},
    {"rx.combine_fraction", [](Node& n) { return n.rxp.combine_fraction(); }},
    // Dual-port RAM accesses per PDU sent or delivered (§2.1 goal 1).
    {"host.dpram_accesses_per_pdu",
     [](Node& n) {
       return per_pdu(n.ram.host_accesses(),
                      n.txp.pdus_sent() + n.driver.pdus_received());
     }},
    // Interrupts per reassembled PDU (§2.1.2).
    {"host.interrupts_per_pdu",
     [](Node& n) { return per_pdu(n.intc.raised(), n.rxp.pdus_completed()); }},
};

}  // namespace

obs::Snapshot stats(Node& n, const std::string& prefix) {
  obs::Snapshot s;
  for (const auto& [name, read] : kCounters) {
    s.counters.push_back({prefix + name, read(n)});
  }
  for (const auto& [name, read] : kGauges) {
    s.gauges.push_back({prefix + name, read(n)});
  }

  // Per-point fault-plane activity. The lifetime counts survive
  // arm()/disarm() cycles, so a chaos schedule's full activity shows up in
  // --stats-json without parsing FaultPlane::summary() text.
  if (n.cfg.faults != nullptr) {
    const fault::FaultPlane& fp = *n.cfg.faults;
    for (int i = 0; i < static_cast<int>(fault::Point::kCount); ++i) {
      const auto p = static_cast<fault::Point>(i);
      const std::string base = prefix + "fault.point." + fault::point_name(p);
      s.counters.push_back({base + ".consulted", fp.lifetime_consulted(p)});
      s.counters.push_back({base + ".fired", fp.lifetime_fired(p)});
    }
  }
  s.sort_by_name();
  return s;
}

}  // namespace osiris
