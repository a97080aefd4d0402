// PDU lifecycle spans: per-stage latency histograms over simulated time.
//
// A span follows one PDU from the moment the driver enqueues it until the
// peer driver hands it to the receive upcall.  The stamps ride the
// simulation's own data path — atm::Cell carries the origin tick through
// segmentation, the wire and reassembly — so spans measure exactly what the
// zero-copy cell path does, and the stamps are simulated ticks (never wall
// clock), so repeated runs record bit-identical spans.
//
// Stage boundaries (all durations in ticks):
//   enqueue_to_dpram  driver send()            -> firmware starts the PDU
//   segment           firmware start           -> last cell departs the wire
//   wire              per-cell departure       -> peer board accepts the cell
//   reassemble        first cell accepted      -> PDU completion detected
//   rx_dma            first cell accepted      -> last Rx DMA issued
//   deliver           Rx descriptor pushed     -> driver delivers the PDU
//   e2e               driver send()            -> peer driver delivers
//
// Attach one PduSpans per node (NodeConfig::spans) and merge them on read
// (merge_stages).  All lookups are guarded —
// unmatched or partially-stamped PDUs (generator traffic, aborted or evicted
// PDUs, adaptor resets) simply contribute nothing to the affected stages.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <unordered_map>
#include <vector>

#include "atm/cell.h"
#include "sim/stats.h"
#include "sim/time.h"

namespace osiris::obs {

struct Snapshot;

enum class Stage : std::uint8_t {
  kEnqueueToDpram = 0,
  kSegment,
  kWire,
  kReassemble,
  kRxDma,
  kDeliver,
  kEndToEnd,
  kCount,
};

[[nodiscard]] const char* stage_name(Stage s);

class PduSpans {
 public:
  PduSpans() = default;
  PduSpans(const PduSpans&) = delete;
  PduSpans& operator=(const PduSpans&) = delete;

  // ---- Tx side -------------------------------------------------------
  /// Driver stamped a send on `channel` at tick `at` (order-preserving
  /// FIFO per channel: firmware starts PDUs of one channel in send order).
  void tx_enqueued(int channel, sim::Tick at);

  /// Firmware is starting the next PDU of `channel`; returns the matching
  /// enqueue tick, or 0 if none is pending (e.g. spans attached mid-run).
  sim::Tick take_tx_enqueue(int channel);

  /// Records a duration sample into a stage histogram.
  void record(Stage s, std::uint64_t dt) {
    stages_[static_cast<std::size_t>(s)].record(dt);
  }

  // ---- Rx side -------------------------------------------------------
  /// Rx firmware pushed the EOP descriptor of PDU (vci, tag) at `pushed`;
  /// `origin` is the sender's driver-enqueue tick carried by its cells
  /// (0 if the PDU was never stamped).
  void rx_pushed(atm::Vci vci, std::uint8_t tag, sim::Tick origin,
                 sim::Tick pushed);

  /// The PDU (vci, tag) was aborted before delivery; drop its entry.
  void rx_aborted(atm::Vci vci, std::uint8_t tag);

  /// Driver delivered PDU (vci, tag) at `at`: records deliver and, when the
  /// origin stamp survived, the end-to-end distribution.
  void rx_delivered(atm::Vci vci, std::uint8_t tag, sim::Tick at);

  // ---- Read side -----------------------------------------------------
  [[nodiscard]] const sim::Log2Histogram& stage(Stage s) const {
    return stages_[static_cast<std::size_t>(s)];
  }

  /// Completed end-to-end spans (bounded ring, oldest dropped) for Chrome
  /// trace-event export.
  struct Span {
    atm::Vci vci = 0;
    std::uint8_t tag = 0;
    sim::Tick origin = 0;     // sender driver enqueue (0 = unstamped)
    sim::Tick pushed = 0;     // Rx EOP descriptor push
    sim::Tick delivered = 0;  // receiver driver delivery
  };
  [[nodiscard]] std::vector<Span> completed_spans() const;
  [[nodiscard]] std::uint64_t spans_recorded() const { return spans_seen_; }

  /// Appends a summary of every stage histogram to `s`, named `prefix`
  /// plus the stage name (e.g. "a.span.wire").
  void append_to(Snapshot& s, const std::string& prefix) const;

  /// Folds all of `other`'s stage histograms into `this` (for merging the
  /// two directions of a testbed before printing).
  void merge_stages(const PduSpans& other);

 private:
  static constexpr std::size_t kTxFifoCap = 4096;

  sim::Log2Histogram stages_[static_cast<std::size_t>(Stage::kCount)];
  std::unordered_map<int, std::deque<sim::Tick>> tx_fifo_;
  struct RxEntry {
    sim::Tick origin = 0;
    sim::Tick pushed = 0;
  };
  std::unordered_map<std::uint64_t, RxEntry> rx_pending_;
  static constexpr std::size_t kRingCap = 4096;
  std::vector<Span> ring_;
  std::uint64_t spans_seen_ = 0;
};

}  // namespace osiris::obs
