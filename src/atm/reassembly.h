// Skew-tolerant cell routing — the two reassembly strategies of §2.6.
//
// The OSIRIS link stripes cells over four 155 Mbps sublinks ("lanes").
// Cells stay ordered *within* a lane but may be skewed *across* lanes. The
// receive firmware must compute, for each arriving cell, the byte offset
// within its PDU at which the payload is to be DMAed, and must detect PDU
// completion. Two strategies, as in the paper:
//
//  * Strategy A (SeqRouter): each cell carries an explicit (pdu_id, seq)
//    in its AAL header; placement is trivial, but the sequence-number
//    space is finite — under unbounded skew it can wrap (the drawback the
//    paper calls out).
//
//  * Strategy B (QuadRouter): no sequence numbers. Each PDU is treated as
//    four interleaved sub-packets, one per lane, each delimited AAL5-style
//    by a per-lane end-of-message framing bit, plus one extra ATM-header
//    bit marking the very last cell of the PDU (needed for PDUs shorter
//    than 4 cells). Offsets are derived from per-lane counters. Because a
//    short PDU is simply absent from the higher lanes, attributing a
//    lane's next cell to the right PDU requires constraint propagation
//    over cell-count bounds; this is precisely the complexity the paper
//    says was "difficult to implement in the small instruction budget".
//
// Both routers transform arrivals into Placement directives (write these
// payload bytes at this offset of this PDU) and Completion events. The
// board firmware maps placements to host physical addresses and DMA.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "atm/cell.h"
#include "flow/table.h"

namespace osiris::atm {

/// Directive: store `*cell`'s payload at byte `offset` of PDU `pdu`. The
/// placement points at its cell rather than holding a copy; see
/// CellRouter::on_cell() for how long the cell lives.
struct Placement {
  std::uint64_t pdu = 0;  // router-local, monotonically increasing PDU key
  std::uint32_t offset = 0;
  const Cell* cell = nullptr;
};

/// Event: PDU `pdu` is fully received; its wire length (user bytes +
/// trailer) is `wire_bytes`.
struct Completion {
  std::uint64_t pdu = 0;
  std::uint32_t wire_bytes = 0;
};

/// Per-VCI cell-routing strategy.
class CellRouter {
 public:
  virtual ~CellRouter() = default;

  /// Feeds one cell arriving on `lane`. Appends any placements that become
  /// determinable and any completions to the output vectors. (Strategy B
  /// may emit placements for previously queued cells of other lanes.)
  /// A placement points either at `c`, which the caller keeps, or at a
  /// cell the router queued earlier, which stays alive until the router's
  /// next on_cell() or purge(): consume placements before either.
  virtual void on_cell(int lane, const Cell& c, std::vector<Placement>& place,
                       std::vector<Completion>& done) = 0;

  [[nodiscard]] virtual const char* name() const = 0;

  /// PDUs currently being reassembled (for stats / overload tests).
  [[nodiscard]] virtual std::size_t inflight() const = 0;

  /// Garbage collection: discards all in-progress reassembly state (PDUs
  /// whose EOM cell was lost upstream, queued unattributed cells), counts
  /// the discarded cells into dropped(), and returns the number of
  /// incomplete PDUs abandoned. PDU keys stay monotonic across a purge so
  /// stale placements can never alias fresh ones.
  virtual std::uint64_t purge() = 0;

  /// Cells dropped as inconsistent (duplicates, bad state).
  [[nodiscard]] std::uint64_t dropped() const { return dropped_; }

 protected:
  std::uint64_t dropped_ = 0;
};

/// Strategy A: explicit per-cell (pdu_id, seq).
class SeqRouter final : public CellRouter {
 public:
  void on_cell(int lane, const Cell& c, std::vector<Placement>& place,
               std::vector<Completion>& done) override;
  [[nodiscard]] const char* name() const override { return "seq"; }
  [[nodiscard]] std::size_t inflight() const override { return pdus_.size(); }
  std::uint64_t purge() override;

 private:
  struct Pdu {
    std::uint64_t key = 0;
    std::uint32_t received = 0;
    std::uint32_t ncells = 0;  // 0 = unknown (last cell not yet seen)
    std::uint32_t wire_bytes = 0;
    std::vector<bool> have;
  };

  // Active PDUs by 16-bit pdu_id. A flat open-addressed table: the old
  // std::map here was an ordered tree paying pointer chases per cell for
  // an ordering nothing needed.
  flow::FlowTable<Pdu> pdus_;
  std::uint64_t next_key_ = 0;
};

/// Strategy B: four concurrent per-lane AAL5 reassemblies.
class QuadRouter final : public CellRouter {
 public:
  void on_cell(int lane, const Cell& c, std::vector<Placement>& place,
               std::vector<Completion>& done) override;
  [[nodiscard]] const char* name() const override { return "quad"; }
  [[nodiscard]] std::size_t inflight() const override;
  std::uint64_t purge() override;

  /// Cells sitting in per-lane queues awaiting attribution (stats).
  [[nodiscard]] std::size_t queued() const;

 private:
  struct Pdu {
    std::uint32_t received = 0;
    std::uint32_t ncells = 0;      // 0 = unknown
    std::uint32_t min_cells = 1;   // lower bound on ncells
    std::uint32_t max_cells = ~0u; // upper bound on ncells
    std::uint32_t wire_bytes = 0;
    bool completed = false;
  };

  struct Lane {
    std::deque<Cell> queue;     // arrived, not yet attributed
    std::uint64_t pdu = 0;      // PDU index this lane is currently delivering
    std::uint32_t in_lane = 0;  // cells delivered for that PDU on this lane
  };

  static constexpr std::uint32_t kWait = ~std::uint32_t{0};

  Pdu& pdu_state(std::uint64_t idx);
  /// The head rule: the seq that lane `lane`'s next cell takes in the
  /// lane's current PDU, after skipping PDUs that provably lack a cell on
  /// the lane; kWait while the current PDU may or may not have one.
  std::uint32_t head_seq(int lane);
  void place_cell(int lane, const Cell& c, std::uint64_t pdu_idx,
                  std::uint32_t seq, std::vector<Placement>& place,
                  std::vector<Completion>& done);
  /// Attempts to drain lane queues until no further attribution is possible.
  /// A placed cell leaves its lane queue for drained_.
  void drain(std::vector<Placement>& place, std::vector<Completion>& done);

  // PDU states live in a contiguous ring indexed by (idx - base_): PDU
  // indices are dense and monotonically increasing (lanes advance by +1,
  // purge jumps all lanes to one fresh index), and completed PDUs retire
  // strictly from the front — exactly a ring, no ordered map needed.
  std::deque<Pdu> ring_;
  std::uint64_t base_ = 0;  // PDU index of ring_.front()
  Lane lanes_[kLanes];
  // The cells drain() placed in the current on_cell() call, which its
  // placements point at; a deque, so appending moves none of them. Cleared
  // by the next on_cell() or purge().
  std::deque<Cell> drained_;
};

/// Factory by strategy name used in configs ("seq" | "quad").
std::unique_ptr<CellRouter> make_router(const char* strategy);

}  // namespace osiris::atm
