// OSIRIS board: shared firmware configuration and interrupt definitions.
//
// The board has two mostly independent halves — send and receive — each
// controlled by an Intel 80960 (paper §1). Software on those processors
// defines the host interface; this module is that software, driven by the
// event engine. Each half owns a sim::Resource modelling its i960, so
// firmware decision time pipelines against DMA and link time exactly as
// the paper describes (e.g. reassembly sustains ~OC-12 in the common
// case, §5).
#pragma once

#include <cstdint>
#include <functional>
#include <string>

namespace osiris::board {

/// Receive-side overload discipline: what the firmware does when a PDU
/// needs a buffer and its free queue is dry.
enum class RxDropPolicy {
  kTailDrop,            // drop the arriving PDU (the classic §3.1 behaviour)
  kDropIncompleteFirst, // evict the oldest incomplete reassembly instead,
                        // reusing its buffers for the arriving PDU
};

struct BoardConfig {
  // DMA length (§2.5.1): single (44 B) or double (88 B) cell payloads per
  // transaction. The paper's receive-side double-cell change was done; the
  // transmit-side change was "underway" — both are available here.
  bool double_cell_dma_tx = false;
  bool double_cell_dma_rx = true;

  // Transmit DMA stops at page boundaries and takes a second address to
  // fill the rest of the cell (§2.5.2's modified controller). This flag
  // selects the ORIGINAL design §2.5.2 argues against instead: every
  // transmit transfer moves exactly one full cell payload from a single
  // address. A buffer that ends mid-cell keeps transferring — leaking
  // whatever physical memory follows the buffer onto the wire (the paper's
  // NFS page example / security risk), and putting partially-meaningful
  // cells in the middle of multi-buffer PDUs (breaking interoperability).
  bool fixed_length_dma_tx = false;

  // Receive reassembly strategy for striping skew (§2.6): "seq" or "quad".
  std::string reassembly = "quad";

  // Receive overload discipline (see RxDropPolicy above).
  RxDropPolicy rx_drop_policy = RxDropPolicy::kTailDrop;
};

/// Interrupts the board can assert (fielded by the kernel, §3.2).
enum class Irq {
  kRxNonEmpty,       // a receive queue went empty -> non-empty
  kTxHalfEmpty,      // a previously-full transmit queue drained to half
  kAccessViolation,  // an ADC posted a descriptor the firmware rejected
  kRxFreeLow,        // a free queue ran dry mid-reassembly (backpressure:
                     // the host should recycle/top up instead of letting
                     // the firmware drop PDUs silently)
};

/// Why the firmware rejected an ADC-posted descriptor. Every rejection
/// raises Irq::kAccessViolation toward the offending application; the
/// typed reason additionally reaches the kernel's ViolationSink so the
/// AdcSupervisor can budget and quarantine per channel (§3.2: the board
/// polices descriptors so one application "cannot affect other
/// applications or the kernel").
enum class Violation {
  kUnauthorizedPage,  // addr/len outside the channel's authorized pages
  kZeroLength,        // zero-length buffer (would wedge the SAR cursor)
  kOversizedLength,   // length beyond any buffer the OS would register
  kBadVci,            // PDU posted on a VCI the channel does not own
  kFreeListPoison,    // malformed free-queue entry (addr+len wraps, etc.)
  kBadChain,          // descriptor chain implies an impossible PDU
  kCount,
};

constexpr const char* violation_name(Violation v) {
  switch (v) {
    case Violation::kUnauthorizedPage: return "unauthorized_page";
    case Violation::kZeroLength: return "zero_length";
    case Violation::kOversizedLength: return "oversized_length";
    case Violation::kBadVci: return "bad_vci";
    case Violation::kFreeListPoison: return "free_list_poison";
    case Violation::kBadChain: return "bad_chain";
    case Violation::kCount: break;
  }
  return "?";
}

/// Largest descriptor length the firmware accepts from an ADC. The OS only
/// registers page-granular pools for applications (Adc's channel driver
/// uses page-sized buffers; the kernel's 16 KB buffers are the biggest
/// anywhere), so anything above this is a corrupted or hostile word.
constexpr std::uint32_t kMaxAdcDescriptorBytes = 64 * 1024;

/// Kernel-side sink for typed descriptor violations: (reason, channel).
using ViolationSink = std::function<void(Violation, int)>;

/// Callback into the host interrupt controller: (irq, channel index).
using IrqSink = std::function<void(Irq, int)>;

/// Authorization predicate for ADC channels: may the channel DMA to/from
/// [addr, addr+len)? The kernel channel has no predicate (everything is
/// allowed).
using PageAuth = std::function<bool(std::uint32_t, std::uint32_t)>;

}  // namespace osiris::board
