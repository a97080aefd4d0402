// Top-level facade: a workstation with an OSIRIS board, and a two-node
// testbed wired back-to-back (the paper's measurement setup, §4).
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "adc/adc.h"
#include "board/rx.h"
#include "board/tx.h"
#include "dpram/dpram.h"
#include "fault/fault.h"
#include "host/driver.h"
#include "host/interrupts.h"
#include "host/machine.h"
#include "link/link.h"
#include "mem/cache.h"
#include "mem/paging.h"
#include "mem/phys.h"
#include "obs/spans.h"
#include "proto/stack.h"
#include "sim/engine.h"
#include "sim/trace.h"
#include "tc/turbochannel.h"

namespace osiris {

struct NodeConfig {
  host::MachineConfig machine;
  board::BoardConfig board;
  link::LinkConfig link;  // this node's outgoing (transmit) link
  host::OsirisDriver::Config driver;
  std::size_t mem_bytes = 64 * 1024 * 1024;
  bool interleave_frames = true;
  std::uint64_t seed = 1;
  sim::Trace* trace = nullptr;  // optional event trace (not owned)
  /// Optional fault-injection plane (not owned): wired into memory DMA,
  /// the dual-port RAM, both board processors, the interrupt controller,
  /// and the driver. Null disables every hook.
  fault::FaultPlane* faults = nullptr;
  /// Optional PDU lifecycle spans (not owned): wired into the driver, both
  /// board processors, and (through the cell stamps) the link. Give each
  /// node its own: the ledger matches transmit stamps per channel, and both
  /// nodes number their channels from 0.
  obs::PduSpans* spans = nullptr;
};

/// One workstation: memory system, TURBOchannel, dual-port RAM, the two
/// board processors, interrupt controller, kernel driver, kernel address
/// space. The kernel channel pair (index 0) is registered with the board
/// in the constructor; the driver's receive pool is queued by attach().
class Node {
 public:
  Node(sim::Engine& eng, NodeConfig cfg);

  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  /// Maps a VCI to the kernel channel on the receive side: incoming PDUs
  /// on it use the kernel free queue and receive queue.
  void map_kernel_vci(atm::Vci vci);

  /// Creates a protocol stack bound to the kernel driver.
  std::unique_ptr<proto::ProtoStack> make_stack(proto::StackConfig cfg);

  /// The parts of this node an ADC channel (adc::Adc) is built on.
  [[nodiscard]] adc::Adc::Deps adc_deps();

  /// Robustness plumbing: starts both firmware heartbeats (at period/2,
  /// so the host sees at least one beat per poll) and the driver watchdog
  /// that resets the adaptor when a heartbeat freezes longer than
  /// `deadline`. Bounded by `until` so the event queue always drains.
  void start_watchdog(sim::Duration period, sim::Duration deadline,
                      sim::Tick until);

  sim::Engine& eng;
  NodeConfig cfg;
  mem::PhysicalMemory pm;
  mem::FrameAllocator frames;
  mem::DataCache cache;
  tc::TurboChannel bus;
  dpram::DualPortRam ram;
  host::HostCpu cpu;
  host::InterruptController intc;
  link::StripedLink out;  // transmit direction; connect() points it at a peer
  board::TxProcessor txp;
  board::RxProcessor rxp;
  mem::AddressSpace kernel_space;
  dpram::ChannelLayout kernel_layout;
  host::OsirisDriver driver;
  int kernel_channel = -1;  // RxProcessor index of channel pair 0
};

/// Two nodes with their boards linked back-to-back, driven by one engine.
class Testbed {
 public:
  Testbed(NodeConfig ca, NodeConfig cb);

  /// Allocates a fresh VCI and maps it into both nodes' kernel channels
  /// (the x-kernel binds each path to an unused VCI, §3.1).
  atm::Vci open_kernel_path();

  /// Runs until the event queue drains; returns the final time.
  sim::Tick run() { return eng.run(); }

  [[nodiscard]] sim::Tick now() const { return eng.now(); }

  /// Events dispatched for both nodes since construction.
  [[nodiscard]] std::uint64_t dispatched() const { return eng.dispatched(); }

  sim::Engine eng;  // declared before the nodes, which hold references to it
  Node a;
  Node b;

 private:
  atm::Vci next_vci_ = 100;
};

/// Convenience NodeConfigs for the two machines of the paper.
NodeConfig make_5000_200_config();
NodeConfig make_3000_600_config();

}  // namespace osiris
