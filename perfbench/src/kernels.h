// The traced run's kernel pass: after the run, perfbench calls each layer's
// public hot-path function on inputs shaped like the workload's (message
// sizes, VCI count, calendar depth) and times it in isolation. ns/op times
// the run's op count then estimates that layer's share of run_s.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct KernelShape {
  std::vector<std::uint32_t> msg_bytes;  // message sizes the workload sent
  std::uint32_t vcis = 1;                // flow-table occupancy the run mapped
  std::uint32_t calendar_depth = 1;      // reservations queued per resource
  std::uint64_t seed = 1;
};

/// Times every kernel; returns metric name -> value. Keys:
///   atm.crc32_ns_per_kb, atm.segment_ns_per_cell,
///   atm.reassemble_ns_per_cell, mem.dma_write_ns_per_kb, flow.find_ns,
///   sim.resource_reserve_ns, dpram.queue_op_ns,
///   mem.phys_ctor_ms, mem.frames_ctor_ms, mem.cache_ctor_ms.
std::map<std::string, double> run_kernels(const KernelShape& shape);

}  // namespace perfbench
