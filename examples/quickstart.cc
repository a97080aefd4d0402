// Quickstart: bring up two simulated workstations with OSIRIS boards
// linked back to back, open a path, and exchange messages over the
// UDP/IP-like stack — printing what happened at every layer.
//
//   $ ./quickstart [--stats-json=<path>] [--trace-out=<path>]
#include <cstdio>

#include "obs/spans.h"
#include "osiris/harness.h"
#include "osiris/node.h"
#include "proto/message.h"
#include "sim/trace.h"

using namespace osiris;

int main(int argc, char** argv) {
  const harness::OutputFlags out = harness::parse_output_flags(argc, argv);

  // 1. Two machines: a DECstation 5000/200 and a DEC 3000/600, boards
  //    connected by the striped 622 Mbps link. Tracing and PDU lifecycle
  //    spans are attached only when an output sink asked for them.
  sim::Trace trace_a(8192);
  sim::Trace trace_b(8192);
  obs::PduSpans spans_a;
  obs::PduSpans spans_b;
  NodeConfig ca = make_5000_200_config();
  NodeConfig cb = make_3000_600_config();
  if (!out.trace_out.empty()) {
    ca.trace = &trace_a;
    cb.trace = &trace_b;
  }
  if (!out.stats_json.empty() || !out.trace_out.empty()) {
    ca.spans = &spans_a;
    cb.spans = &spans_b;
  }
  Testbed tb(ca, cb);

  // 2. Bind a path: the x-kernel treats VCIs as abundant and dedicates
  //    one per connection (§3.1). open_kernel_path maps it on both ends.
  const std::uint16_t vci = tb.open_kernel_path();

  // 3. Protocol stacks on both hosts (UDP/IP-like, 16 KB MTU).
  proto::StackConfig cfg;
  cfg.udp_checksum = true;  // really computes the Internet checksum
  auto stack_a = tb.a.make_stack(cfg);
  auto stack_b = tb.b.make_stack(cfg);

  // 4. A receiver on machine B.
  std::uint64_t received = 0;
  stack_b->set_sink([&](sim::Tick at, std::uint16_t v,
                        std::vector<std::uint8_t>&& data) {
    ++received;
    std::printf("[B] t=%8.1f us  message %llu on vci %u: %zu bytes "
                "(first byte 0x%02x)\n",
                sim::to_us(at), static_cast<unsigned long long>(received), v,
                data.size(), data[0]);
  });

  // 5. Send three messages of growing size from A. Message data lives in
  //    real (simulated) memory; headers, cells, CRCs and DMA transfers are
  //    all genuine.
  sim::Tick t = 0;
  for (std::uint32_t i = 1; i <= 3; ++i) {
    std::vector<std::uint8_t> data(i * 20000, static_cast<std::uint8_t>(0x40 + i));
    proto::Message m = proto::Message::from_payload(tb.a.kernel_space, data,
                                                    /*offset_in_page=*/i * 100);
    t = stack_a->send(t, vci, m);
    std::printf("[A] t=%8.1f us  queued %zu-byte message (CPU returned)\n",
                sim::to_us(t), data.size());
  }

  // 6. Run the world.
  tb.run();

  std::puts("");
  std::puts("--- what the hardware did ---");
  std::printf("A transmitted %llu PDUs as %llu cells in %llu DMA reads "
              "(%llu split at page boundaries)\n",
              static_cast<unsigned long long>(tb.a.txp.pdus_sent()),
              static_cast<unsigned long long>(tb.a.txp.cells_sent()),
              static_cast<unsigned long long>(tb.a.txp.dma_ops()),
              static_cast<unsigned long long>(tb.a.txp.dma_splits()));
  std::printf("B reassembled %llu PDUs using %llu DMA writes "
              "(%.0f%% double-cell combined), %llu interrupts\n",
              static_cast<unsigned long long>(tb.b.rxp.pdus_completed()),
              static_cast<unsigned long long>(tb.b.rxp.dma_ops()),
              tb.b.rxp.combine_fraction() * 100,
              static_cast<unsigned long long>(tb.b.intc.raised()));
  std::printf("B's stack verified %llu UDP checksums; %llu failures\n",
              static_cast<unsigned long long>(stack_b->delivered()),
              static_cast<unsigned long long>(stack_b->checksum_failures()));
  std::printf("simulated time elapsed: %.1f us\n", sim::to_us(tb.now()));

  // 7. Optional observability sinks (--stats-json / --trace-out).
  if (!out.stats_json.empty()) {
    if (harness::write_stats_json(out.stats_json, tb, &spans_a, &spans_b))
      std::printf("wrote metrics snapshot to %s\n", out.stats_json.c_str());
    else
      std::fprintf(stderr, "failed to write %s\n", out.stats_json.c_str());
  }
  if (!out.trace_out.empty()) {
    if (harness::write_trace_json(out.trace_out, &trace_a, &trace_b, &spans_a,
                                  &spans_b))
      std::printf("wrote Chrome trace to %s (load in ui.perfetto.dev)\n",
                  out.trace_out.c_str());
    else
      std::fprintf(stderr, "failed to write %s\n", out.trace_out.c_str());
  }
  return received == 3 ? 0 : 1;
}
