#include "host/machine.h"

namespace osiris::host {

// ----------------------------------------------------------------------
// DECstation 5000/200 — 25 MHz MIPS R3000.
//
// Calibration sources, all from the paper (measured reproductions are
// recorded in EXPERIMENTS.md):
//  * interrupt service 75 us (§2.1.2); UDP/IP PDU service ~200 us
//    excluding interrupt handling — spread here over driver_rx, proto_ip,
//    proto_udp plus the per-KB terms at the 16 KB MTU.
//  * Table 1, ATM 1-byte RTT 353 us -> one-way 176.5 us: app_send 6 +
//    driver_tx (15 + 3/buffer) + wiring 2 + tx memory traffic (150 words
//    x 40 ns = 6 us) + dual-port-RAM PIO + board/link pipeline (~8 us) +
//    interrupt 75 + dispatch 8 + driver_rx (18 + 4) + rx memory traffic
//    6 + app_recv 6  ->  measured RTT 359 us.
//  * Table 1, UDP 1-byte RTT 598 us: (598-353)/2 = 122.5 us of protocol
//    per one-way => proto_ip 20 + proto_udp 32 per side plus the extra
//    header buffer's driver cost  ->  measured RTT 607 us.
//  * Figure 2 plateaus: receive-side bus occupancy per 16 KB PDU =
//    373 cells x 19 cycles = 283.5 us (single-cell DMA) plus software
//    memory traffic (150 + 250/KB words -> ~86 us) and PIO -> ~385 us ->
//    measured 340 Mbps (paper: 340). Double-cell: 223.3 us of DMA ->
//    measured 400 (paper: 379). Eager cache invalidation adds 16 KB / 4
//    words x (1 + 0.45) cycles = ~238 us of CPU time, making the CPU the
//    bottleneck: measured ~249 (paper: 250).
//  * UDP checksum reads uncached data: 20-cycle line fill penalty + 1
//    hit-cycle + 2 ALU cycles per word -> measured 79 Mbps (paper: ~80).
// ----------------------------------------------------------------------
MachineConfig decstation_5000_200() {
  MachineConfig m;
  m.name = "DECstation5000/200";
  m.cpu_hz = 25e6;
  m.cache = mem::CacheConfig{64 * 1024, 16, mem::DmaCoherence::kNonCoherent};
  m.crossbar = false;
  m.mem_word_ns = 40.0;

  m.hit_cycles_per_word = 1.0;

  m.interrupt_service = sim::us(75);
  m.thread_dispatch = sim::us(8);
  m.app_send = sim::us(6);
  m.app_recv = sim::us(6);
  m.driver_tx_pdu = sim::us(15);
  m.driver_tx_buffer = sim::us(3);
  m.driver_rx_pdu = sim::us(18);
  m.driver_rx_buffer = sim::us(4);
  m.proto_ip = sim::us(20);
  m.proto_udp = sim::us(32);
  m.per_kb_compute = sim::us(2);

  m.mem_words_per_kb = 250;

  m.page_wire_fast = sim::us(2);
  m.page_wire_slow = sim::us(40);  // Mach standard: ~order of magnitude worse

  m.syscall = sim::us(20);
  m.domain_crossing = sim::us(40);
  m.fbuf_cached_transfer = sim::us(3);
  m.fbuf_uncached_map_per_page = sim::us(30);
  return m;
}

// ----------------------------------------------------------------------
// DEC 3000/600 — 175 MHz Alpha.
//
//  * Table 1, ATM 1-byte RTT 154 us -> one-way 77 us: interrupt 25 +
//    dispatch 3 + driver costs + board/link ~8 us -> measured RTT 147 us.
//  * Table 1, UDP 1-byte RTT 316 us: (316-154)/2 = 81 us of protocol per
//    one-way => proto_ip 12 + proto_udp 22 per side -> measured 307 us.
//  * Figure 3: the crossbar decouples CPU from DMA; without checksumming
//    the 16 KB software path (~110 us) is far below the link-limited
//    254 us, so throughput approaches 516 Mbps (measured 515). With
//    checksumming, reads cost 4 hit-cycles + 2 ALU cycles per word plus
//    20-cycle line fills on cold buffers, pushing the CPU past 254 us and
//    capping throughput near the paper's 438 Mbps (measured 425).
// ----------------------------------------------------------------------
MachineConfig dec_3000_600() {
  MachineConfig m;
  m.name = "DEC3000/600";
  m.cpu_hz = 175e6;
  m.cache = mem::CacheConfig{512 * 1024, 32, mem::DmaCoherence::kUpdate};
  m.crossbar = true;
  m.mem_word_ns = 10.0;

  m.hit_cycles_per_word = 4.0;  // effective: DMA updates L2, reads hit L2

  m.interrupt_service = sim::us(25);
  m.thread_dispatch = sim::us(3);
  m.app_send = sim::us(2.5);
  m.app_recv = sim::us(2.5);
  m.driver_tx_pdu = sim::us(6);
  m.driver_tx_buffer = sim::us(1);
  m.driver_rx_pdu = sim::us(8);
  m.driver_rx_buffer = sim::us(1.5);
  m.proto_ip = sim::us(12);
  m.proto_udp = sim::us(22);
  m.per_kb_compute = sim::us(1);

  m.mem_words_per_kb = 150;

  m.page_wire_fast = sim::us(0.7);
  m.page_wire_slow = sim::us(12);

  m.syscall = sim::us(5);
  m.domain_crossing = sim::us(10);
  m.fbuf_cached_transfer = sim::us(1);
  m.fbuf_uncached_map_per_page = sim::us(8);
  return m;
}

}  // namespace osiris::host
