// Calibration: every row of every experiment (bench/experiments.h) is
// pinned at its reproduced value, with the paper's value beside it, and
// the paper's orderings and loose paper-distance checks, and each
// robustness experiment's claim, hold over the same rows. The simulation
// is deterministic, so a pin's tolerance covers printing only: a change
// that moves any reproduced number fails here, naming the experiment,
// series and x. The §2.5.1 bus bounds and the §2.1.2 interrupt cost are
// checked in closed form.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <iomanip>
#include <iterator>
#include <ostream>
#include <string>
#include <utility>

#include "experiments.h"
#include "host/machine.h"
#include "tc/turbochannel.h"

namespace osiris {
namespace {

using experiments::Experiment;
using experiments::kNoPaper;
using experiments::Row;

struct Pin {
  const char* experiment;
  const char* series;
  double x;
  double measured;
  double paper;
};

// Every row of every experiment, at the value bench_paper prints. To
// re-pin after an intended recalibration, paste the rows a failing test
// prints over its experiment's block.
constexpr Pin kPins[] = {
    {"table1_latency", "5000_200_atm", 1, 358.759341, 353},
    {"table1_latency", "5000_200_atm", 1024, 406.599341, 417},
    {"table1_latency", "5000_200_atm", 2048, 478.759341, 486},
    {"table1_latency", "5000_200_atm", 4096, 623.879341, 778},
    {"table1_latency", "5000_200_udp", 1, 606.872674, 598},
    {"table1_latency", "5000_200_udp", 1024, 679.352674, 659},
    {"table1_latency", "5000_200_udp", 2048, 751.352674, 725},
    {"table1_latency", "5000_200_udp", 4096, 895.992674, 1011},
    {"table1_latency", "3000_600_atm", 1, 146.967674, 154},
    {"table1_latency", "3000_600_atm", 1024, 194.807674, 215},
    {"table1_latency", "3000_600_atm", 2048, 247.967674, 283},
    {"table1_latency", "3000_600_atm", 4096, 355.087674, 449},
    {"table1_latency", "3000_600_udp", 1, 307.497674, 316},
    {"table1_latency", "3000_600_udp", 1024, 360.977674, 376},
    {"table1_latency", "3000_600_udp", 2048, 413.977674, 446},
    {"table1_latency", "3000_600_udp", 4096, 520.617674, 619},
    {"fig2_receive_5000", "double_dma", 1, 74.8878303, kNoPaper},
    {"fig2_receive_5000", "double_dma.delivered", 1, 0.78125, kNoPaper},
    {"fig2_receive_5000", "single_dma", 1, 71.1880505, kNoPaper},
    {"fig2_receive_5000", "single_dma.delivered", 1, 0.75, kNoPaper},
    {"fig2_receive_5000", "eager_inval", 1, 63.6283141, kNoPaper},
    {"fig2_receive_5000", "eager_inval.delivered", 1, 0.739583333, kNoPaper},
    {"fig2_receive_5000", "double_dma", 2, 133.422878, kNoPaper},
    {"fig2_receive_5000", "double_dma.delivered", 2, 0.854166667, kNoPaper},
    {"fig2_receive_5000", "single_dma", 2, 123.403516, kNoPaper},
    {"fig2_receive_5000", "single_dma.delivered", 2, 0.822916667, kNoPaper},
    {"fig2_receive_5000", "eager_inval", 2, 102.369626, kNoPaper},
    {"fig2_receive_5000", "eager_inval.delivered", 2, 0.802083333, kNoPaper},
    {"fig2_receive_5000", "double_dma", 4, 216.13773, kNoPaper},
    {"fig2_receive_5000", "double_dma.delivered", 4, 0.958333333, kNoPaper},
    {"fig2_receive_5000", "single_dma", 4, 198.677565, kNoPaper},
    {"fig2_receive_5000", "single_dma.delivered", 4, 0.958333333, kNoPaper},
    {"fig2_receive_5000", "eager_inval", 4, 151.267286, kNoPaper},
    {"fig2_receive_5000", "eager_inval.delivered", 4, 0.895833333, kNoPaper},
    {"fig2_receive_5000", "double_dma", 8, 319.986703, kNoPaper},
    {"fig2_receive_5000", "double_dma.delivered", 8, 1, kNoPaper},
    {"fig2_receive_5000", "single_dma", 8, 284.195647, kNoPaper},
    {"fig2_receive_5000", "single_dma.delivered", 8, 1, kNoPaper},
    {"fig2_receive_5000", "eager_inval", 8, 204.959961, kNoPaper},
    {"fig2_receive_5000", "eager_inval.delivered", 8, 1, kNoPaper},
    {"fig2_receive_5000", "double_dma", 16, 372.956977, 379},
    {"fig2_receive_5000", "double_dma.delivered", 16, 1, kNoPaper},
    {"fig2_receive_5000", "single_dma", 16, 319.335161, 340},
    {"fig2_receive_5000", "single_dma.delivered", 16, 1, kNoPaper},
    {"fig2_receive_5000", "eager_inval", 16, 230.671824, 250},
    {"fig2_receive_5000", "eager_inval.delivered", 16, 1, kNoPaper},
    {"fig2_receive_5000", "double_dma", 32, 382.595475, 379},
    {"fig2_receive_5000", "double_dma.delivered", 32, 1, kNoPaper},
    {"fig2_receive_5000", "single_dma", 32, 328.240103, 340},
    {"fig2_receive_5000", "single_dma.delivered", 32, 1, kNoPaper},
    {"fig2_receive_5000", "eager_inval", 32, 226.483578, 250},
    {"fig2_receive_5000", "eager_inval.delivered", 32, 0.604166667, kNoPaper},
    {"fig2_receive_5000", "double_dma", 64, 387.685747, 379},
    {"fig2_receive_5000", "double_dma.delivered", 64, 1, kNoPaper},
    {"fig2_receive_5000", "single_dma", 64, 332.413643, 340},
    {"fig2_receive_5000", "single_dma.delivered", 64, 1, kNoPaper},
    {"fig2_receive_5000", "eager_inval", 64, 225.60773, 250},
    {"fig2_receive_5000", "eager_inval.delivered", 64, 0.583333333, kNoPaper},
    {"fig2_receive_5000", "double_dma", 128, 393.316125, 379},
    {"fig2_receive_5000", "double_dma.delivered", 128, 1, kNoPaper},
    {"fig2_receive_5000", "single_dma", 128, 335.285887, 340},
    {"fig2_receive_5000", "single_dma.delivered", 128, 1, kNoPaper},
    {"fig2_receive_5000", "eager_inval", 128, 223.591438, 250},
    {"fig2_receive_5000", "eager_inval.delivered", 128, 0.333333333, kNoPaper},
    {"fig2_receive_5000", "double_dma", 256, 266.450023, 379},
    {"fig2_receive_5000", "double_dma.delivered", 256, 0.625, kNoPaper},
    {"fig2_receive_5000", "single_dma", 256, 245.63488, 340},
    {"fig2_receive_5000", "single_dma.delivered", 256, 0.666666667, kNoPaper},
    {"fig2_receive_5000", "eager_inval", 256, 99.3721811, 250},
    {"fig2_receive_5000", "eager_inval.delivered", 256, 0.208333333, kNoPaper},
    {"fig3_receive_3000", "double_dma", 1, 145.201944, kNoPaper},
    {"fig3_receive_3000", "double_dma.delivered", 1, 0.9375, kNoPaper},
    {"fig3_receive_3000", "double_dma_cksum", 1, 115.527723, kNoPaper},
    {"fig3_receive_3000", "double_dma_cksum.delivered", 1, 0.885416667, kNoPaper},
    {"fig3_receive_3000", "single_dma", 1, 123.196745, kNoPaper},
    {"fig3_receive_3000", "single_dma.delivered", 1, 0.802083333, kNoPaper},
    {"fig3_receive_3000", "single_dma_cksum", 1, 102.365441, kNoPaper},
    {"fig3_receive_3000", "single_dma_cksum.delivered", 1, 0.791666667, kNoPaper},
    {"fig3_receive_3000", "double_dma", 2, 283.966103, kNoPaper},
    {"fig3_receive_3000", "double_dma.delivered", 2, 1, kNoPaper},
    {"fig3_receive_3000", "double_dma_cksum", 2, 189.472496, kNoPaper},
    {"fig3_receive_3000", "double_dma_cksum.delivered", 2, 1, kNoPaper},
    {"fig3_receive_3000", "single_dma", 2, 205.073532, kNoPaper},
    {"fig3_receive_3000", "single_dma.delivered", 2, 0.895833333, kNoPaper},
    {"fig3_receive_3000", "single_dma_cksum", 2, 153.568084, kNoPaper},
    {"fig3_receive_3000", "single_dma_cksum.delivered", 2, 0.854166667, kNoPaper},
    {"fig3_receive_3000", "double_dma", 4, 505.038247, kNoPaper},
    {"fig3_receive_3000", "double_dma.delivered", 4, 1, kNoPaper},
    {"fig3_receive_3000", "double_dma_cksum", 4, 275.884876, kNoPaper},
    {"fig3_receive_3000", "double_dma_cksum.delivered", 4, 1, kNoPaper},
    {"fig3_receive_3000", "single_dma", 4, 301.325442, kNoPaper},
    {"fig3_receive_3000", "single_dma.delivered", 4, 1, kNoPaper},
    {"fig3_receive_3000", "single_dma_cksum", 4, 210.449698, kNoPaper},
    {"fig3_receive_3000", "single_dma_cksum.delivered", 4, 0.947916667, kNoPaper},
    {"fig3_receive_3000", "double_dma", 8, 514.143713, kNoPaper},
    {"fig3_receive_3000", "double_dma.delivered", 8, 1, kNoPaper},
    {"fig3_receive_3000", "double_dma_cksum", 8, 354.404527, kNoPaper},
    {"fig3_receive_3000", "double_dma_cksum.delivered", 8, 1, kNoPaper},
    {"fig3_receive_3000", "single_dma", 8, 401.016018, kNoPaper},
    {"fig3_receive_3000", "single_dma.delivered", 8, 1, kNoPaper},
    {"fig3_receive_3000", "single_dma_cksum", 8, 269.122503, kNoPaper},
    {"fig3_receive_3000", "single_dma_cksum.delivered", 8, 1, kNoPaper},
    {"fig3_receive_3000", "double_dma", 16, 514.375464, 516},
    {"fig3_receive_3000", "double_dma.delivered", 16, 1, kNoPaper},
    {"fig3_receive_3000", "double_dma_cksum", 16, 400.504687, 438},
    {"fig3_receive_3000", "double_dma_cksum.delivered", 16, 1, kNoPaper},
    {"fig3_receive_3000", "single_dma", 16, 427.889131, kNoPaper},
    {"fig3_receive_3000", "single_dma.delivered", 16, 1, kNoPaper},
    {"fig3_receive_3000", "single_dma_cksum", 16, 289.555235, kNoPaper},
    {"fig3_receive_3000", "single_dma_cksum.delivered", 16, 1, kNoPaper},
    {"fig3_receive_3000", "double_dma", 32, 514.964211, 516},
    {"fig3_receive_3000", "double_dma.delivered", 32, 1, kNoPaper},
    {"fig3_receive_3000", "double_dma_cksum", 32, 416.455557, 438},
    {"fig3_receive_3000", "double_dma_cksum.delivered", 32, 1, kNoPaper},
    {"fig3_receive_3000", "single_dma", 32, 433.678072, kNoPaper},
    {"fig3_receive_3000", "single_dma.delivered", 32, 1, kNoPaper},
    {"fig3_receive_3000", "single_dma_cksum", 32, 312.736701, kNoPaper},
    {"fig3_receive_3000", "single_dma_cksum.delivered", 32, 0.854166667, kNoPaper},
    {"fig3_receive_3000", "double_dma", 64, 514.625446, 516},
    {"fig3_receive_3000", "double_dma.delivered", 64, 1, kNoPaper},
    {"fig3_receive_3000", "double_dma_cksum", 64, 424.521631, 438},
    {"fig3_receive_3000", "double_dma_cksum.delivered", 64, 1, kNoPaper},
    {"fig3_receive_3000", "single_dma", 64, 440.028317, kNoPaper},
    {"fig3_receive_3000", "single_dma.delivered", 64, 1, kNoPaper},
    {"fig3_receive_3000", "single_dma_cksum", 64, 314.231365, kNoPaper},
    {"fig3_receive_3000", "single_dma_cksum.delivered", 64, 0.791666667, kNoPaper},
    {"fig3_receive_3000", "double_dma", 128, 514.52363, 516},
    {"fig3_receive_3000", "double_dma.delivered", 128, 1, kNoPaper},
    {"fig3_receive_3000", "double_dma_cksum", 128, 445.324906, 438},
    {"fig3_receive_3000", "double_dma_cksum.delivered", 128, 1, kNoPaper},
    {"fig3_receive_3000", "single_dma", 128, 443.053635, kNoPaper},
    {"fig3_receive_3000", "single_dma.delivered", 128, 1, kNoPaper},
    {"fig3_receive_3000", "single_dma_cksum", 128, 312.888577, kNoPaper},
    {"fig3_receive_3000", "single_dma_cksum.delivered", 128, 0.708333333, kNoPaper},
    {"fig3_receive_3000", "double_dma", 256, 514.434609, 516},
    {"fig3_receive_3000", "double_dma.delivered", 256, 1, kNoPaper},
    {"fig3_receive_3000", "double_dma_cksum", 256, 454.322891, 438},
    {"fig3_receive_3000", "double_dma_cksum.delivered", 256, 0.916666667, kNoPaper},
    {"fig3_receive_3000", "single_dma", 256, 394.435383, kNoPaper},
    {"fig3_receive_3000", "single_dma.delivered", 256, 0.875, kNoPaper},
    {"fig3_receive_3000", "single_dma_cksum", 256, 317.133568, kNoPaper},
    {"fig3_receive_3000", "single_dma_cksum.delivered", 256, 0.666666667, kNoPaper},
    {"fig4_transmit", "3000_600", 1, 138.588586, kNoPaper},
    {"fig4_transmit", "3000_600_cksum", 1, 117.936787, kNoPaper},
    {"fig4_transmit", "5000_200", 1, 77.713627, kNoPaper},
    {"fig4_transmit", "3000_600", 2, 260.75722, kNoPaper},
    {"fig4_transmit", "3000_600_cksum", 2, 192.029541, kNoPaper},
    {"fig4_transmit", "5000_200", 2, 142.392452, kNoPaper},
    {"fig4_transmit", "3000_600", 4, 288.305739, kNoPaper},
    {"fig4_transmit", "3000_600_cksum", 4, 275.109968, kNoPaper},
    {"fig4_transmit", "5000_200", 4, 226.79537, kNoPaper},
    {"fig4_transmit", "3000_600", 8, 305.637145, kNoPaper},
    {"fig4_transmit", "3000_600_cksum", 8, 304.967197, kNoPaper},
    {"fig4_transmit", "5000_200", 8, 250.272108, kNoPaper},
    {"fig4_transmit", "3000_600", 16, 316.108743, 325},
    {"fig4_transmit", "3000_600_cksum", 16, 314.259599, kNoPaper},
    {"fig4_transmit", "5000_200", 16, 262.333991, kNoPaper},
    {"fig4_transmit", "3000_600", 32, 317.570293, 325},
    {"fig4_transmit", "3000_600_cksum", 32, 316.622168, kNoPaper},
    {"fig4_transmit", "5000_200", 32, 263.957783, kNoPaper},
    {"fig4_transmit", "3000_600", 64, 316.069968, 325},
    {"fig4_transmit", "3000_600_cksum", 64, 315.70279, kNoPaper},
    {"fig4_transmit", "5000_200", 64, 264.442369, kNoPaper},
    {"fig4_transmit", "3000_600", 128, 315.597299, 325},
    {"fig4_transmit", "3000_600_cksum", 128, 315.452179, kNoPaper},
    {"fig4_transmit", "5000_200", 128, 264.299112, kNoPaper},
    {"fig4_transmit", "3000_600", 256, 315.112375, 325},
    {"fig4_transmit", "3000_600_cksum", 256, 315.299197, kNoPaper},
    {"fig4_transmit", "5000_200", 256, 261.240764, kNoPaper},
    {"cache", "lazy", 64, 332.413643, 340},
    {"cache", "lazy.delivered", 64, 1, kNoPaper},
    {"cache", "eager", 64, 225.60773, 250},
    {"cache", "eager.delivered", 64, 0.583333333, kNoPaper},
    {"cache", "lazy_cksum", 64, 72.5352039, 80},
    {"cache", "lazy_cksum.delivered", 64, 0.416666667, kNoPaper},
    {"cache", "eager_cksum", 64, 65.1210271, kNoPaper},
    {"cache", "eager_cksum.delivered", 64, 0.416666667, kNoPaper},
    {"cache", "sustained.lines_made_stale", 16, 3930, kNoPaper},
    {"cache", "sustained.stale_reads", 16, 0, 0},
    {"cache", "sustained.checksum_failures", 16, 0, kNoPaper},
    {"cache", "sustained.stale_recoveries", 16, 0, kNoPaper},
    {"cache", "sustained", 16, 75.9624986, kNoPaper},
    {"cache", "sustained.delivered", 16, 0.683333333, kNoPaper},
    {"dma_length", "read_mbps", 1, 366.666667, 367},
    {"dma_length", "write_mbps", 1, 463.157895, 463},
    {"dma_length", "read_overhead_pct", 1, 54.1666667, kNoPaper},
    {"dma_length", "write_overhead_pct", 1, 42.1052632, kNoPaper},
    {"dma_length", "read_mbps", 2, 502.857143, 503},
    {"dma_length", "write_mbps", 2, 586.666667, 587},
    {"dma_length", "read_overhead_pct", 2, 37.1428571, kNoPaper},
    {"dma_length", "write_overhead_pct", 2, 26.6666667, kNoPaper},
    {"dma_length", "read_mbps", 3, 573.913043, kNoPaper},
    {"dma_length", "write_mbps", 3, 643.902439, kNoPaper},
    {"dma_length", "read_overhead_pct", 3, 28.2608696, kNoPaper},
    {"dma_length", "write_overhead_pct", 3, 19.5121951, kNoPaper},
    {"dma_length", "read_mbps", 4, 617.54386, kNoPaper},
    {"dma_length", "write_mbps", 4, 676.923077, kNoPaper},
    {"dma_length", "read_overhead_pct", 4, 22.8070175, kNoPaper},
    {"dma_length", "write_overhead_pct", 4, 15.3846154, kNoPaper},
    {"dma_length", "read_mbps", 5, 647.058824, kNoPaper},
    {"dma_length", "write_mbps", 5, 698.412698, kNoPaper},
    {"dma_length", "read_overhead_pct", 5, 19.1176471, kNoPaper},
    {"dma_length", "write_overhead_pct", 5, 12.6984127, kNoPaper},
    {"dma_length", "read_mbps", 6, 668.35443, kNoPaper},
    {"dma_length", "write_mbps", 6, 713.513514, kNoPaper},
    {"dma_length", "read_overhead_pct", 6, 16.4556962, kNoPaper},
    {"dma_length", "write_overhead_pct", 6, 10.8108108, kNoPaper},
    {"dma_length", "read_mbps", 7, 684.444444, kNoPaper},
    {"dma_length", "write_mbps", 7, 724.705882, kNoPaper},
    {"dma_length", "read_overhead_pct", 7, 14.4444444, kNoPaper},
    {"dma_length", "write_overhead_pct", 7, 9.41176471, kNoPaper},
    {"dma_length", "read_mbps", 8, 697.029703, kNoPaper},
    {"dma_length", "write_mbps", 8, 733.333333, kNoPaper},
    {"dma_length", "read_overhead_pct", 8, 12.8712871, kNoPaper},
    {"dma_length", "write_overhead_pct", 8, 8.33333333, kNoPaper},
    {"dma_length", "e2e_rx", 1, 440.028317, kNoPaper},
    {"dma_length", "e2e_rx.delivered", 1, 1, kNoPaper},
    {"dma_length", "e2e_rx", 2, 514.625446, kNoPaper},
    {"dma_length", "e2e_rx.delivered", 2, 1, kNoPaper},
    {"dma_length", "e2e_tx", 1, 315.862485, kNoPaper},
    {"dma_length", "e2e_tx", 2, 431.838238, kNoPaper},
    {"interrupts", "5000_200.pdus", 2, 91, kNoPaper},
    {"interrupts", "5000_200.interrupts", 2, 14, kNoPaper},
    {"interrupts", "5000_200.irq_per_pdu", 2, 0.153846154, kNoPaper},
    {"interrupts", "5000_200.delivered", 2, 0.606666667, kNoPaper},
    {"interrupts", "5000_200.pdus", 16, 60, kNoPaper},
    {"interrupts", "5000_200.interrupts", 16, 4, kNoPaper},
    {"interrupts", "5000_200.irq_per_pdu", 16, 0.0666666667, kNoPaper},
    {"interrupts", "5000_200.delivered", 16, 1, kNoPaper},
    {"interrupts", "5000_200.pdus", 64, 120, kNoPaper},
    {"interrupts", "5000_200.interrupts", 64, 5, kNoPaper},
    {"interrupts", "5000_200.irq_per_pdu", 64, 0.0416666667, kNoPaper},
    {"interrupts", "5000_200.delivered", 64, 1, kNoPaper},
    {"interrupts", "3000_600.pdus", 2, 143, kNoPaper},
    {"interrupts", "3000_600.interrupts", 2, 7, kNoPaper},
    {"interrupts", "3000_600.irq_per_pdu", 2, 0.048951049, kNoPaper},
    {"interrupts", "3000_600.delivered", 2, 0.953333333, kNoPaper},
    {"interrupts", "3000_600.pdus", 16, 60, kNoPaper},
    {"interrupts", "3000_600.interrupts", 16, 60, kNoPaper},
    {"interrupts", "3000_600.irq_per_pdu", 16, 1, kNoPaper},
    {"interrupts", "3000_600.delivered", 16, 1, kNoPaper},
    {"interrupts", "3000_600.pdus", 64, 120, kNoPaper},
    {"interrupts", "3000_600.interrupts", 64, 120, kNoPaper},
    {"interrupts", "3000_600.irq_per_pdu", 64, 1, kNoPaper},
    {"interrupts", "3000_600.delivered", 64, 1, kNoPaper},
    {"interrupts", "tx.interrupts", 16, 32, kNoPaper},
    {"interrupts", "tx.suspensions", 16, 32, kNoPaper},
    {"interrupts", "tx.delivered", 16, 1, kNoPaper},
    {"lockfree", "lockfree.push_accesses", 64, 6, kNoPaper},
    {"lockfree", "lockfree.pop_accesses", 64, 6, kNoPaper},
    {"lockfree", "lockfree.push_finish_us", 64, 230.4, kNoPaper},
    {"lockfree", "spinlock.finish_us", 64, 691.2, kNoPaper},
    {"lockfree", "spinlock.lock_wait_us", 64, 43891.2, kNoPaper},
    {"fragmentation", "unaligned.frags", 4096, 5, kNoPaper},
    {"fragmentation", "unaligned.bufs", 4096, 15, 14},
    {"fragmentation", "aligned.frags", 4096, 5, kNoPaper},
    {"fragmentation", "aligned.bufs", 4096, 14, kNoPaper},
    {"fragmentation", "unaligned.frags", 4124, 4, kNoPaper},
    {"fragmentation", "unaligned.bufs", 4124, 13, kNoPaper},
    {"fragmentation", "aligned.frags", 4124, 4, kNoPaper},
    {"fragmentation", "aligned.bufs", 4124, 11, kNoPaper},
    {"fragmentation", "aligned.frags", 16412, 1, kNoPaper},
    {"fragmentation", "aligned.bufs", 16412, 6, kNoPaper},
    {"skew", "seq.delivered", 0, 1, kNoPaper},
    {"skew", "seq.intact", 0, 1, kNoPaper},
    {"skew", "seq.combine_frac", 0, 0.974773666, kNoPaper},
    {"skew", "seq.mbps", 0, 317.749017, kNoPaper},
    {"skew", "seq.delivered", 2, 1, kNoPaper},
    {"skew", "seq.intact", 2, 1, kNoPaper},
    {"skew", "seq.combine_frac", 2, 0.400386606, kNoPaper},
    {"skew", "seq.mbps", 2, 317.750465, kNoPaper},
    {"skew", "seq.delivered", 5, 1, kNoPaper},
    {"skew", "seq.intact", 5, 1, kNoPaper},
    {"skew", "seq.combine_frac", 5, 0.12950762, kNoPaper},
    {"skew", "seq.mbps", 5, 317.721845, kNoPaper},
    {"skew", "seq.delivered", 10, 1, kNoPaper},
    {"skew", "seq.intact", 10, 1, kNoPaper},
    {"skew", "seq.combine_frac", 10, 0.0619770245, kNoPaper},
    {"skew", "seq.mbps", 10, 317.746246, kNoPaper},
    {"skew", "seq.delivered", 20, 1, kNoPaper},
    {"skew", "seq.intact", 20, 1, kNoPaper},
    {"skew", "seq.combine_frac", 20, 0.035584236, kNoPaper},
    {"skew", "seq.mbps", 20, 317.743526, kNoPaper},
    {"skew", "seq.delivered", 40, 1, kNoPaper},
    {"skew", "seq.intact", 40, 1, kNoPaper},
    {"skew", "seq.combine_frac", 40, 0.0153644539, kNoPaper},
    {"skew", "seq.mbps", 40, 317.804492, kNoPaper},
    {"skew", "seq.delivered", 80, 1, kNoPaper},
    {"skew", "seq.intact", 80, 1, kNoPaper},
    {"skew", "seq.combine_frac", 80, 0.00411118062, kNoPaper},
    {"skew", "seq.mbps", 80, 317.830066, kNoPaper},
    {"skew", "quad.delivered", 0, 1, kNoPaper},
    {"skew", "quad.intact", 0, 1, kNoPaper},
    {"skew", "quad.combine_frac", 0, 0.974773666, kNoPaper},
    {"skew", "quad.mbps", 0, 317.749017, kNoPaper},
    {"skew", "quad.delivered", 2, 1, kNoPaper},
    {"skew", "quad.intact", 2, 1, kNoPaper},
    {"skew", "quad.combine_frac", 2, 0.400386606, kNoPaper},
    {"skew", "quad.mbps", 2, 317.750465, kNoPaper},
    {"skew", "quad.delivered", 5, 1, kNoPaper},
    {"skew", "quad.intact", 5, 1, kNoPaper},
    {"skew", "quad.combine_frac", 5, 0.12950762, kNoPaper},
    {"skew", "quad.mbps", 5, 317.721845, kNoPaper},
    {"skew", "quad.delivered", 10, 1, kNoPaper},
    {"skew", "quad.intact", 10, 1, kNoPaper},
    {"skew", "quad.combine_frac", 10, 0.0620774431, kNoPaper},
    {"skew", "quad.mbps", 10, 317.746246, kNoPaper},
    {"skew", "quad.delivered", 20, 1, kNoPaper},
    {"skew", "quad.intact", 20, 1, kNoPaper},
    {"skew", "quad.combine_frac", 20, 0.0357752063, kNoPaper},
    {"skew", "quad.mbps", 20, 317.743526, kNoPaper},
    {"skew", "quad.delivered", 40, 1, kNoPaper},
    {"skew", "quad.intact", 40, 1, kNoPaper},
    {"skew", "quad.combine_frac", 40, 0.0155939251, kNoPaper},
    {"skew", "quad.mbps", 40, 317.804492, kNoPaper},
    {"skew", "quad.delivered", 80, 1, kNoPaper},
    {"skew", "quad.intact", 80, 1, kNoPaper},
    {"skew", "quad.combine_frac", 80, 0.00433558307, kNoPaper},
    {"skew", "quad.mbps", 80, 317.830066, kNoPaper},
    {"dma_vs_pio", "5000_200.dma_transfer", 32, 585.665773, kNoPaper},
    {"dma_vs_pio", "5000_200.dma_app_read", 32, 114.285714, kNoPaper},
    {"dma_vs_pio", "5000_200.pio_transfer", 32, 53.3333333, kNoPaper},
    {"dma_vs_pio", "5000_200.pio_app_read", 32, 800, kNoPaper},
    {"dma_vs_pio", "3000_600.dma_transfer", 32, 585.665773, kNoPaper},
    {"dma_vs_pio", "3000_600.dma_app_read", 32, 678.78788, kNoPaper},
    {"dma_vs_pio", "3000_600.pio_transfer", 32, 53.3333333, kNoPaper},
    {"dma_vs_pio", "3000_600.pio_app_read", 32, 1400, kNoPaper},
    {"fbuf", "5000_200.cached_us", 2, 6, kNoPaper},
    {"fbuf", "5000_200.uncached_us", 2, 60, kNoPaper},
    {"fbuf", "5000_200.advantage", 2, 10, 10},
    {"fbuf", "3000_600.cached_us", 2, 2, kNoPaper},
    {"fbuf", "3000_600.uncached_us", 2, 16, kNoPaper},
    {"fbuf", "3000_600.advantage", 2, 8, 10},
    {"adc", "5000_200.kernel", 1, 334.716674, kNoPaper},
    {"adc", "5000_200.adc", 1, 334.716674, kNoPaper},
    {"adc", "5000_200.user_via_kernel", 1, 634.716674, kNoPaper},
    {"adc", "5000_200.kernel", 1024, 382.556674, kNoPaper},
    {"adc", "5000_200.adc", 1024, 382.556674, kNoPaper},
    {"adc", "5000_200.user_via_kernel", 1024, 682.556674, kNoPaper},
    {"adc", "5000_200.kernel", 4096, 599.836674, kNoPaper},
    {"adc", "5000_200.adc", 4096, 618.656674, kNoPaper},
    {"adc", "5000_200.user_via_kernel", 4096, 899.836674, kNoPaper},
    {"adc", "3000_600.kernel", 1, 136.946674, kNoPaper},
    {"adc", "3000_600.adc", 1, 136.946674, kNoPaper},
    {"adc", "3000_600.user_via_kernel", 1, 211.946674, kNoPaper},
    {"adc", "3000_600.kernel", 1024, 184.786674, kNoPaper},
    {"adc", "3000_600.adc", 1024, 184.786674, kNoPaper},
    {"adc", "3000_600.user_via_kernel", 1024, 259.786674, kNoPaper},
    {"adc", "3000_600.kernel", 4096, 345.066674, kNoPaper},
    {"adc", "3000_600.adc", 4096, 358.886674, kNoPaper},
    {"adc", "3000_600.user_via_kernel", 4096, 420.066674, kNoPaper},
    {"fixed_dma", "page_stop.delivered", 16, 1, kNoPaper},
    {"fixed_dma", "page_stop.intact", 16, 1, kNoPaper},
    {"fixed_dma", "page_stop.cells", 16, 5610, kNoPaper},
    {"fixed_dma", "page_stop.leaked_cells", 16, 0, kNoPaper},
    {"fixed_dma", "page_stop.leaked_bytes", 16, 0, kNoPaper},
    {"fixed_dma", "page_stop.mbps", 16, 312.468595, kNoPaper},
    {"fixed_dma", "fixed.delivered", 16, 0, kNoPaper},
    {"fixed_dma", "fixed.intact", 16, 0, kNoPaper},
    {"fixed_dma", "fixed.cells", 16, 5685, kNoPaper},
    {"fixed_dma", "fixed.leaked_cells", 16, 105, kNoPaper},
    {"fixed_dma", "fixed.leaked_bytes", 16, 3300, kNoPaper},
    {"fixed_dma", "fixed.mbps", 16, 0, kNoPaper},
    {"wiring", "5000_200.fast_us", 4, 124.76, kNoPaper},
    {"wiring", "5000_200.mach_us", 4, 238.76, kNoPaper},
    {"wiring", "5000_200.fast_us", 16, 217.76, kNoPaper},
    {"wiring", "5000_200.mach_us", 16, 445.76, kNoPaper},
    {"wiring", "5000_200.fast_us", 64, 768.04, kNoPaper},
    {"wiring", "5000_200.mach_us", 64, 1642.04, kNoPaper},
    {"wiring", "3000_600.fast_us", 4, 59.61, kNoPaper},
    {"wiring", "3000_600.mach_us", 4, 93.51, kNoPaper},
    {"wiring", "3000_600.fast_us", 16, 85.71, kNoPaper},
    {"wiring", "3000_600.mach_us", 16, 153.51, kNoPaper},
    {"wiring", "3000_600.fast_us", 64, 273.14, kNoPaper},
    {"wiring", "3000_600.mach_us", 64, 533.04, kNoPaper},
    {"wiring", "5000_200.fast_mbps", 64, 264.442369, kNoPaper},
    {"wiring", "5000_200.mach_mbps", 64, 250.099895, kNoPaper},
    {"wiring", "3000_600.fast_mbps", 64, 316.069968, kNoPaper},
    {"wiring", "3000_600.mach_mbps", 64, 316.169179, kNoPaper},
    {"priority", "fast.delivered_pdus", 60, 60, kNoPaper},
    {"priority", "fast.host_pdus", 60, 60, kNoPaper},
    {"priority", "slow.delivered_pdus", 60, 36, kNoPaper},
    {"priority", "slow.host_pdus", 60, 36, kNoPaper},
    {"priority", "board_drops", 60, 24, kNoPaper},
    {"priority", "interrupts", 60, 5, kNoPaper},
    {"fault", "delivered", 0, 1, kNoPaper},
    {"fault", "retransmissions", 0, 0, kNoPaper},
    {"fault", "goodput_mbps", 0, 14.4109799, kNoPaper},
    {"fault", "p50_us", 0, 30622.481, kNoPaper},
    {"fault", "p99_us", 0, 60466.9776, kNoPaper},
    {"fault", "dead", 0, 0, kNoPaper},
    {"fault", "delivered", 0.5, 1, kNoPaper},
    {"fault", "retransmissions", 0.5, 27, kNoPaper},
    {"fault", "goodput_mbps", 0.5, 12.4377182, kNoPaper},
    {"fault", "p50_us", 0.5, 43259.1451, kNoPaper},
    {"fault", "p99_us", 0.5, 78841.4595, kNoPaper},
    {"fault", "dead", 0.5, 0, kNoPaper},
    {"fault", "delivered", 1, 1, kNoPaper},
    {"fault", "retransmissions", 1, 63, kNoPaper},
    {"fault", "goodput_mbps", 1, 9.72752698, kNoPaper},
    {"fault", "p50_us", 1, 59688.6086, kNoPaper},
    {"fault", "p99_us", 1, 113543.217, kNoPaper},
    {"fault", "dead", 1, 0, kNoPaper},
    {"fault", "delivered", 2, 1, kNoPaper},
    {"fault", "retransmissions", 2, 130, kNoPaper},
    {"fault", "goodput_mbps", 2, 6.44259375, kNoPaper},
    {"fault", "p50_us", 2, 96839.7343, kNoPaper},
    {"fault", "p99_us", 2, 198397.53, kNoPaper},
    {"fault", "dead", 2, 0, kNoPaper},
    {"fault", "delivered", 5, 1, kNoPaper},
    {"fault", "retransmissions", 5, 358, kNoPaper},
    {"fault", "goodput_mbps", 5, 2.44213672, kNoPaper},
    {"fault", "p50_us", 5, 302553.301, kNoPaper},
    {"fault", "p99_us", 5, 605264.474, kNoPaper},
    {"fault", "dead", 5, 0, kNoPaper},
    {"adc_isolation", "baseline.delivered", 1, 1, kNoPaper},
    {"adc_isolation", "baseline.goodput_mbps", 1, 144.274358, kNoPaper},
    {"adc_isolation", "baseline.p50_us", 1, 8715.14742, kNoPaper},
    {"adc_isolation", "baseline.p99_us", 1, 16757.3287, kNoPaper},
    {"adc_isolation", "baseline.delivered", 2, 1, kNoPaper},
    {"adc_isolation", "baseline.goodput_mbps", 2, 143.940401, kNoPaper},
    {"adc_isolation", "baseline.p50_us", 2, 8755.17375, kNoPaper},
    {"adc_isolation", "baseline.p99_us", 2, 16797.3515, kNoPaper},
    {"adc_isolation", "adversary.delivered", 1, 1, kNoPaper},
    {"adc_isolation", "adversary.goodput_mbps", 1, 142.044521, kNoPaper},
    {"adc_isolation", "adversary.p50_us", 1, 8606.23707, kNoPaper},
    {"adc_isolation", "adversary.p99_us", 1, 16520.7778, kNoPaper},
    {"adc_isolation", "adversary.delivered", 2, 1, kNoPaper},
    {"adc_isolation", "adversary.goodput_mbps", 2, 141.720794, kNoPaper},
    {"adc_isolation", "adversary.p50_us", 2, 8646.26341, kNoPaper},
    {"adc_isolation", "adversary.p99_us", 2, 16560.4576, kNoPaper},
    {"adc_isolation", "attacker.violations", 3, 9, kNoPaper},
    {"adc_isolation", "attacker.quarantined", 3, 1, kNoPaper},
    {"qos", "equal.aggregate_mbps", 0.5, 151.2, kNoPaper},
    {"qos", "equal.jain", 0.5, 0.999580255, kNoPaper},
    {"qos", "equal.min_mbps", 0.5, 18.4, kNoPaper},
    {"qos", "equal.max_mbps", 0.5, 19.2, kNoPaper},
    {"qos", "equal.rx_drops", 0.5, 0, kNoPaper},
    {"qos", "equal.aggregate_mbps", 0.9, 268.8, kNoPaper},
    {"qos", "equal.jain", 0.9, 1, kNoPaper},
    {"qos", "equal.min_mbps", 0.9, 33.6, kNoPaper},
    {"qos", "equal.max_mbps", 0.9, 33.6, kNoPaper},
    {"qos", "equal.rx_drops", 0.9, 0, kNoPaper},
    {"qos", "equal.aggregate_mbps", 2, 269.6, kNoPaper},
    {"qos", "equal.jain", 2, 0.999938367, kNoPaper},
    {"qos", "equal.min_mbps", 2, 33.6, kNoPaper},
    {"qos", "equal.max_mbps", 2, 34.4, kNoPaper},
    {"qos", "equal.rx_drops", 2, 0, kNoPaper},
    {"qos", "equal.aggregate_mbps", 10, 266.4, kNoPaper},
    {"qos", "equal.jain", 10, 0.999864748, kNoPaper},
    {"qos", "equal.min_mbps", 10, 32.8, kNoPaper},
    {"qos", "equal.max_mbps", 10, 33.6, kNoPaper},
    {"qos", "equal.rx_drops", 10, 0, kNoPaper},
    {"qos", "weighted.aggregate_mbps", 2, 307.2, kNoPaper},
    {"qos", "weighted.jain", 2, 0.764432648, kNoPaper},
    {"qos", "weighted.min_mbps", 2, 38.4, kNoPaper},
    {"qos", "weighted.max_mbps", 2, 144, kNoPaper},
    {"qos", "weighted.rx_drops", 2, 0, kNoPaper},
    {"qos", "weighted.tenant1_mbps", 2, 144, kNoPaper},
    {"qos", "weighted.tenant2_mbps", 2, 83.2, kNoPaper},
    {"qos", "weighted.tenant3_mbps", 2, 41.6, kNoPaper},
    {"qos", "weighted.tenant4_mbps", 2, 38.4, kNoPaper},
    {"chaos", "faults_fired", 1, 0, kNoPaper},
    {"chaos", "resets", 1, 0, kNoPaper},
    {"chaos", "arq_resyncs", 1, 0, kNoPaper},
    {"chaos", "violations", 1, 0, kNoPaper},
    {"chaos", "recovery_us_p99", 1, 0, kNoPaper},
    {"chaos", "faults_fired", 2, 10, kNoPaper},
    {"chaos", "resets", 2, 0, kNoPaper},
    {"chaos", "arq_resyncs", 2, 0, kNoPaper},
    {"chaos", "violations", 2, 0, kNoPaper},
    {"chaos", "recovery_us_p99", 2, 0, kNoPaper},
    {"chaos", "faults_fired", 3, 2, kNoPaper},
    {"chaos", "resets", 3, 0, kNoPaper},
    {"chaos", "arq_resyncs", 3, 0, kNoPaper},
    {"chaos", "violations", 3, 0, kNoPaper},
    {"chaos", "recovery_us_p99", 3, 0, kNoPaper},
    {"chaos", "faults_fired", 4, 0, kNoPaper},
    {"chaos", "resets", 4, 0, kNoPaper},
    {"chaos", "arq_resyncs", 4, 0, kNoPaper},
    {"chaos", "violations", 4, 0, kNoPaper},
    {"chaos", "recovery_us_p99", 4, 0, kNoPaper},
    {"chaos", "faults_fired", 5, 0, kNoPaper},
    {"chaos", "resets", 5, 0, kNoPaper},
    {"chaos", "arq_resyncs", 5, 0, kNoPaper},
    {"chaos", "violations", 5, 0, kNoPaper},
    {"chaos", "recovery_us_p99", 5, 0, kNoPaper},
    {"chaos", "faults_fired", 6, 5, kNoPaper},
    {"chaos", "resets", 6, 1, kNoPaper},
    {"chaos", "arq_resyncs", 6, 1, kNoPaper},
    {"chaos", "violations", 6, 0, kNoPaper},
    {"chaos", "recovery_us_p99", 6, 268.204724, kNoPaper},
    {"chaos", "faults_fired", 7, 0, kNoPaper},
    {"chaos", "resets", 7, 0, kNoPaper},
    {"chaos", "arq_resyncs", 7, 0, kNoPaper},
    {"chaos", "violations", 7, 0, kNoPaper},
    {"chaos", "recovery_us_p99", 7, 0, kNoPaper},
    {"chaos", "faults_fired", 8, 0, kNoPaper},
    {"chaos", "resets", 8, 0, kNoPaper},
    {"chaos", "arq_resyncs", 8, 0, kNoPaper},
    {"chaos", "violations", 8, 0, kNoPaper},
    {"chaos", "recovery_us_p99", 8, 0, kNoPaper},
    {"chaos", "faults_fired", 9, 0, kNoPaper},
    {"chaos", "resets", 9, 0, kNoPaper},
    {"chaos", "arq_resyncs", 9, 0, kNoPaper},
    {"chaos", "violations", 9, 0, kNoPaper},
    {"chaos", "recovery_us_p99", 9, 0, kNoPaper},
    {"chaos", "faults_fired", 10, 4, kNoPaper},
    {"chaos", "resets", 10, 0, kNoPaper},
    {"chaos", "arq_resyncs", 10, 0, kNoPaper},
    {"chaos", "violations", 10, 0, kNoPaper},
    {"chaos", "recovery_us_p99", 10, 0, kNoPaper},
    {"chaos", "faults_fired", 11, 5, kNoPaper},
    {"chaos", "resets", 11, 0, kNoPaper},
    {"chaos", "arq_resyncs", 11, 0, kNoPaper},
    {"chaos", "violations", 11, 0, kNoPaper},
    {"chaos", "recovery_us_p99", 11, 0, kNoPaper},
    {"chaos", "faults_fired", 12, 1, kNoPaper},
    {"chaos", "resets", 12, 0, kNoPaper},
    {"chaos", "arq_resyncs", 12, 0, kNoPaper},
    {"chaos", "violations", 12, 0, kNoPaper},
    {"chaos", "recovery_us_p99", 12, 0, kNoPaper},
};

bool near(double measured, double pinned) {
  return std::abs(measured - pinned) <= 1e-6 * std::abs(pinned);
}

bool same_paper(double paper, double pinned) {
  return std::isnan(pinned) ? std::isnan(paper) : paper == pinned;
}

std::string pin_line(const Experiment& e, const Row& r) {
  char paper[32] = "kNoPaper";
  if (!std::isnan(r.paper)) std::snprintf(paper, sizeof paper, "%g", r.paper);
  char line[256];
  std::snprintf(line, sizeof line, "    {\"%s\", \"%s\", %g, %.9g, %s},\n",
                e.name.c_str(), r.series.c_str(), r.x, r.measured, paper);
  return line;
}

// Checks every row of `e` against its pin and that every pin of `e` has a
// row; on a mismatch, prints all of `e`'s rows in kPins syntax.
void expect_pinned(const Experiment& e) {
  bool failed = false;
  std::size_t pins = 0;
  for (const Pin& p : kPins) pins += e.name == p.experiment;
  std::size_t matched = 0;
  for (const Row& r : e.rows) {
    const Pin* pin = nullptr;
    for (const Pin& p : kPins) {
      if (e.name == p.experiment && r.series == p.series && r.x == p.x) pin = &p;
    }
    if (pin == nullptr) {
      ADD_FAILURE() << e.name << " " << r.series << " x=" << r.x
                    << ": no pin (measured " << r.measured << ")";
      failed = true;
      continue;
    }
    ++matched;
    if (!near(r.measured, pin->measured) || !same_paper(r.paper, pin->paper)) {
      ADD_FAILURE() << std::setprecision(9) << e.name << " " << r.series
                    << " x=" << r.x << ": measured " << r.measured << ", pinned "
                    << pin->measured << " (paper " << r.paper << ", pinned "
                    << pin->paper << ")";
      failed = true;
    }
  }
  if (matched != pins) {
    ADD_FAILURE() << e.name << ": " << pins << " pins, but " << matched
                  << " rows match one";
    failed = true;
  }
  if (failed) {
    std::string rows;
    for (const Row& r : e.rows) rows += pin_line(e, r);
    ADD_FAILURE() << e.name << " rows, in kPins syntax:\n" << rows;
  }
}

double at(const Experiment& e, const std::string& series, double x) {
  return e.at(series, x).measured;
}

const Experiment& table1() {
  static const Experiment e = experiments::table1_latency();
  return e;
}

TEST(Calibration, TurboChannelDmaBoundsMatchPaperExactly) {
  sim::Engine eng;
  tc::TurboChannel bus(eng);
  // §2.5.1: 44-byte transfers -> 367 (read) / 463 (write) Mbps;
  //         88-byte transfers -> 503 / 587 Mbps.
  const auto rate = [&](sim::Duration per, std::uint32_t bytes) {
    return static_cast<double>(bytes) * 8.0 / (sim::to_ns(per));  // Gbps
  };
  EXPECT_NEAR(rate(bus.dma_read_cost(44), 44) * 1000, 367, 1.0);
  EXPECT_NEAR(rate(bus.dma_write_cost(44), 44) * 1000, 463, 1.0);
  EXPECT_NEAR(rate(bus.dma_read_cost(88), 88) * 1000, 503, 1.0);
  EXPECT_NEAR(rate(bus.dma_write_cost(88), 88) * 1000, 587, 1.0);
}

TEST(Calibration, InterruptServiceCostsMatchPaper) {
  const auto m5 = host::decstation_5000_200();
  EXPECT_EQ(m5.interrupt_service, sim::us(75));  // §2.1.2
}

TEST(Calibration, Table1RoundTripLatencies) {
  const Experiment& t = table1();
  expect_pinned(t);
  for (const double bytes : {1, 1024, 2048, 4096}) {
    for (const char* proto : {"_atm", "_udp"}) {
      EXPECT_GT(at(t, std::string("5000_200") + proto, bytes),
                at(t, std::string("3000_600") + proto, bytes))
          << proto << " " << bytes << "B";
    }
    for (const char* machine : {"5000_200", "3000_600"}) {
      EXPECT_GT(at(t, std::string(machine) + "_udp", bytes),
                at(t, std::string(machine) + "_atm", bytes))
          << machine << " " << bytes << "B";
    }
  }
  ASSERT_TRUE(t.pdu_latency.has_value());
  const experiments::PduLatency& lat = *t.pdu_latency;
  EXPECT_EQ(lat.pdus, 400u);
  for (const double us : {lat.e2e_us_p50, lat.e2e_us_p90, lat.e2e_us_p99,
                          lat.e2e_us_p999}) {
    EXPECT_PRED2(near, us, 191.406337);
  }
  const std::pair<std::string, double> stages[] = {
      {"enqueue_to_dpram", 39.26}, {"segment", 27.866337}, {"wire", 2},
      {"reassemble", 22.56},       {"rx_dma", 24.12},      {"deliver", 120.16}};
  ASSERT_EQ(lat.stage_us_p50.size(), std::size(stages));
  for (std::size_t i = 0; i < std::size(stages); ++i) {
    EXPECT_EQ(lat.stage_us_p50[i].first, stages[i].first);
    EXPECT_PRED2(near, lat.stage_us_p50[i].second, stages[i].second)
        << stages[i].first;
  }
}

struct LatencyCase {
  const char* series;
  std::uint32_t bytes;
  double tolerance;  // fraction of the paper value
};

// Names each case, and so its ctest name, e.g. 5000_200_udp_4096B.
void PrintTo(const LatencyCase& c, std::ostream* os) {
  *os << c.series << "_" << c.bytes << "B";
}

class Table1Test : public ::testing::TestWithParam<LatencyCase> {};

TEST_P(Table1Test, RoundTripNearPaper) {
  const LatencyCase& p = GetParam();
  const Row& r = table1().at(p.series, p.bytes);
  EXPECT_NEAR(r.measured, r.paper, r.paper * p.tolerance);
}

// Fixed (1-byte) latencies match closely; the slope for larger messages
// is set by the per-cell pipeline bottleneck, which this model
// underestimates relative to the paper (see EXPERIMENTS.md), hence the
// wider tolerance at 4 KB.
INSTANTIATE_TEST_SUITE_P(
    Table1, Table1Test,
    ::testing::Values(LatencyCase{"5000_200_atm", 1, 0.15},
                      LatencyCase{"5000_200_udp", 1, 0.15},
                      LatencyCase{"3000_600_atm", 1, 0.15},
                      LatencyCase{"3000_600_udp", 1, 0.15},
                      LatencyCase{"5000_200_atm", 4096, 0.45},
                      LatencyCase{"3000_600_atm", 4096, 0.45},
                      LatencyCase{"5000_200_udp", 4096, 0.45},
                      LatencyCase{"3000_600_udp", 4096, 0.45}));

TEST(Calibration, Fig2ReceivePlateaus5000_200) {
  const Experiment f = experiments::fig2_receive_5000();
  expect_pinned(f);
  for (const double kb : {16, 32, 64, 128}) {
    EXPECT_GT(at(f, "double_dma", kb), at(f, "single_dma", kb)) << kb << " KB";
    EXPECT_GT(at(f, "single_dma", kb), at(f, "eager_inval", kb)) << kb << " KB";
  }
  // Paper: single-cell DMA ~340 Mbps, double-cell ~379, eager
  // invalidation ~250 (16 KB messages and up).
  EXPECT_NEAR(at(f, "single_dma", 64), 340, 45);
  EXPECT_NEAR(at(f, "double_dma", 64), 379, 45);
  EXPECT_NEAR(at(f, "eager_inval", 64), 250, 40);
}

TEST(Calibration, Fig3ReceivePlateaus3000_600) {
  const Experiment f = experiments::fig3_receive_3000();
  expect_pinned(f);
  // Paper: double-cell approaches the 516 Mbps link payload bandwidth;
  // with UDP checksumming it drops to ~438 Mbps.
  const double plain = at(f, "double_dma", 64);
  const double cs = at(f, "double_dma_cksum", 64);
  EXPECT_NEAR(plain, 505, 35);
  EXPECT_NEAR(cs, 438, 50);
  EXPECT_LT(cs, plain);
}

TEST(Calibration, Fig4TransmitPlateau) {
  const Experiment f = experiments::fig4_transmit();
  expect_pinned(f);
  // Paper: ~325 Mbps, limited by single-cell DMA TURBOchannel overhead.
  const double alpha = at(f, "3000_600", 64);
  const double mips = at(f, "5000_200", 64);
  EXPECT_NEAR(alpha, 325, 45);
  EXPECT_LT(mips, alpha);
  EXPECT_GT(mips, 180);
}

TEST(Calibration, CpuTouchingDataCollapsesThroughputOn5000_200) {
  const Experiment c = experiments::cache();
  expect_pinned(c);
  // §4: reading the data (UDP checksum) on the DECstation drops receive
  // throughput to ~80 Mbps due to limited memory bandwidth.
  EXPECT_NEAR(at(c, "lazy_cksum", 64), 80, 30);
  // §2.3: lazy invalidation beats eager, and no stale data is ever read.
  EXPECT_GT(at(c, "lazy", 64), at(c, "eager", 64));
  EXPECT_EQ(at(c, "sustained.stale_reads", 16), 0);
}

TEST(Calibration, DmaLengthBoundsShowDiminishingReturns) {
  const Experiment d = experiments::dma_length();
  expect_pinned(d);
  // §2.5.1: the first doubling of the transaction length gains the most.
  for (const char* s : {"read_mbps", "write_mbps"}) {
    EXPECT_NEAR(at(d, s, 1), d.at(s, 1).paper, 1.0) << s;
    EXPECT_NEAR(at(d, s, 2), d.at(s, 2).paper, 1.0) << s;
    for (double cells = 2; cells < 8; ++cells) {
      EXPECT_GT(at(d, s, 2) - at(d, s, 1), at(d, s, cells + 1) - at(d, s, cells))
          << s << " " << cells << " cells";
    }
  }
  EXPECT_GT(at(d, "e2e_rx", 2), at(d, "e2e_rx", 1));
}

TEST(Calibration, InterruptsStayWellBelowOnePerPdu) {
  const Experiment i = experiments::interrupts();
  expect_pinned(i);
  // §2.1.2: one interrupt per burst of PDUs, never more than one per PDU.
  for (const char* m : {"5000_200", "3000_600"}) {
    for (const double kb : {2, 16, 64}) {
      EXPECT_LE(at(i, std::string(m) + ".irq_per_pdu", kb), 1.0) << m << " " << kb;
    }
    EXPECT_LT(at(i, std::string(m) + ".irq_per_pdu", 2), 0.2) << m;
  }
  // No transmit-completion interrupts: each one resumes a suspended send.
  EXPECT_EQ(at(i, "tx.interrupts", 16), at(i, "tx.suspensions", 16));
}

TEST(Calibration, LockFreeQueuesNeverWait) {
  const Experiment l = experiments::lockfree();
  expect_pinned(l);
  // §2.1.1: behind a spin lock, host and board serialize.
  EXPECT_GE(at(l, "spinlock.finish_us", 64), 3 * at(l, "lockfree.push_finish_us", 64));
}

TEST(Calibration, FragmentationProliferatesPhysicalBuffers) {
  const Experiment f = experiments::fragmentation();
  expect_pinned(f);
  // §2.2: up to 14 physical buffers for a 16 KB message at a 4 KB MTU;
  // aligning it and adding the header size to the MTU cuts the count.
  EXPECT_NEAR(at(f, "unaligned.bufs", 4096), 14, 1);
  EXPECT_LT(at(f, "aligned.bufs", 4124), at(f, "unaligned.bufs", 4096));
  EXPECT_LT(at(f, "aligned.bufs", 16412), at(f, "aligned.bufs", 4124));
}

TEST(Calibration, SkewCollapsesDoubleCellCombining) {
  const Experiment s = experiments::skew();
  expect_pinned(s);
  // §2.6: the combine fraction falls as skew grows; every message still
  // arrives intact under both reassembly strategies.
  const double skews[] = {0, 2, 5, 10, 20, 40, 80};
  for (const std::string strategy : {"seq", "quad"}) {
    for (std::size_t k = 0; k < std::size(skews); ++k) {
      EXPECT_EQ(at(s, strategy + ".intact", skews[k]), 1) << strategy;
      if (k > 0) {
        EXPECT_LT(at(s, strategy + ".combine_frac", skews[k]),
                  at(s, strategy + ".combine_frac", skews[k - 1]))
            << strategy << " " << skews[k] << " us";
      }
    }
    EXPECT_GT(at(s, strategy + ".combine_frac", 0), 0.9) << strategy;
    EXPECT_LT(at(s, strategy + ".combine_frac", 80), 0.01) << strategy;
  }
}

TEST(Calibration, DmaBeatsPioButLeavesTheCacheCold) {
  const Experiment d = experiments::dma_vs_pio();
  expect_pinned(d);
  // §2.7: DMA wins on these machines, but PIO leaves the data in the
  // cache, which DMA on the non-coherent 5000/200 does not.
  for (const std::string m : {"5000_200", "3000_600"}) {
    EXPECT_GT(at(d, m + ".dma_transfer", 32), 10 * at(d, m + ".pio_transfer", 32));
  }
  EXPECT_GT(at(d, "5000_200.pio_app_read", 32), at(d, "5000_200.dma_app_read", 32));
}

TEST(Calibration, CachedFbufsAreAnOrderOfMagnitudeFaster) {
  const Experiment f = experiments::fbuf();
  expect_pinned(f);
  // §3.1: a cached fbuf is at least 8x faster than an uncached one.
  for (const std::string m : {"5000_200", "3000_600"}) {
    EXPECT_GE(at(f, m + ".advantage", 2), 8) << m;
  }
}

TEST(Calibration, AdcLatencyMatchesKernelPath) {
  const Experiment a = experiments::adc();
  expect_pinned(a);
  // §4: ADC user-to-user latency within the error margins of
  // kernel-to-kernel; a user process behind the kernel pays more.
  for (const std::string m : {"5000_200", "3000_600"}) {
    for (const double bytes : {1, 1024, 4096}) {
      EXPECT_NEAR(at(a, m + ".adc", bytes), at(a, m + ".kernel", bytes),
                  0.05 * at(a, m + ".kernel", bytes))
          << m << " " << bytes << "B";
      EXPECT_GT(at(a, m + ".user_via_kernel", bytes), at(a, m + ".kernel", bytes))
          << m << " " << bytes << "B";
    }
  }
}

TEST(Calibration, FixedLengthDmaLeaksAndBreaksInterop) {
  const Experiment f = experiments::fixed_dma();
  expect_pinned(f);
  // §2.5.2: the original controller puts other memory on the wire and no
  // checksummed message survives; the page-boundary stop fixes both.
  EXPECT_EQ(at(f, "fixed.intact", 16), 0);
  EXPECT_GT(at(f, "fixed.leaked_bytes", 16), 0);
  EXPECT_EQ(at(f, "page_stop.intact", 16), 1);
  EXPECT_EQ(at(f, "page_stop.leaked_bytes", 16), 0);
}

TEST(Calibration, MachStandardWiringSlowsEverySend) {
  const Experiment w = experiments::wiring();
  expect_pinned(w);
  // §2.4: the standard service's page-table wiring costs far more than
  // the low-level fast path.
  for (const std::string m : {"5000_200", "3000_600"}) {
    for (const double kb : {4, 16, 64}) {
      EXPECT_GT(at(w, m + ".mach_us", kb), 1.5 * at(w, m + ".fast_us", kb))
          << m << " " << kb << " KB";
    }
  }
}

TEST(Calibration, EarlyDemuxShedsTheLaggingPathOnTheBoard) {
  const Experiment p = experiments::priority();
  expect_pinned(p);
  // §3.1: the path whose consumer keeps up gets every PDU; the lagging
  // path loses the rest on the board, and no dropped PDU reaches the host.
  EXPECT_EQ(at(p, "fast.delivered_pdus", 60), 60);
  EXPECT_EQ(at(p, "slow.delivered_pdus", 60) + at(p, "board_drops", 60), 60);
  EXPECT_GT(at(p, "board_drops", 60), 0);
  for (const std::string path : {"fast", "slow"}) {
    EXPECT_EQ(at(p, path + ".host_pdus", 60), at(p, path + ".delivered_pdus", 60))
        << path;
  }
  EXPECT_LT(at(p, "interrupts", 60),
            at(p, "fast.delivered_pdus", 60) + at(p, "slow.delivered_pdus", 60));
}

TEST(Calibration, ArqDegradesGracefullyUnderCellLoss) {
  const Experiment f = experiments::fault();
  expect_pinned(f);
  // §1: reliability above the adaptor. Every message arrives and the VCI
  // stays alive at every loss rate; retransmissions rise and goodput falls
  // step by step, with no cliff.
  const double loss[] = {0, 0.5, 1, 2, 5};
  for (std::size_t k = 0; k < std::size(loss); ++k) {
    EXPECT_EQ(at(f, "delivered", loss[k]), 1) << loss[k] << "%";
    EXPECT_EQ(at(f, "dead", loss[k]), 0) << loss[k] << "%";
    if (k > 0) {
      EXPECT_GT(at(f, "retransmissions", loss[k]),
                at(f, "retransmissions", loss[k - 1]))
          << loss[k] << "%";
      EXPECT_LT(at(f, "goodput_mbps", loss[k]), at(f, "goodput_mbps", loss[k - 1]))
          << loss[k] << "%";
    }
  }
}

TEST(Calibration, AdversarialTenantIsConfined) {
  const Experiment a = experiments::adc_isolation();
  expect_pinned(a);
  // §3.2: firmware checks plus OS policy quarantine the forger, and the
  // well-behaved tenants keep their goodput.
  EXPECT_EQ(at(a, "attacker.quarantined", 3), 1);
  for (const double tenant : {1, 2}) {
    EXPECT_NEAR(at(a, "adversary.goodput_mbps", tenant),
                at(a, "baseline.goodput_mbps", tenant),
                0.05 * at(a, "baseline.goodput_mbps", tenant))
        << "tenant " << tenant;
  }
}

TEST(Calibration, IncastStaysFairAndWeightsShareTheLink) {
  const Experiment q = experiments::qos();
  expect_pinned(q);
  // 10x overload costs no fairness and at most a fifth of the goodput
  // carried at 0.9x.
  EXPECT_GE(at(q, "equal.jain", 10), 0.9);
  EXPECT_GE(at(q, "equal.aggregate_mbps", 10) / at(q, "equal.aggregate_mbps", 0.9),
            0.8);
  // 4:2:1:1 at 2x: the weight-4 tenant gets what it offers (2 x 300 Mbps
  // over 4 tenants), and the rest of the link splits 2:1:1.
  EXPECT_GE(at(q, "weighted.tenant1_mbps", 2), 0.95 * (2 * 300.0 / 4));
  const double light =
      (at(q, "weighted.tenant3_mbps", 2) + at(q, "weighted.tenant4_mbps", 2)) / 2;
  EXPECT_GE(at(q, "weighted.tenant2_mbps", 2), 1.8 * light);
  EXPECT_LE(at(q, "weighted.tenant2_mbps", 2), 2.2 * light);
}

TEST(Calibration, ChaosSchedulesHoldEveryInvariant) {
  const Experiment c = experiments::chaos();
  expect_pinned(c);
  for (double seed = 1; seed <= 12; ++seed) {
    EXPECT_EQ(at(c, "violations", seed), 0) << "seed " << seed;
  }
}

}  // namespace
}  // namespace osiris
