// TURBOchannel model tests: transaction costing and calendar contention,
// and the host CPU, which books its work in order instead.
#include <gtest/gtest.h>

#include "host/machine.h"
#include "sim/engine.h"
#include "tc/turbochannel.h"

namespace osiris::tc {
namespace {

TEST(TurboChannel, WordRounding) {
  sim::Engine eng;
  TurboChannel bus(eng);
  EXPECT_EQ(bus.words(1), 1u);
  EXPECT_EQ(bus.words(4), 1u);
  EXPECT_EQ(bus.words(5), 2u);
  EXPECT_EQ(bus.words(44), 11u);
  EXPECT_EQ(bus.words(88), 22u);
}

TEST(TurboChannel, DmaCostsMatchCycleArithmetic) {
  sim::Engine eng;
  TurboChannel bus(eng);
  // 25 MHz => 40 ns/cycle. Read: 13 + n cycles; write: 8 + n cycles.
  EXPECT_EQ(bus.dma_read_cost(44), sim::cycles(24, 25e6));
  EXPECT_EQ(bus.dma_write_cost(44), sim::cycles(19, 25e6));
  EXPECT_EQ(bus.dma_read_cost(88), sim::cycles(35, 25e6));
  EXPECT_EQ(bus.dma_write_cost(88), sim::cycles(30, 25e6));
}

TEST(TurboChannel, IntegerDmaCostsEqualTheCycleFormulaUpToAMebibyte) {
  // The costs multiply whole cycles by 40,000 ticks; the double formula
  // they replace gives the same tick for every transfer up to 1 MiB.
  sim::Engine eng;
  TurboChannel bus(eng);
  for (std::uint32_t bytes = 0; bytes <= (1u << 20); ++bytes) {
    const double w = bus.words(bytes);
    ASSERT_EQ(bus.dma_read_cost(bytes),
              sim::cycles(kDmaReadOverheadCycles + w, kClockHz))
        << bytes;
    ASSERT_EQ(bus.dma_write_cost(bytes),
              sim::cycles(kDmaWriteOverheadCycles + w, kClockHz))
        << bytes;
  }
}

TEST(TurboChannel, PaperBandwidthBounds) {
  sim::Engine eng;
  TurboChannel bus(eng);
  const auto mbps = [](std::uint32_t bytes, sim::Duration d) {
    return static_cast<double>(bytes) * 8.0 * 1e6 / static_cast<double>(d);
  };
  EXPECT_NEAR(mbps(44, bus.dma_read_cost(44)), 366.7, 0.5);
  EXPECT_NEAR(mbps(44, bus.dma_write_cost(44)), 463.2, 0.5);
  EXPECT_NEAR(mbps(88, bus.dma_read_cost(88)), 502.9, 0.5);
  EXPECT_NEAR(mbps(88, bus.dma_write_cost(88)), 586.7, 0.5);
}

TEST(TurboChannel, TransactionsSerialize) {
  sim::Engine eng;
  TurboChannel bus(eng);
  const sim::Tick t1 = bus.dma_write(0, 44);
  const sim::Tick t2 = bus.dma_write(0, 44);
  EXPECT_EQ(t2, 2 * t1);
  EXPECT_EQ(bus.dma_transactions(), 2u);
  EXPECT_EQ(bus.dma_bytes(), 88u);
}

TEST(TurboChannel, CpuMemoryContendsOnSerialBus) {
  sim::Engine eng;
  TurboChannel bus(eng);
  const sim::Tick dma_done = bus.dma_write(0, 4096);
  // CPU memory traffic requested at t=0 must wait for the transfer.
  const sim::Tick mem_done = bus.cpu_memory(0, 100);
  EXPECT_GE(mem_done, dma_done);
}

TEST(TurboChannel, PioCosts) {
  sim::Engine eng;
  TurboChannel bus(eng);
  EXPECT_EQ(bus.pio_read_cost(1), sim::cycles(15, 25e6));
  EXPECT_EQ(bus.pio_write_cost(1), sim::cycles(4, 25e6));
  EXPECT_EQ(bus.pio_read_cost(10), 10 * bus.pio_read_cost(1));
}

TEST(TurboChannel, LaterTransactionFitsEarlierGap) {
  // The calendar property that makes host/board interleaving honest.
  sim::Engine eng;
  TurboChannel bus(eng);
  bus.bus().reserve_at(sim::us(100), sim::us(10));  // future booking
  const sim::Tick t = bus.dma_write(0, 44);         // slots in before it
  EXPECT_LT(t, sim::us(100));
}

TEST(HostCpu, RunsWorkInBookingOrder) {
  // Unlike the bus above, the CPU is one sequential thread: work booked
  // after a later booking waits behind it, even though it is due earlier.
  sim::Engine eng;
  TurboChannel bus(eng);
  const host::MachineConfig mc = host::dec_3000_600();
  host::HostCpu cpu(eng, mc, bus);
  EXPECT_EQ(cpu.exec(sim::us(100), host::Work{sim::us(10), 0}), sim::us(110));
  EXPECT_EQ(cpu.exec(0, host::Work{sim::us(5), 0}), sim::us(115));
  EXPECT_EQ(cpu.pio(0, 1, 0), sim::us(115) + bus.pio_read_cost(1));
}

}  // namespace
}  // namespace osiris::tc
