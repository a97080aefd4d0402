// Kernel bypass with application device channels (§3.2).
//
// Opens an ADC for a "user process" on each machine: the OS maps one
// transmit/receive queue-pair page of the board's dual-port memory into
// the application, assigns it a VCI set and an authorized page list, and
// from then on the application drives the adaptor directly — the kernel
// only fields interrupts. Also demonstrates the protection story: a
// buffer outside the authorized list triggers an access-violation
// exception rather than letting the app DMA anywhere.
//
//   $ ./kernel_bypass
#include <cstdio>

#include "adc/adc.h"
#include "osiris/node.h"
#include "proto/message.h"

using namespace osiris;

int main() {
  Testbed tb(make_3000_600_config(), make_3000_600_config());

  // The OS opens channel pair 1 on each board for the application, with
  // VCI 700 and transmit priority 1 (the kernel's own pair is 0).
  proto::StackConfig sc;
  sc.mode = proto::StackMode::kRawAtm;  // app links its own protocol stack
  adc::Adc app_a(tb.a.adc_deps(), /*pair=*/1, {700}, /*priority=*/1, sc);
  adc::Adc app_b(tb.b.adc_deps(), /*pair=*/1, {700}, /*priority=*/1, sc);

  // Ping-pong entirely in user space.
  std::vector<std::uint8_t> data(2048);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::uint8_t>(i);
  }
  proto::Message ma = proto::Message::from_payload(app_a.space(), data);
  proto::Message mb = proto::Message::from_payload(app_b.space(), data);
  app_a.authorize(ma.scatter());  // the OS registers the app's pages
  app_b.authorize(mb.scatter());

  int remaining = 5;
  sim::Tick started = 0;
  sim::Summary rtts;
  app_b.set_sink([&](sim::Tick at, std::uint16_t v, std::vector<std::uint8_t>&&) {
    app_b.send(at, v, mb);  // echo, never entering the kernel
  });
  app_a.set_sink([&](sim::Tick at, std::uint16_t v, std::vector<std::uint8_t>&&) {
    rtts.add(sim::to_us(at - started));
    if (--remaining > 0) {
      started = at;
      app_a.send(at, v, ma);
    }
  });
  started = 0;
  app_a.send(0, 700, ma);
  tb.run();

  std::printf("user-to-user ping-pong over ADCs: %llu rounds, mean RTT %.1f us\n",
              static_cast<unsigned long long>(rtts.count()), rtts.mean());
  std::printf("kernel involvement: %llu interrupts fielded, zero syscalls, "
              "zero data copies\n",
              static_cast<unsigned long long>(tb.a.intc.raised() +
                                              tb.b.intc.raised()));

  // Protection: send from a buffer the OS never authorized.
  std::puts("");
  std::puts("now the application tries to transmit from an unauthorized page...");
  bool violation = false;
  app_a.set_violation_handler([&](sim::Tick at) {
    violation = true;
    std::printf("  t=%.1f us: OS raised an access-violation exception in the "
                "process (board refused the DMA)\n",
                sim::to_us(at));
  });
  proto::Message rogue =
      proto::Message::from_payload(app_a.space(), data);  // not authorized!
  app_a.send(tb.now(), 700, rogue);
  tb.run();
  std::printf("violation delivered: %s; ADC violations recorded: %llu\n",
              violation ? "yes" : "no",
              static_cast<unsigned long long>(app_a.violations()));
  return violation ? 0 : 1;
}
