#include "osiris/node.h"

namespace osiris {

Node::Node(sim::Engine& engine, NodeConfig c)
    : eng(engine),
      cfg(std::move(c)),
      pm(cfg.mem_bytes),
      frames(cfg.mem_bytes, cfg.interleave_frames, cfg.seed),
      cache(pm, cfg.machine.cache),
      bus(eng),
      ram(),
      cpu(eng, cfg.machine, bus),
      intc(eng, cfg.machine, cpu),
      out(eng, cfg.link),
      txp(eng, cfg.board, bus, pm, ram, out),
      rxp(eng, cfg.board, bus, cache, ram),
      kernel_space(pm, frames, cfg.machine.name + ".kernel"),
      kernel_layout(dpram::channel_layout(0)),
      driver(eng, cfg.machine, cpu, intc, bus, pm, cache, frames, ram, txp,
             kernel_layout, cfg.driver) {
  txp.set_irq_sink([this](board::Irq irq, int ch) { intc.raise(irq, ch); });
  rxp.set_irq_sink([this](board::Irq irq, int ch) { intc.raise(irq, ch); });
  txp.set_trace(cfg.trace);
  rxp.set_trace(cfg.trace);
  driver.set_trace(cfg.trace);
  if (cfg.spans != nullptr) {
    txp.set_spans(cfg.spans);
    rxp.set_spans(cfg.spans);
    driver.set_spans(cfg.spans, /*tx_channel=*/0);
  }
  driver.bind_rx(&rxp);
  if (cfg.faults != nullptr) {
    pm.set_fault_plane(cfg.faults);
    ram.set_fault_plane(cfg.faults);
    txp.set_fault_plane(cfg.faults);
    rxp.set_fault_plane(cfg.faults);
    intc.set_fault_plane(cfg.faults);
    driver.set_fault_plane(cfg.faults);
  }

  txp.add_queue(0, kernel_layout.tx, /*priority=*/0, nullptr);
  kernel_channel = rxp.add_channel(kernel_layout, nullptr, 0);

  driver.attach(0);
}

void Node::map_kernel_vci(atm::Vci vci) {
  rxp.map_vci(vci, kernel_channel);
}

void Node::start_watchdog(sim::Duration period, sim::Duration deadline,
                          sim::Tick until) {
  txp.start_heartbeat(period / 2, until);
  rxp.start_heartbeat(period / 2, until);
  driver.start_watchdog(period, deadline, until);
}

adc::Adc::Deps Node::adc_deps() {
  return adc::Adc::Deps{eng,   cfg.machine, cpu, intc, bus, pm,
                        cache, frames,      ram, txp,  rxp};
}

std::unique_ptr<proto::ProtoStack> Node::make_stack(proto::StackConfig scfg) {
  auto s = std::make_unique<proto::ProtoStack>(eng, cfg.machine, cpu, cache,
                                               pm, driver, scfg);
  s->attach();
  return s;
}

Testbed::Testbed(NodeConfig ca, NodeConfig cb)
    : a(eng, std::move(ca)), b(eng, std::move(cb)) {
  a.out.set_sink([this](int lane, const atm::Cell& cell) { b.rxp.on_cell(lane, cell); });
  b.out.set_sink([this](int lane, const atm::Cell& cell) { a.rxp.on_cell(lane, cell); });
}

atm::Vci Testbed::open_kernel_path() {
  const atm::Vci vci = next_vci_++;
  a.map_kernel_vci(vci);
  b.map_kernel_vci(vci);
  return vci;
}

NodeConfig make_5000_200_config() {
  NodeConfig c;
  c.machine = host::decstation_5000_200();
  return c;
}

NodeConfig make_3000_600_config() {
  NodeConfig c;
  c.machine = host::dec_3000_600();
  return c;
}

}  // namespace osiris
