#include "adc/adc.h"

#include <stdexcept>

namespace osiris::adc {

Adc::Adc(const Deps& d, int pair_index, std::vector<atm::Vci> vcis,
         int priority, proto::StackConfig stack_cfg)
    : pair_(pair_index),
      vcis_(std::move(vcis)),
      txp_(&d.txp),
      rxp_(&d.rxp),
      intc_(&d.intc) {
  if (pair_index < 1 || pair_index >= static_cast<int>(dpram::kPagesPerHalf)) {
    throw std::invalid_argument("Adc: pair index must be 1..15");
  }
  space_ = std::make_unique<mem::AddressSpace>(d.pm, d.frames,
                                               "adc" + std::to_string(pair_index));

  const dpram::ChannelLayout lay =
      dpram::channel_layout(static_cast<std::uint32_t>(pair_index));

  // A reused pair index inherits whatever head/tail words the previous
  // tenant left in the dual-port RAM; with them non-zero, fresh endpoint
  // caches (which start at zero) would disagree with the rings. Open
  // re-initializes all three rings before either side attaches. Safe even
  // with the old tenant's completions still in flight: those check the
  // detached flag at fire time and never touch the rings.
  dpram::QueueWriter(d.ram, lay.tx, dpram::Side::kHost).reset();
  dpram::QueueWriter(d.ram, lay.free, dpram::Side::kHost).reset();
  dpram::QueueWriter(d.ram, lay.recv, dpram::Side::kBoard).reset();

  // The ADC channel driver: identical code to the kernel driver, with a
  // page-sized buffer pool (applications cannot allocate physically
  // contiguous multi-page buffers).
  host::OsirisDriver::Config dcfg;
  dcfg.rx_buffers = 32;
  dcfg.rx_buffer_bytes = mem::kPageSize;
  driver_ = std::make_unique<host::OsirisDriver>(
      d.eng, d.mc, d.cpu, d.intc, d.bus, d.pm, d.cache, d.frames, d.ram, d.txp,
      lay, dcfg);
  driver_->attach(pair_index);

  stack_ = std::make_unique<proto::ProtoStack>(d.eng, d.mc, d.cpu, d.cache,
                                               d.pm, *driver_, stack_cfg);
  stack_->attach();
  // Protocol headers must come from registered pages too: give the
  // app-linked stack a header arena and authorize it.
  stack_->use_header_arena(*space_);
  authorize(stack_->header_buffers());

  // The receive pool the driver just allocated belongs to this ADC's
  // authorized page list.
  authorize(driver_->buffer_pool());
  auto auth = [this](std::uint32_t addr, std::uint32_t len) {
    return allowed(addr, len);
  };

  d.txp.add_queue(pair_index, lay.tx, priority, auth, vcis_);
  const int channel = d.rxp.add_channel(lay, auth, pair_index);
  for (const atm::Vci vci : vcis_) d.rxp.map_vci(vci, channel);

  irq_token_ = d.intc.add_handler(board::Irq::kAccessViolation,
                                  [this](sim::Tick done, int ch) {
                                    if (ch != pair_) return;
                                    ++violations_;
                                    if (violation_handler_) violation_handler_(done);
                                  });
}

Adc::~Adc() { close(); }

void Adc::close() {
  if (closed_) return;
  closed_ = true;
  // Order matters: stop the board consuming/producing on the channel's
  // dpram pages and addresses first, then unhook the host-side handlers,
  // then release memory — the firmware must never DMA into freed frames.
  txp_->remove_queue(pair_);
  for (const atm::Vci vci : vcis_) rxp_->unmap_vci(vci);
  rxp_->remove_channel(pair_);
  if (irq_token_ >= 0) {
    intc_->remove_handler(irq_token_);
    irq_token_ = -1;
  }
  // Releases the pool frames, unwires in-flight transmit pages, and makes
  // scheduled driver events inert. The address space frees its own frames
  // (header arena, application buffers) when the Adc is destroyed.
  driver_->detach();
}

void Adc::set_fault_plane(fault::FaultPlane* f) {
  tenant_faults_ = f;
  driver_->set_tenant_fault_plane(f);
}

sim::Tick Adc::send(sim::Tick at, atm::Vci vci, const proto::Message& m) {
  if (dead_ || closed_) return at;
  if (fault::fires(tenant_faults_, fault::Point::kAdcGarbageDescriptor)) {
    // The application forges a descriptor on its mapped transmit page
    // instead of going through the stack. Each flavour violates a
    // different firmware check.
    dpram::Descriptor g;
    g.vci = vci;
    g.flags = dpram::kDescEop;
    switch (tenant_faults_->roll(4)) {
      case 0:  // zero length
        g.addr = 0x1000;
        g.len = 0;
        break;
      case 1:  // absurd length (and wrapping range)
        g.addr = 0xFFFFF000u;
        g.len = 0x00100000u;
        break;
      case 2:  // VCI the channel doesn't own
        g.addr = 0x1000;
        g.len = 64;
        g.vci = (vci + 0x55) & atm::kMaxVci;
        break;
      default:  // page outside the authorized list (beyond physical memory)
        g.addr = 0xFFFF0000u;
        g.len = 64;
        break;
    }
    return driver_->post_raw(at, g);
  }
  if (fault::fires(tenant_faults_, fault::Point::kAdcAppDeath)) {
    // The process dies between pushing a descriptor and pushing the EOP:
    // a truncated chain sits in the queue forever (the firmware never
    // schedules an EOP-less chain), and nothing more comes from this
    // tenant until the OS reaps it with close().
    dpram::Descriptor part;
    part.addr = 0x1000;
    part.len = 64;
    part.vci = vci;
    part.flags = 0;  // no EOP — the chain never completes
    const sim::Tick t = driver_->post_raw(at, part);
    dead_ = true;
    return t;
  }
  if (fault::fires(tenant_faults_, fault::Point::kTenantBurst)) {
    // A misbehaving (or just greedy) application dumps a back-to-back
    // burst instead of pacing one PDU: the extra copies land in the same
    // transmit queue instantly. Board-side token buckets are what keep
    // this from stealing the link from well-behaved tenants.
    sim::Tick t = at;
    for (int i = 0; i < 4; ++i) t = stack_->send(t, vci, m);
    return t;
  }
  return stack_->send(at, vci, m);
}

void Adc::authorize(const std::vector<mem::PhysBuffer>& bufs) {
  for (const auto& b : bufs) {
    if (b.len == 0) continue;
    // 64-bit end math: a buffer ending at the top of the 32-bit physical
    // space must not wrap `addr + len - 1` back to page 0.
    const std::uint64_t last = static_cast<std::uint64_t>(b.addr) + b.len - 1;
    for (std::uint64_t p = mem::page_of(b.addr); p <= (last >> mem::kPageShift);
         ++p) {
      auth_frames_.insert(static_cast<std::uint32_t>(p));
    }
  }
}

bool Adc::allowed(std::uint32_t addr, std::uint32_t len) const {
  if (len == 0) return true;
  const std::uint64_t last = static_cast<std::uint64_t>(addr) + len - 1;
  if (last > 0xFFFFFFFFull) return false;  // range leaves the physical space
  for (std::uint64_t p = mem::page_of(addr); p <= (last >> mem::kPageShift);
       ++p) {
    if (!auth_frames_.contains(static_cast<std::uint32_t>(p))) return false;
  }
  return true;
}

}  // namespace osiris::adc
