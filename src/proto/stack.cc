#include "proto/stack.h"

#include <algorithm>
#include <stdexcept>

namespace osiris::proto {

namespace {

// ALU cycles per 32-bit word of the Internet checksum, on both machines.
constexpr double kChecksumAluCyclesPerWord = 2.0;

struct IpFields {
  std::uint32_t total;
  std::uint16_t id;
  std::uint32_t off;
  bool mf;
};

IpFields parse_ip_header(std::span<const std::uint8_t> h) {
  IpFields f{};
  f.total = (static_cast<std::uint32_t>(h[0]) << 24) |
            (static_cast<std::uint32_t>(h[1]) << 16) |
            (static_cast<std::uint32_t>(h[2]) << 8) | h[3];
  f.id = static_cast<std::uint16_t>((h[4] << 8) | h[5]);
  f.off = (static_cast<std::uint32_t>(h[6]) << 24) |
          (static_cast<std::uint32_t>(h[7]) << 16) |
          (static_cast<std::uint32_t>(h[8]) << 8) | h[9];
  f.mf = h[10] != 0;
  return f;
}

}  // namespace

std::uint16_t udp_checksum(std::span<const std::uint8_t, kUdpHeader> header,
                           std::span<const std::uint8_t> payload) {
  std::array<std::uint8_t, kUdpHeader> h{};
  std::copy(header.begin(), header.end(), h.begin());
  h[4] = h[5] = 0;  // the checksum field itself counts as zero
  atm::InternetChecksum c;
  c.update(h);
  c.update(payload);
  return c.value();
}

std::array<std::uint8_t, kIpHeader> make_ip_header(std::uint32_t frag_total,
                                                   std::uint16_t id,
                                                   std::uint32_t frag_off,
                                                   bool more_fragments) {
  std::array<std::uint8_t, kIpHeader> h{};
  h[0] = static_cast<std::uint8_t>(frag_total >> 24);
  h[1] = static_cast<std::uint8_t>(frag_total >> 16);
  h[2] = static_cast<std::uint8_t>(frag_total >> 8);
  h[3] = static_cast<std::uint8_t>(frag_total);
  h[4] = static_cast<std::uint8_t>(id >> 8);
  h[5] = static_cast<std::uint8_t>(id);
  h[6] = static_cast<std::uint8_t>(frag_off >> 24);
  h[7] = static_cast<std::uint8_t>(frag_off >> 16);
  h[8] = static_cast<std::uint8_t>(frag_off >> 8);
  h[9] = static_cast<std::uint8_t>(frag_off);
  h[10] = more_fragments ? 1 : 0;
  h[11] = 17;  // "UDP"
  return h;
}

ProtoStack::ProtoStack(sim::Engine& eng, const host::MachineConfig& mc,
                       host::HostCpu& cpu, mem::DataCache& cache,
                       mem::PhysicalMemory& pm, host::OsirisDriver& drv,
                       StackConfig cfg)
    : eng_(&eng),
      mc_(&mc),
      cpu_(&cpu),
      cache_(&cache),
      pm_(&pm),
      drv_(&drv),
      cfg_(cfg) {
  if (cfg_.ip_mtu <= kIpHeader) throw std::invalid_argument("MTU too small");
}

ProtoStack::~ProtoStack() {
  if (reset_hook_token_ >= 0) drv_->remove_reset_hook(reset_hook_token_);
}

void ProtoStack::attach() {
  drv_->set_rx_handler(
      [this](sim::Tick at, host::RxPduView& pdu) { return on_pdu(at, pdu); });
  if (reset_hook_token_ >= 0) drv_->remove_reset_hook(reset_hook_token_);
  reset_hook_token_ =
      drv_->add_reset_hook([this](sim::Tick) { on_driver_reset(); });
}

void ProtoStack::on_driver_reset() {
  // The adaptor reset invalidated every receive buffer and the driver
  // re-posts the whole pool itself, so retained buffers must be
  // FORGOTTEN, not released — releasing would double-post them. Partial
  // reassemblies die with their buffers; ARQ (if running) retransmits.
  reasm_.clear();
}

void ProtoStack::use_header_arena(mem::AddressSpace& space, std::size_t slots) {
  constexpr std::uint32_t kSlotBytes = 32;  // >= kIpHeader and kUdpHeader
  hdr_space_ = &space;
  hdr_slots_.clear();
  for (std::size_t i = 0; i < slots; ++i) {
    hdr_slots_.push_back(space.alloc(kSlotBytes));
  }
}

std::vector<mem::PhysBuffer> ProtoStack::header_buffers() const {
  std::vector<mem::PhysBuffer> out;
  for (const mem::VirtAddr va : hdr_slots_) {
    const auto sc = hdr_space_->scatter(va, 32);
    out.insert(out.end(), sc.begin(), sc.end());
  }
  return out;
}

void ProtoStack::write_through(mem::AddressSpace& space, mem::VirtAddr va,
                               std::span<const std::uint8_t> bytes) {
  std::size_t done = 0;
  for (const auto& pb :
       space.scatter(va, static_cast<std::uint32_t>(bytes.size()))) {
    cache_->cpu_write(pb.addr, bytes.subspan(done, pb.len));
    done += pb.len;
  }
}

void ProtoStack::add_header(Message& m, std::span<const std::uint8_t> bytes) {
  if (hdr_slots_.empty()) {
    m.push_header(bytes);
    return;
  }
  const mem::VirtAddr slot = hdr_slots_[next_hdr_ % hdr_slots_.size()];
  ++next_hdr_;
  write_through(*hdr_space_, slot, bytes);
  m.push_view(slot, static_cast<std::uint32_t>(bytes.size()));
}

sim::Tick ProtoStack::checksum_cost(sim::Tick at, const mem::AccessCost& c,
                                    std::uint64_t bytes) {
  return cpu_->exec(
      at, host::Work{mc_->cache_cpu_time(c, bytes, kChecksumAluCyclesPerWord),
                     c.mem_words});
}

sim::Tick ProtoStack::send(sim::Tick at, atm::Vci vci, const Message& payload) {
  if (cfg_.mode == StackMode::kRawAtm) {
    const auto sc = payload.scatter();
    bufs_per_pdu_.add(static_cast<double>(sc.size()));
    return drv_->send(at, vci, sc);
  }

  sim::Tick t = at;
  Message pkt = payload;

  // UDP header, with a real checksum over the payload when enabled.
  std::array<std::uint8_t, kUdpHeader> udph{};
  if (cfg_.udp_checksum) {
    std::vector<std::uint8_t> data(pkt.length());
    mem::AccessCost cost;
    std::size_t done = 0;
    for (const auto& pb : pkt.scatter()) {
      cost += cache_->cpu_read(pb.addr, {data.data() + done, pb.len});
      done += pb.len;
    }
    const std::uint16_t ck = udp_checksum(udph, data);
    udph[4] = static_cast<std::uint8_t>(ck >> 8);
    udph[5] = static_cast<std::uint8_t>(ck);
    t = checksum_cost(t, cost, data.size());
  }
  add_header(pkt, udph);
  t = cpu_->exec(t, host::Work{mc_->proto_udp, 0});

  // IP-like fragmentation at the configured MTU.
  const std::uint32_t frag_data = cfg_.ip_mtu - kIpHeader;
  const std::uint32_t total = pkt.length();
  const std::uint16_t id = next_ip_id_++;
  for (std::uint32_t off = 0; off < total; off += frag_data) {
    const std::uint32_t n = std::min(frag_data, total - off);
    Message frag = pkt.slice(off, n);
    const auto iph = make_ip_header(n + kIpHeader, id, off, off + n < total);
    add_header(frag, iph);
    t = cpu_->exec(t, host::Work{mc_->proto_ip, 0});
    const auto sc = frag.scatter();
    bufs_per_pdu_.add(static_cast<double>(sc.size()));
    t = drv_->send(t, vci, sc);
  }
  return t;
}

sim::Tick ProtoStack::on_pdu(sim::Tick at, host::RxPduView& pdu) {
  if (cfg_.mode == StackMode::kRawAtm) {
    std::vector<std::uint8_t> data(pdu.pdu_len);
    pdu.read_raw(*pm_, 0, data);
    ++delivered_;
    if (sink_) sink_(at, pdu.vci, std::move(data));
    return at;
  }

  sim::Tick t = cpu_->exec(at, host::Work{mc_->proto_ip, 0});
  if (pdu.pdu_len < kIpHeader) {
    ++reassembly_drops_;
    return t;
  }
  std::array<std::uint8_t, kIpHeader> iph;
  pdu.read_raw(*pm_, 0, iph);
  const IpFields f = parse_ip_header(iph);
  // The IP length is authoritative: link-level padding beyond it (e.g.
  // from fixed-length DMA, §2.5.2) is tolerated; a PDU SHORTER than its
  // header claims is corrupt.
  if (f.total > pdu.pdu_len || f.total < kIpHeader) {
    ++reassembly_drops_;
    return t;
  }

  Fragment frag;
  frag.offset = f.off;
  frag.data.resize(f.total - kIpHeader);
  if (cfg_.udp_checksum) {
    // Touch the data through the cache: this is where the paper's stale-
    // cache bytes would surface on a non-coherent machine.
    mem::AccessCost cost;
    pdu.read_cached(*cache_, kIpHeader, frag.data, cost);
    t = checksum_cost(t, cost, frag.data.size());
    frag.retained = std::move(pdu.bufs);  // keep until verification
  } else {
    pdu.read_raw(*pm_, kIpHeader, frag.data);
  }

  const std::uint64_t key =
      (static_cast<std::uint64_t>(pdu.vci) << 32) | f.id;
  Reassembly& r = reasm_[key];
  if (!f.mf) r.total = f.off + static_cast<std::uint32_t>(frag.data.size());
  if (r.frags.contains(f.off)) {
    ++reassembly_drops_;  // duplicate fragment
    if (!frag.retained.empty()) t = drv_->release(t, frag.retained);
    return t;
  }
  r.have += static_cast<std::uint32_t>(frag.data.size());
  r.frags.emplace(f.off, std::move(frag));

  if (r.total != 0 && r.have == r.total) {
    Reassembly done = std::move(r);
    reasm_.erase(key);
    t = deliver_udp(t, pdu.vci, std::move(done));
  }
  return t;
}

sim::Tick ProtoStack::deliver_udp(sim::Tick at, atm::Vci vci, Reassembly&& r) {
  sim::Tick t = cpu_->exec(at, host::Work{mc_->proto_udp, 0});
  const auto release_all = [&] {
    for (auto& [off, f] : r.frags) {
      if (!f.retained.empty()) t = drv_->release(t, f.retained);
    }
  };
  if (r.have < kUdpHeader) {
    ++reassembly_drops_;
    release_all();
    return t;
  }

  // The datagram's fragments, in offset order, are its UDP header and then
  // its payload. The header is kept apart and the payload copied once, into
  // the vector the sink takes.
  std::array<std::uint8_t, kUdpHeader> header{};
  std::vector<std::uint8_t> payload;
  payload.reserve(r.have - kUdpHeader);
  const auto gather = [&] {
    payload.clear();
    std::size_t in_header = 0;
    for (const auto& [off, f] : r.frags) {
      const std::size_t n = std::min(f.data.size(), header.size() - in_header);
      std::copy_n(f.data.begin(), n, header.begin() + in_header);
      in_header += n;
      payload.insert(payload.end(), f.data.begin() + static_cast<std::ptrdiff_t>(n),
                     f.data.end());
    }
  };
  gather();

  bool ok = true;
  if (cfg_.udp_checksum) {
    const auto want = static_cast<std::uint16_t>((header[4] << 8) | header[5]);
    if (udp_checksum(header, payload) != want) {
      // Lazy cache invalidation recovery (§2.3): invalidate the buffers,
      // re-read from main memory, and re-evaluate before declaring error.
      for (auto& [off, f] : r.frags) {
        host::RxPduView v;
        v.bufs = f.retained;
        t = drv_->recover_stale(t, v);
        mem::AccessCost cost;
        host::RxPduView v2;
        v2.bufs = f.retained;
        v2.pdu_len = static_cast<std::uint32_t>(f.data.size()) + kIpHeader;
        v2.wire_len = v2.pdu_len + atm::kTrailerBytes;
        v2.read_cached(*cache_, kIpHeader, f.data, cost);
        t = checksum_cost(t, cost, f.data.size());
      }
      gather();
      if (udp_checksum(header, payload) == want) {
        ++stale_recoveries_;
      } else {
        ok = false;  // genuine corruption (e.g. wire bit error)
        ++cksum_failures_;
      }
    }
  }

  release_all();
  if (!ok) return t;

  ++delivered_;
  if (sink_) sink_(t, vci, std::move(payload));
  return t;
}

}  // namespace osiris::proto
