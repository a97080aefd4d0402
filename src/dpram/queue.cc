#include "dpram/queue.h"

namespace osiris::dpram {
namespace {

void write_descriptor(DualPortRam& ram, Side side, const QueueLayout& lay,
                      std::uint32_t slot, const Descriptor& d) {
  const std::uint32_t w = lay.slot_word(slot);
  ram.write(side, w + 0, d.addr);
  ram.write(side, w + 1, d.len);
  // 24-bit VCI in the low bits, 8 flag bits above (see Descriptor docs).
  ram.write(side, w + 2,
            (d.vci & atm::kMaxVci) |
                (static_cast<std::uint32_t>(d.flags & 0xFF) << 24));
  ram.write(side, w + 3, d.user);
}

Descriptor read_descriptor(const DualPortRam& ram, Side side,
                           const QueueLayout& lay, std::uint32_t slot) {
  const std::uint32_t w = lay.slot_word(slot);
  Descriptor d;
  d.addr = ram.read(side, w + 0);
  d.len = ram.read(side, w + 1);
  const std::uint32_t vf = ram.read(side, w + 2);
  d.vci = vf & atm::kMaxVci;
  d.flags = static_cast<std::uint16_t>(vf >> 24);
  d.user = ram.read(side, w + 3);
  return d;
}

}  // namespace

bool QueueWriter::full() const {
  const std::uint32_t tail = ram_->read(side_, lay_.tail_word());
  return (head_ + 1) % lay_.capacity == tail;
}

std::uint32_t QueueWriter::size() const {
  const std::uint32_t tail = ram_->read(side_, lay_.tail_word());
  return (head_ + lay_.capacity - tail) % lay_.capacity;
}

OpResult QueueWriter::push(const Descriptor& d) {
  OpResult r;
  const std::uint32_t tail = ram_->read(side_, lay_.tail_word());
  ++r.ram_accesses;
  if ((head_ + 1) % lay_.capacity == tail) return r;  // full
  Descriptor sealed = d;
  const std::uint32_t seal =
      lap_odd_ ? 0u : static_cast<std::uint32_t>(kDescLapSeal);
  sealed.flags =
      static_cast<std::uint16_t>((sealed.flags & ~kDescLapSeal) | seal);
  write_descriptor(*ram_, side_, lay_, head_, sealed);
  ram_->maybe_corrupt(side_, lay_.slot_word(head_), kDescriptorWords);
  r.ram_accesses += kDescriptorWords;
  head_ = (head_ + 1) % lay_.capacity;
  if (head_ == 0) lap_odd_ = !lap_odd_;
  ram_->write(side_, lay_.head_word(), head_);
  ++r.ram_accesses;
  r.ok = true;
  return r;
}

namespace {

// Reset-time scrub: every word is written TWICE so that a subsequent
// glitched (kDpramStale) read — which returns the value before the most
// recent write — still sees zero, and cannot resurrect pre-reset cursors
// or lap seals.
void scrub_queue(DualPortRam& ram, Side side, const QueueLayout& lay) {
  for (int pass = 0; pass < 2; ++pass) {
    ram.write(side, lay.head_word(), 0);
    ram.write(side, lay.tail_word(), 0);
    ram.write(side, lay.ctrl_word(), 0);
    for (std::uint32_t s = 0; s < lay.capacity; ++s) {
      ram.write(side, lay.slot_word(s) + 2, 0);  // vci/flags word: lap seal
    }
  }
}

}  // namespace

void QueueWriter::reset() {
  head_ = 0;
  lap_odd_ = false;
  scrub_queue(*ram_, side_, lay_);
}

void QueueReader::reset() {
  tail_ = 0;
  lap_odd_ = false;
  ram_->write(side_, lay_.tail_word(), 0);
  ram_->write(side_, lay_.tail_word(), 0);
}

void QueueReader::reset_all() {
  tail_ = 0;
  lap_odd_ = false;
  scrub_queue(*ram_, side_, lay_);
}

bool QueueReader::empty() const {
  return ram_->read(side_, lay_.head_word()) == tail_;
}

std::uint32_t QueueReader::size() const {
  const std::uint32_t head = ram_->read(side_, lay_.head_word());
  return (head + lay_.capacity - tail_) % lay_.capacity;
}

std::optional<Descriptor> QueueReader::peek_at(std::uint32_t k, OpResult* res) const {
  OpResult r;
  const std::uint32_t head = ram_->read(side_, lay_.head_word());
  ++r.ram_accesses;
  const std::uint32_t avail = (head + lay_.capacity - tail_) % lay_.capacity;
  if (k >= avail) {
    if (res != nullptr) *res = r;
    return std::nullopt;
  }
  Descriptor d =
      read_descriptor(*ram_, side_, lay_, (tail_ + k) % lay_.capacity);
  r.ram_accesses += kDescriptorWords;
  // The head word is advisory: a glitched (stale) read near wrap-around
  // can claim entries the writer never published. Only the lap seal
  // stamped into the descriptor itself proves ownership.
  if (((d.flags & kDescLapSeal) != 0) != seal_expected(k)) {
    if (res != nullptr) *res = r;
    return std::nullopt;
  }
  d.flags = static_cast<std::uint16_t>(d.flags & ~kDescLapSeal);
  r.ok = true;
  if (res != nullptr) *res = r;
  return d;
}

std::uint32_t QueueReader::consume(std::uint32_t n) {
  if (tail_ + n >= lay_.capacity) lap_odd_ = !lap_odd_;
  tail_ = (tail_ + n) % lay_.capacity;
  return tail_;
}

void QueueReader::publish(std::uint32_t tail_value) {
  ram_->write(side_, lay_.tail_word(), tail_value);
}

std::optional<Descriptor> QueueReader::pop(OpResult* res) {
  OpResult r;
  const std::uint32_t head = ram_->read(side_, lay_.head_word());
  ++r.ram_accesses;
  if (head == tail_) {
    if (res != nullptr) *res = r;
    return std::nullopt;
  }
  Descriptor d = read_descriptor(*ram_, side_, lay_, tail_);
  r.ram_accesses += kDescriptorWords;
  if (((d.flags & kDescLapSeal) != 0) != seal_expected(0)) {
    // Stale head word claimed an entry the writer never published; do not
    // consume — the slot still belongs to the writer.
    if (res != nullptr) *res = r;
    return std::nullopt;
  }
  d.flags = static_cast<std::uint16_t>(d.flags & ~kDescLapSeal);
  tail_ = (tail_ + 1) % lay_.capacity;
  if (tail_ == 0) lap_odd_ = !lap_odd_;
  ram_->write(side_, lay_.tail_word(), tail_);
  ++r.ram_accesses;
  r.ok = true;
  if (res != nullptr) *res = r;
  return d;
}

}  // namespace osiris::dpram
