#include "fault/fault.h"

#include <sstream>

namespace osiris::fault {

void FaultPlane::arm(Point p, FaultSpec spec) {
  Slot& s = slot(p);
  s.spec = spec;
  s.armed = true;
  s.consulted = 0;
  s.fired = 0;
}

void FaultPlane::disarm(Point p) { slot(p).armed = false; }

bool FaultPlane::fires(Point p) {
  Slot& s = slot(p);
  if (!s.armed) return false;
  ++s.consulted;
  ++s.lifetime_consulted;
  // budget == 0 is "armed but inert" — it must never fire, including on a
  // spec whose `after` matches the very first consultation.
  if (s.spec.budget == 0 || s.fired >= s.spec.budget) return false;
  // Outside the consultation window the dice are not rolled at all, so the
  // RNG draw sequence inside the window is independent of where the window
  // starts (replaying a shrunk schedule stays deterministic).
  if (s.spec.window_from > 0 && s.consulted < s.spec.window_from) return false;
  if (s.spec.window_until > 0 && s.consulted > s.spec.window_until) return false;
  const bool hit = (s.spec.after != 0 && s.consulted == s.spec.after) ||
                   (s.spec.probability > 0.0 && rng_.chance(s.spec.probability));
  if (hit) {
    ++s.fired;
    ++s.lifetime_fired;
  }
  return hit;
}

void FaultPlane::reset_stats() {
  for (Slot& s : slots_) {
    s.consulted = 0;
    s.fired = 0;
    s.lifetime_consulted = 0;
    s.lifetime_fired = 0;
  }
}

std::uint32_t FaultPlane::corrupt_word(std::uint32_t v) {
  return v ^ (1u << rng_.below(32));
}

std::uint64_t FaultPlane::total_fired() const {
  std::uint64_t n = 0;
  for (const Slot& s : slots_) n += s.fired;
  return n;
}

std::string FaultPlane::summary() const {
  std::ostringstream os;
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    const Slot& s = slots_[i];
    if (!s.armed && s.fired == 0) continue;
    os << point_name(static_cast<Point>(i)) << ": " << s.fired << "/"
       << s.consulted << " fired/consulted\n";
  }
  return os.str();
}

}  // namespace osiris::fault
