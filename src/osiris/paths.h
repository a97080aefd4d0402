// x-kernel path management (§3.1).
//
// "The x-kernel provides a mechanism for establishing a path through the
// protocol graph ... Each path is then bound to an unused VCI by the
// device driver. This means that we treat VCIs as a fairly abundant
// resource; each of the potentially hundreds of paths (connections) on a
// given host is bound to a VCI for the duration of the path."
//
// PathManager owns that binding for a two-node testbed: it allocates VCIs,
// maps them into both receive processors (plain kernel buffering, or a
// per-path fbuf pool for early demultiplexing into pre-mapped buffers),
// and tears them down on close.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "fbuf/fbuf.h"
#include "osiris/node.h"

namespace osiris {

class PathManager {
 public:
  explicit PathManager(Testbed& tb, atm::Vci first_vci = 1000)
      : tb_(&tb), next_vci_(first_vci) {}

  /// Opens a bidirectional kernel-buffered path; returns its VCI.
  atm::Vci open();

  /// Opens a path whose receive side (on each node) draws from a per-path
  /// cached fbuf pool spanning `domains`. Returns its VCI.
  atm::Vci open_fbuf(fbuf::FbufPool& pool_a, fbuf::FbufPool& pool_b,
                          const std::vector<fbuf::DomainId>& domains);

  /// Unbinds the VCI on both nodes. Throws if the path is not open.
  void close(atm::Vci vci);

  [[nodiscard]] bool is_open(atm::Vci vci) const {
    return paths_.contains(vci);
  }
  [[nodiscard]] std::size_t open_count() const { return paths_.size(); }

 private:
  struct PathInfo {
    bool fbuf = false;
  };

  atm::Vci alloc_vci();

  Testbed* tb_;
  atm::Vci next_vci_;
  std::map<atm::Vci, PathInfo> paths_;
};

}  // namespace osiris
