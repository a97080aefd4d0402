#include "osiris/paths.h"

#include <stdexcept>
#include <string>

namespace osiris {

atm::Vci PathManager::alloc_vci() {
  // VCIs are abundant; scan past any that happen to be open already.
  for (int guard = 0; guard < (1 << 20); ++guard) {
    const atm::Vci vci = next_vci_++ & atm::kMaxVci;
    if (vci == 0) continue;  // reserve 0
    if (!paths_.contains(vci)) return vci;
  }
  throw std::runtime_error("PathManager: VCI space exhausted");
}

atm::Vci PathManager::open() {
  const atm::Vci vci = alloc_vci();
  tb_->a.map_kernel_vci(vci);
  tb_->b.map_kernel_vci(vci);
  paths_[vci] = PathInfo{false};
  return vci;
}

atm::Vci PathManager::open_fbuf(fbuf::FbufPool& pool_a,
                                     fbuf::FbufPool& pool_b,
                                     const std::vector<fbuf::DomainId>& domains) {
  const atm::Vci vci = alloc_vci();
  tb_->a.open_fbuf_path(pool_a, vci, domains);
  tb_->b.open_fbuf_path(pool_b, vci, domains);
  paths_[vci] = PathInfo{true};
  return vci;
}

void PathManager::close(atm::Vci vci) {
  const auto it = paths_.find(vci);
  if (it == paths_.end()) {
    throw std::invalid_argument("PathManager: close of unopened vci " +
                                std::to_string(vci));
  }
  tb_->a.rxp.unmap_vci(vci);
  tb_->b.rxp.unmap_vci(vci);
  paths_.erase(it);
}

}  // namespace osiris
