// Early-demultiplexing scaling: one flow-table probe vs the five-map
// baseline, 10^2 to 10^6 active VCIs.
//
// The paper's early demultiplexing (§3.1) keys every arriving cell by its
// VCI. Before the flow table, the receive processor's per-cell decision
// consulted five separate containers (quarantine set, VCI->channel map,
// per-VCI router map, quota map, held-buffer map); now it is a single
// probe into a cache-line-bucketed flow table whose entry consolidates all
// of that state. This bench measures the demultiplexing decision alone,
// with the surrounding firmware stripped away, across table populations
// from 10^2 to 10^6 VCIs.
//
// Workload model: cells of one PDU arrive back-to-back on the same VCI
// (the transmit side segments a PDU into a burst of cells), with a bounded
// number of PDUs interleaved in flight at once — even a host with 10^6
// open paths sees only tens of concurrently arriving PDUs. Each stream
// interleaves kInflight active VCIs round-robin, retiring one after
// kBurst cells and replacing it with a fresh VCI drawn from the full
// population. The baseline replays the exact same cell sequence against
// the five-map layout.
//
// Emitted gates (bench/floors.tsv):
//   demux_ns_per_cell   flow-table ns/cell at 10^4 VCIs      (ceiling)
//   demux_flatness      max/min flow ns/cell over the sweep  (ceiling <= 2)
//   demux_speedup_1e4   baseline/flow ns-per-cell at 10^4    (floor >= 2)
#include <cstdint>
#include <cstdio>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "bench_json.h"
#include "flow/table.h"

namespace {

// The receive processor's consolidated per-VCI state (board/rx.h VciState
// without the owning router pointer; a raw pointer stands in for it here).
struct DemuxState {
  std::int32_t free_id = -1;
  std::int32_t fallback = -1;
  std::int32_t recv_idx = -1;
  std::uint32_t flags = 0;
  std::uint32_t quota = 0;
  std::uint32_t held = 0;
  void* router = nullptr;
};

// The pre-consolidation layout: the same state scattered over the five
// containers the old per-cell path consulted.
struct FiveMapBaseline {
  std::unordered_set<std::uint32_t> quarantined;
  struct Mapping {
    std::int32_t free_id = -1;
    std::int32_t fallback = -1;
    std::int32_t recv_idx = -1;
  };
  std::unordered_map<std::uint32_t, Mapping> vci_map;
  std::unordered_map<std::uint32_t, void*> routers;
  std::unordered_map<std::uint32_t, std::uint32_t> quota;
  std::unordered_map<std::uint32_t, std::uint32_t> held;
};

constexpr int kInflight = 32;  // VCIs with a PDU concurrently arriving
constexpr int kBurst = 21;     // cells per PDU (~one 9KB PDU at 48B/cell)

std::uint64_t splitmix(std::uint64_t& s) {
  s += 0x9E3779B97F4A7C15ull;
  std::uint64_t z = s;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4B9F9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

/// N distinct 24-bit VCIs, deterministic.
std::vector<std::uint32_t> make_population(std::size_t n) {
  std::vector<std::uint32_t> vcis;
  vcis.reserve(n);
  std::vector<bool> used(1u << 24, false);
  std::uint64_t rng = 0x0512CA4EULL + n;
  while (vcis.size() < n) {
    const auto v = static_cast<std::uint32_t>(splitmix(rng) & 0xFFFFFF);
    if (v == 0 || used[v]) continue;
    used[v] = true;
    vcis.push_back(v);
  }
  return vcis;
}

/// The interleaved-burst cell stream: index sequence into `pop`.
std::vector<std::uint32_t> make_stream(const std::vector<std::uint32_t>& pop,
                                       std::size_t cells) {
  std::vector<std::uint32_t> stream;
  stream.reserve(cells);
  std::uint64_t rng = 0xD0E5ULL + pop.size();
  struct Slot {
    std::uint32_t vci;
    int left;
  };
  std::vector<Slot> inflight;
  for (int i = 0; i < kInflight; ++i) {
    inflight.push_back({pop[splitmix(rng) % pop.size()], kBurst});
  }
  std::size_t turn = 0;
  while (stream.size() < cells) {
    Slot& s = inflight[turn % inflight.size()];
    stream.push_back(s.vci);
    if (--s.left == 0) {
      s = {pop[splitmix(rng) % pop.size()], kBurst};
    }
    ++turn;
  }
  return stream;
}

struct Timing {
  double ns_per_cell = 0;
  std::uint64_t checksum = 0;  // defeats dead-code elimination
};

Timing time_flow(osiris::flow::FlowTable<DemuxState>& table,
                 const std::vector<std::uint32_t>& stream) {
  benchjson::WallTimer t;
  std::uint64_t sum = 0;
  for (const std::uint32_t vci : stream) {
    // The accept_cell decision: one probe yields everything.
    DemuxState* st = table.find(vci);
    if (st == nullptr || (st->flags & 2u) != 0) continue;  // drop
    sum += st->quota + st->held +
           static_cast<std::uint32_t>(st->free_id + st->recv_idx) +
           (st->router != nullptr ? 1 : 0);
    ++st->held;
    --st->held;
  }
  return {t.seconds() * 1e9 / static_cast<double>(stream.size()), sum};
}

Timing time_maps(FiveMapBaseline& b, const std::vector<std::uint32_t>& stream) {
  benchjson::WallTimer t;
  std::uint64_t sum = 0;
  for (const std::uint32_t vci : stream) {
    // The old accept_cell + quota path: five independent lookups.
    if (b.quarantined.count(vci) != 0) continue;
    const auto mit = b.vci_map.find(vci);
    if (mit == b.vci_map.end()) continue;
    const auto rit = b.routers.find(vci);
    const auto qit = b.quota.find(vci);
    auto hit = b.held.find(vci);
    sum += (qit != b.quota.end() ? qit->second : 0) +
           (hit != b.held.end() ? hit->second : 0) +
           static_cast<std::uint32_t>(mit->second.free_id +
                                      mit->second.recv_idx) +
           (rit != b.routers.end() ? 1 : 0);
    if (hit != b.held.end()) {
      ++hit->second;
      --hit->second;
    }
  }
  return {t.seconds() * 1e9 / static_cast<double>(stream.size()), sum};
}

}  // namespace

int main() {
  using osiris::flow::FlowTable;

  constexpr std::size_t kCells = 2'000'000;
  // The five-map baseline stops at 10^5: five node-based containers at
  // 10^6 entries cost hundreds of MB for a number the 10^4 gate already
  // establishes. The flow table runs the full sweep.
  constexpr std::size_t kBaselineMax = 100'000;
  const std::size_t sizes[] = {100, 1'000, 10'000, 100'000, 1'000'000};

  benchjson::WallTimer wall;
  benchjson::Writer w;
  w.open_object();
  w.open_array("sweep");

  double ns_at_1e4 = 0, maps_at_1e4 = 0;
  double ns_min = 1e30, ns_max = 0;
  std::uint64_t total_cells = 0;

  std::printf("%10s %14s %14s %9s %12s\n", "vcis", "flow ns/cell",
              "maps ns/cell", "speedup", "probe/find");
  for (const std::size_t n : sizes) {
    const std::vector<std::uint32_t> pop = make_population(n);
    const std::vector<std::uint32_t> stream = make_stream(pop, kCells);

    FlowTable<DemuxState> table;
    for (const std::uint32_t vci : pop) {
      DemuxState& st = *table.insert(vci).first;
      st.flags = 1;  // mapped
      st.free_id = 0;
      st.recv_idx = 0;
      st.quota = 64;
      st.router = &table;  // stand-in for the owned CellRouter
    }
    const auto lookups0 = table.stats().lookups;
    const auto probed0 = table.stats().probed_buckets;
    const Timing ft = time_flow(table, stream);
    const double probe_per_find =
        static_cast<double>(table.stats().probed_buckets - probed0) /
        static_cast<double>(table.stats().lookups - lookups0);

    Timing mt{};
    if (n <= kBaselineMax) {
      FiveMapBaseline base;
      for (const std::uint32_t vci : pop) {
        base.vci_map[vci] = {0, -1, 0};
        base.routers[vci] = &base;
        base.quota[vci] = 64;
        base.held[vci] = 0;
      }
      mt = time_maps(base, stream);
      if (mt.checksum != ft.checksum) {
        std::fprintf(stderr, "checksum mismatch at %zu vcis\n", n);
        return 1;
      }
    }

    if (n == 10'000) {
      ns_at_1e4 = ft.ns_per_cell;
      maps_at_1e4 = mt.ns_per_cell;
    }
    ns_min = std::min(ns_min, ft.ns_per_cell);
    ns_max = std::max(ns_max, ft.ns_per_cell);
    total_cells += (n <= kBaselineMax ? 2 : 1) * kCells;

    std::printf("%10zu %14.2f %14.2f %9.2f %12.3f\n", n, ft.ns_per_cell,
                mt.ns_per_cell,
                ft.ns_per_cell > 0 ? mt.ns_per_cell / ft.ns_per_cell : 0.0,
                probe_per_find);

    w.open_object();
    w.field("vcis", static_cast<std::uint64_t>(n));
    w.field("flow_ns_per_cell", ft.ns_per_cell);
    if (n <= kBaselineMax) w.field("maps_ns_per_cell", mt.ns_per_cell);
    w.field("probe_per_find", probe_per_find);
    w.field("occupancy", static_cast<std::uint64_t>(table.size()));
    w.field("capacity", static_cast<std::uint64_t>(table.capacity()));
    w.field("rehashes", table.stats().rehashes);
    w.close_object();
  }
  w.close_array();

  const double flatness = ns_min > 0 ? ns_max / ns_min : 0.0;
  const double speedup = ns_at_1e4 > 0 ? maps_at_1e4 / ns_at_1e4 : 0.0;
  w.field("demux_ns_per_cell", ns_at_1e4);
  w.field("demux_flatness", flatness);
  w.field("demux_speedup_1e4", speedup);
  benchjson::perf_fields(w, wall.seconds(), total_cells);
  w.close_object();

  std::printf("\nns/cell @1e4 %.2f   flatness %.2fx   speedup @1e4 %.2fx\n",
              ns_at_1e4, flatness, speedup);
  if (!w.dump("demux")) return 1;
  return 0;
}
