// RPC entirely in user space, over application device channels.
//
// Combines the two §3 mechanisms the way a real system would: an
// application opens an ADC (kernel-bypass queue pair, §3.2), links its own
// protocol stack, and runs a request/response protocol on top — the kernel
// fields interrupts and nothing else. This is precisely the programming
// model that U-Net, VIA and RDMA verbs later standardized.
//
//   $ ./rpc_over_adc
#include <cstdio>
#include <cstring>
#include <map>

#include "adc/adc.h"
#include "osiris/node.h"
#include "proto/rpc.h"

using namespace osiris;

int main() {
  Testbed tb(make_3000_600_config(), make_3000_600_config());

  proto::StackConfig sc;
  sc.udp_checksum = true;
  adc::Adc client_ch(tb.a.adc_deps(), 1, {850}, 1, sc);
  adc::Adc server_ch(tb.b.adc_deps(), 1, {850}, 1, sc);

  proto::RpcEndpoint client(tb.a.eng, client_ch.stack(), client_ch.space(),
                            tb.a.cpu, tb.a.cfg.machine);
  proto::RpcEndpoint server(tb.b.eng, server_ch.stack(), server_ch.space(),
                            tb.b.cpu, tb.b.cfg.machine);
  // Register the RPC frame arenas with the OS (RDMA-style memory regions).
  client_ch.authorize(client.arena_buffers());
  server_ch.authorize(server.arena_buffers());

  // A "key-value" server living entirely in user space on machine B.
  std::map<std::vector<std::uint8_t>, std::vector<std::uint8_t>> store;
  server.serve([&store](std::vector<std::uint8_t> req) {
    // [0] op (0 = put, 1 = get), [1] klen, then key, then value.
    if (req.size() < 2) return std::vector<std::uint8_t>{0xFF};
    const std::uint8_t op = req[0];
    const std::size_t klen = req[1];
    if (req.size() < 2 + klen) return std::vector<std::uint8_t>{0xFF};
    std::vector<std::uint8_t> key(req.begin() + 2, req.begin() + 2 + klen);
    if (op == 0) {
      store[key] = {req.begin() + 2 + static_cast<std::ptrdiff_t>(klen), req.end()};
      return std::vector<std::uint8_t>{0};
    }
    const auto it = store.find(key);
    return it == store.end() ? std::vector<std::uint8_t>{0xFF} : it->second;
  });

  // Client: PUT then GET, measuring user-space RPC latency.
  auto make_put = [](const char* k, const char* v) {
    std::vector<std::uint8_t> r{0, static_cast<std::uint8_t>(strlen(k))};
    r.insert(r.end(), k, k + strlen(k));
    r.insert(r.end(), v, v + strlen(v));
    return r;
  };
  auto make_get = [](const char* k) {
    std::vector<std::uint8_t> r{1, static_cast<std::uint8_t>(strlen(k))};
    r.insert(r.end(), k, k + strlen(k));
    return r;
  };

  sim::Tick put_done = 0;
  client.call(0, 850, make_put("osiris", "segmented and reassembled"),
              [&](sim::Tick at, std::optional<std::vector<std::uint8_t>> r) {
                put_done = at;
                std::printf("PUT acknowledged at t=%.1f us (status %u)\n",
                            sim::to_us(at), r ? (*r)[0] : 255);
                client.call(
                    at, 850, make_get("osiris"),
                    [&](sim::Tick at2, std::optional<std::vector<std::uint8_t>> v) {
                      if (v) {
                        std::printf("GET returned \"%.*s\" at t=%.1f us "
                                    "(RPC RTT %.1f us)\n",
                                    static_cast<int>(v->size()),
                                    reinterpret_cast<const char*>(v->data()),
                                    sim::to_us(at2), sim::to_us(at2 - put_done));
                      }
                    });
              });
  tb.run();

  std::printf("\nkernel involvement: %llu interrupts on each side; "
              "0 syscalls, 0 copies, checksums verified end to end\n",
              static_cast<unsigned long long>(tb.b.intc.raised()));
  std::printf("client calls=%llu responses=%llu timeouts=%llu\n",
              static_cast<unsigned long long>(client.calls()),
              static_cast<unsigned long long>(client.responses()),
              static_cast<unsigned long long>(client.timeouts()));
  return client.responses() == 2 ? 0 : 1;
}
