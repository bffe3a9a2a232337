// Writes broker_stream.fnv64 (README.md): for every message the broker sends
// in each script of broker_script.h, the tick, destination, type, patch size
// and FNV-1a-64 (golden::HashBrokerSend), in send order.
//
// The point of the file is to pin the messages of the broker that wrote
// it, so this program is not part of the build: re-running it against a
// changed broker would only re-record that broker. It was compiled and run
// against commit 4a2dd22:
//
//   g++ -std=c++20 -O2 -Isrc -Itests tests/golden/make_broker_golden.cc \
//       build/libegwalker.a -lpthread -o make_broker_golden
//   ./make_broker_golden > tests/golden/broker_stream.fnv64

#include <cinttypes>
#include <cstdio>

#include "golden/broker_script.h"

int main() {
  using namespace egwalker;
  std::printf("# golden::RunBrokerScript: <shape> <tick> <to> <type> <patch bytes> "
              "<fnv1a64 hex> per broker send\n");
  for (const golden::BrokerShape& shape : golden::BrokerShapes()) {
    uint64_t sends = 0;
    golden::BrokerScriptOutcome out = golden::RunBrokerScript(
        shape, [&](uint64_t tick, int to, const Message& msg) {
          std::printf("%s %" PRIu64 " %d %d %zu %016" PRIx64 "\n", shape.name, tick, to,
                      static_cast<int>(msg.type), msg.patch.size(),
                      golden::HashBrokerSend(tick, to, msg));
          ++sends;
        });
    std::fprintf(stderr,
                 "%s: %" PRIu64 " sends, %" PRIu64 " encodes, %" PRIu64 " shared, %" PRIu64
                 " broadcasts, %" PRIu64 " sync requests, %" PRIu64 " rejected, %" PRIu64
                 " client rejections, %" PRIu64 " evictions, %" PRIu64 " expired, %" PRIu64
                 " leaves, %" PRIu64 " dropped, %" PRIu64 " duplicated\n",
                 shape.name, sends, out.broker.patch_encodes, out.broker.patch_encodes_shared,
                 out.broker.broadcasts, out.broker.sync_requests, out.broker.patches_rejected,
                 out.client_rejections, out.registry.evictions, out.broker.expired,
                 out.broker.leaves, out.net.dropped, out.net.duplicated);
  }
  return 0;
}
