// Distributed radix hash join on DFI flows (paper section 4.3.1 / Figure 2)
// plus the fragment-and-replicate variant — demonstrates how trivially the
// communication pattern of an algorithm is swapped under DFI.
//
//   $ ./build/examples/distributed_join

#include <cstdio>

#include "apps/join/distributed_join.h"
#include "common/units.h"
#include "core/dfi.h"

using namespace dfi;  // NOLINT: example brevity

int main() {
  join::JoinConfig cfg;
  cfg.num_nodes = 4;
  cfg.workers_per_node = 4;
  cfg.inner_tuples = 1 << 18;
  cfg.outer_tuples = 1 << 18;

  std::printf("distributed join: %u nodes x %u workers, %llu x %llu tuples\n",
              cfg.num_nodes, cfg.workers_per_node,
              static_cast<unsigned long long>(cfg.inner_tuples),
              static_cast<unsigned long long>(cfg.outer_tuples));

  // Radix hash join over two bandwidth-optimized shuffle flows.
  {
    net::Fabric fabric;
    std::vector<std::string> addrs;
    for (net::NodeId id : fabric.AddNodes(cfg.num_nodes)) {
      addrs.push_back(fabric.node(id).address());
    }
    DfiRuntime dfi(&fabric);
    // The join spawns its workers as actors of the calling task's engine.
    StatusOr<join::JoinResult> result = Status::Internal("not run");
    exec::Engine engine;
    engine.Spawn(0, "join", [&] {
      result = join::RunDfiRadixJoin(&dfi, addrs, cfg);
    });
    engine.Run();
    DFI_CHECK(result.ok()) << result.status();
    std::printf(
        "radix join:      %llu matches, network+partition %s, "
        "build+probe %s, total %s\n",
        static_cast<unsigned long long>(result->matches),
        FormatDuration(result->phases.network_partition).c_str(),
        FormatDuration(result->phases.build_probe).c_str(),
        FormatDuration(result->phases.total).c_str());
  }

  // Fragment-and-replicate: with a small inner relation, replace the inner
  // shuffle flow with a replicate flow — the outer relation never crosses
  // the network.
  cfg.inner_tuples = cfg.outer_tuples / 1024;
  {
    net::Fabric fabric;
    std::vector<std::string> addrs;
    for (net::NodeId id : fabric.AddNodes(cfg.num_nodes)) {
      addrs.push_back(fabric.node(id).address());
    }
    DfiRuntime dfi(&fabric);
    StatusOr<join::JoinResult> result = Status::Internal("not run");
    exec::Engine engine;
    engine.Spawn(0, "join", [&] {
      result = join::RunDfiReplicateJoin(&dfi, addrs, cfg);
    });
    engine.Run();
    DFI_CHECK(result.ok()) << result.status();
    std::printf(
        "replicate join:  %llu matches (small inner), replication %s, "
        "build+probe %s, total %s\n",
        static_cast<unsigned long long>(result->matches),
        FormatDuration(result->phases.network_replication).c_str(),
        FormatDuration(result->phases.build_probe).c_str(),
        FormatDuration(result->phases.total).c_str());
  }
  return 0;
}
