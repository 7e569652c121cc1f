#include "workload.h"

#include <sys/resource.h>

#include <algorithm>

namespace dfi::benchmark {
namespace {

double CpuSeconds(const rusage& ru) {
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) /
             1e6;
}

}  // namespace

void RepResult::StartSetup() { setup_begin_ns_ = HostNowNs(); }

void RepResult::StartRun() {
  run_begin_ns_ = HostNowNs();
  setup_s = static_cast<double>(run_begin_ns_ - setup_begin_ns_) / 1e9;
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  cpu_begin_s_ = CpuSeconds(ru);
  invol_begin_ = ru.ru_nivcsw;
}

void RepResult::StopRun() {
  run_s = static_cast<double>(HostNowNs() - run_begin_ns_) / 1e9;
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  layer["exec.cpu_per_wall"] =
      run_s > 0 ? (CpuSeconds(ru) - cpu_begin_s_) / run_s : 0;
  layer["exec.invol_ctx_switches"] =
      static_cast<double>(ru.ru_nivcsw - invol_begin_);
}

std::vector<std::string> AddNodes(net::Fabric* fabric, size_t n) {
  std::vector<std::string> addrs;
  for (net::NodeId id : fabric->AddNodes(n)) {
    addrs.push_back(fabric->node(id).address());
  }
  return addrs;
}

double MaxRegisteredBytes(DfiRuntime& dfi) {
  uint64_t max_bytes = 0;
  for (size_t n = 0; n < dfi.fabric().node_count(); ++n) {
    max_bytes = std::max(
        max_bytes, dfi.RegisteredBytesOnNode(static_cast<net::NodeId>(n)));
  }
  return static_cast<double>(max_bytes);
}

void RecordNetLayer(net::Fabric& fabric, SimTime completion,
                    double useful_bytes, RepResult* out) {
  double egress_max = 0, egress_sum = 0, ingress_max = 0, wire_bytes = 0;
  const size_t nodes = fabric.node_count();
  const double span = completion > 0 ? static_cast<double>(completion) : 1;
  for (size_t n = 0; n < nodes; ++n) {
    net::Node& node = fabric.node(static_cast<net::NodeId>(n));
    const double egress = static_cast<double>(node.egress().busy_time()) / span;
    const double ingress =
        static_cast<double>(node.ingress().busy_time()) / span;
    egress_max = std::max(egress_max, egress);
    egress_sum += egress;
    ingress_max = std::max(ingress_max, ingress);
    wire_bytes += static_cast<double>(node.egress().total_bytes());
  }
  out->layer["net.egress_util_max"] = egress_max;
  out->layer["net.egress_util_mean"] =
      nodes > 0 ? egress_sum / static_cast<double>(nodes) : 0;
  out->layer["net.ingress_util_max"] = ingress_max;
  out->layer["net.wire_bytes_per_useful_byte"] =
      useful_bytes > 0 ? wire_bytes / useful_bytes : 0;
}

void RecordRegistryLayer(DfiRuntime& dfi, RepResult* out) {
  const reg::RegistryClientStats stats = dfi.registry_client().stats();
  out->layer["registry.rpcs"] = static_cast<double>(stats.rpcs);
  out->layer["registry.retries"] = static_cast<double>(stats.retries);
}

void Expect(bool ok, const std::string& what, RepResult* out) {
  if (!ok) out->errors.push_back(what);
}

}  // namespace dfi::benchmark
