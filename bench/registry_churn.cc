// Control-plane churn bench (robustness PR — not a paper figure): the
// sharded, replicated RegistryService under publish/retrieve/close churn
// at 1e4..1e6 concurrent flows, plus shard failover under a FaultPlan.
//
// Three sections:
//   1. Churn throughput: 8 clients batch-publish, batch-retrieve, and
//      close half of N flows against 8 shards x 3 replicas; reported as
//      applied control ops per virtual second (the emulated service rate)
//      and host wall seconds (the emulator's own cost).
//   2. Failover: the same churn with the FaultPlan crashing shard 0's
//      primary node mid-run. The run must complete with zero lost and
//      zero duplicated registrations (audited flow-by-flow), and the
//      virtual recovery time — crash to the first op applied by the
//      promoted backup — is reported from the event trace.
//   3. Determinism: the failover run replayed twice must produce the
//      identical registry event trace; we compare the order-insensitive
//      trace hash and the canonical sorted trace string.

#include <memory>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "common/exec/engine.h"
#include "registry/registry_client.h"
#include "registry/registry_service.h"

namespace dfi::bench {
namespace {

using reg::RegistryService;
using reg::RegistryServiceOptions;

/// Minimal published flow state: the control plane never looks inside.
struct BenchFlowState : FlowStateBase {
  void Abort(const Status&) override {}
};

constexpr uint32_t kClients = 8;
constexpr uint32_t kShards = 8;
constexpr uint32_t kReplication = 3;
constexpr size_t kBatch = 32;  // ops per RPC

struct ChurnConfig {
  size_t flows = 10'000;
  SimTime crash_at = 0;  // 0 = no fault; else crash shard 0's primary node
  bool record_trace = false;
};

struct ChurnResult {
  uint64_t applied = 0;
  uint64_t rpcs = 0;
  uint64_t retries = 0;
  uint64_t failovers = 0;
  uint64_t duplicates = 0;
  SimTime virtual_ns = 0;     // latest client clock at the end of churn
  SimTime recovery_ns = -1;   // crash -> first apply by the promoted backup
  uint64_t trace_hash = 0;
  std::string trace;          // iff record_trace
  double wall_s = 0;
};

std::string FlowName(uint32_t client, size_t i) {
  return "churn.c" + std::to_string(client) + ".f" + std::to_string(i);
}

ChurnResult RunChurn(const ChurnConfig& cfg) {
  net::Fabric fabric;
  const std::vector<net::NodeId> nodes =
      fabric.AddNodes(kShards * kReplication + kClients);

  RegistryServiceOptions opts;
  opts.num_shards = kShards;
  opts.replication = kReplication;
  opts.replica_nodes.assign(nodes.begin(),
                            nodes.begin() + kShards * kReplication);
  opts.record_trace = cfg.record_trace;
  RegistryService service(&fabric, opts);
  if (cfg.crash_at > 0) {
    // Shard 0's replica 0 is its primary until the crash.
    fabric.fault_plan().CrashNode(service.ReplicaNode(0, 0), cfg.crash_at);
  }

  const size_t per_client = cfg.flows / kClients;
  std::vector<std::unique_ptr<VirtualClock>> clocks(kClients);
  std::vector<std::unique_ptr<reg::RegistryClient>> clients(kClients);
  for (uint32_t c = 0; c < kClients; ++c) {
    clocks[c] = std::make_unique<VirtualClock>();
    clients[c] = std::make_unique<reg::RegistryClient>(
        &service,
        reg::RegistryClientOptions{
            .client_id = c + 1,
            .node = nodes[kShards * kReplication + c]},
        clocks[c].get());
  }

  const auto wall_start = std::chrono::steady_clock::now();
  exec::Engine engine;
  for (uint32_t c = 0; c < kClients; ++c) {
    engine.Spawn(c, "churn" + std::to_string(c), [&, c] {
      reg::RegistryClient& client = *clients[c];
      // Publish every flow, in RPC-sized batches.
      for (size_t base = 0; base < per_client; base += kBatch) {
        const size_t n = std::min(kBatch, per_client - base);
        std::vector<std::pair<std::string, std::shared_ptr<FlowStateBase>>>
            batch;
        batch.reserve(n);
        for (size_t i = 0; i < n; ++i) {
          batch.emplace_back(FlowName(c, base + i),
                             std::make_shared<BenchFlowState>());
        }
        auto r = client.PublishBatch(batch);
        DFI_CHECK(r.ok()) << r.status();
        for (const auto& op : *r) DFI_CHECK(op.status.ok()) << op.status;
      }
      // Retrieve every flow back.
      for (size_t base = 0; base < per_client; base += kBatch) {
        const size_t n = std::min(kBatch, per_client - base);
        std::vector<std::string> names;
        names.reserve(n);
        for (size_t i = 0; i < n; ++i) names.push_back(FlowName(c, base + i));
        auto r = client.RetrieveBatch(names);
        DFI_CHECK(r.ok()) << r.status();
        for (const auto& op : *r) DFI_CHECK(op.status.ok()) << op.status;
      }
      // Close the even-indexed half: steady-state churn, not teardown.
      std::vector<std::string> closing;
      for (size_t i = 0; i < per_client; i += 2) {
        closing.push_back(FlowName(c, i));
        if (closing.size() == kBatch || i + 2 >= per_client) {
          auto r = client.CloseBatch(closing);
          DFI_CHECK(r.ok()) << r.status();
          for (const auto& op : *r) DFI_CHECK(op.status.ok()) << op.status;
          closing.clear();
        }
      }
    });
  }
  engine.Run();

  ChurnResult out;
  out.wall_s = std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - wall_start)
                   .count();
  out.applied = service.applied_ops();
  out.duplicates = service.duplicates_suppressed();
  out.trace_hash = service.TraceHash();
  for (uint32_t c = 0; c < kClients; ++c) {
    const auto stats = clients[c]->stats();
    out.rpcs += stats.rpcs;
    out.retries += stats.retries;
    out.failovers += stats.failovers;
    out.virtual_ns = std::max(out.virtual_ns, clocks[c]->now());
  }

  // Audit: zero lost, zero duplicated. Every flow that was closed is gone;
  // every flow that was not is retrievable exactly as published; the
  // primaries' total matches. An auditor client counts them all.
  const size_t expected_live = kClients * (per_client - (per_client + 1) / 2);
  DFI_CHECK_EQ(service.TotalFlows(out.virtual_ns + 1), expected_live);
  VirtualClock audit_clock;
  audit_clock.AdvanceTo(out.virtual_ns + 1);
  reg::RegistryClient auditor(
      &service,
      reg::RegistryClientOptions{.client_id = kClients + 1,
                                 .node = nodes.back()},
      &audit_clock);
  exec::Engine audit_engine;
  audit_engine.Spawn(0, "audit", [&] {
    for (uint32_t c = 0; c < kClients; ++c) {
      for (size_t base = 0; base < per_client; base += kBatch) {
        const size_t n = std::min(kBatch, per_client - base);
        std::vector<std::string> names;
        names.reserve(n);
        for (size_t i = 0; i < n; ++i) names.push_back(FlowName(c, base + i));
        auto r = auditor.RetrieveBatch(names);
        DFI_CHECK(r.ok()) << r.status();
        for (size_t i = 0; i < n; ++i) {
          const bool closed = (base + i) % 2 == 0;
          const StatusCode code = (*r)[i].status.code();
          DFI_CHECK(code == (closed ? StatusCode::kNotFound : StatusCode::kOk))
              << names[i] << ": " << (*r)[i].status;
        }
      }
    }
  });
  audit_engine.Run();

  if (cfg.record_trace) {
    out.trace = service.TraceString();
    if (cfg.crash_at > 0) {
      // Recovery: crash to the first op the promoted backup (epoch 2 of
      // shard 0) applied. The crash must land mid-churn: the trace has to
      // show shard-0 applies under both epochs.
      bool pre_crash = false;
      for (const reg::RegistryEvent& e : service.Events()) {
        if (e.shard != 0) continue;
        if (e.epoch == 1) pre_crash = true;
        if (e.epoch >= 2) {
          out.recovery_ns = e.at - cfg.crash_at;
          break;
        }
      }
      DFI_CHECK(pre_crash) << "crash landed before any shard-0 traffic";
    }
  }
  return out;
}

void Run() {
  // --- Section 1: churn throughput --------------------------------------
  PrintSection(
      "Registry churn: publish+retrieve+close, 8 clients, 8 shards x 3 "
      "replicas");
  TablePrinter table({"flows", "ctl ops", "RPCs", "virtual time",
                      "ops/virtual-s", "wall"});
  table.MarkHostColumns({"wall"});
  double peak_ops_per_s = 0;
  for (size_t flows : {size_t{10'000}, size_t{100'000}, size_t{1'000'000}}) {
    ChurnConfig cfg;
    cfg.flows = flows;
    ChurnResult r = RunChurn(cfg);
    const double ops_per_s =
        static_cast<double>(r.applied) / r.virtual_ns * 1e9;
    peak_ops_per_s = std::max(peak_ops_per_s, ops_per_s);
    char wall[32];
    std::snprintf(wall, sizeof(wall), "%.2f s", r.wall_s);
    table.AddRow({Num(static_cast<double>(flows)),
                  Num(static_cast<double>(r.applied)),
                  Num(static_cast<double>(r.rpcs)), Millis(r.virtual_ns),
                  Num(ops_per_s), wall});
  }
  table.Print();
  RecordMetric("peak_ctl_ops_per_virtual_s", peak_ops_per_s, "ops/s");

  // --- Section 2: failover under churn ----------------------------------
  PrintSection(
      "Shard failover: FaultPlan crashes shard 0's primary mid-churn "
      "(20k flows)");
  ChurnConfig fcfg;
  fcfg.flows = 20'000;
  fcfg.crash_at = 300'000;  // mid-publish for every client
  fcfg.record_trace = true;
  ChurnResult f = RunChurn(fcfg);
  // Clients route by the view at their own virtual time, so most of them
  // move to the promoted backup without a redirect or a retry; the
  // failover counter counts every move. The trace is the second witness:
  // shard-0 applies under epoch 1 *and* under epoch 2 (checked in
  // RunChurn).
  DFI_CHECK_GE(f.failovers, 1u) << "no client moved to the promoted backup";
  DFI_CHECK_GE(f.recovery_ns, 0) << "no epoch-2 apply on the crashed shard";
  TablePrinter ftable({"crash at", "recovery", "failovers", "retries",
                       "dup suppressed", "ctl ops"});
  ftable.AddRow({Micros(fcfg.crash_at), Micros(f.recovery_ns),
                 Num(static_cast<double>(f.failovers)),
                 Num(static_cast<double>(f.retries)),
                 Num(static_cast<double>(f.duplicates)),
                 Num(static_cast<double>(f.applied))});
  ftable.Print();
  RecordMetric("failover_recovery_us", f.recovery_ns / 1000.0, "us");
  std::printf(
      "audit: zero lost, zero duplicated registrations (every surviving\n"
      "flow retrieved, every closed flow absent, primary totals match).\n");

  // --- Section 3: trace determinism run to run -------------------------
  PrintSection(
      "Determinism: identical registry event trace, same run twice (4k "
      "flows, same fault plan)");
  ChurnConfig dcfg;
  dcfg.flows = 4'000;
  dcfg.crash_at = 300'000;
  dcfg.record_trace = true;
  const ChurnResult first = RunChurn(dcfg);
  const ChurnResult second = RunChurn(dcfg);
  DFI_CHECK_EQ(second.trace_hash, first.trace_hash)
      << "trace hash diverged between runs";
  DFI_CHECK(second.trace == first.trace) << "trace diverged between runs";
  int run = 0;
  for (const ChurnResult* r : {&first, &second}) {
    std::printf("run %d  trace_hash=%016llx  events ok\n", ++run,
                static_cast<unsigned long long>(r->trace_hash));
  }
  RecordMetric("trace_hash",
               static_cast<double>(first.trace_hash & 0xffffffff), "low32");
  std::printf(
      "(expected: one crashed primary costs one epoch bump and a bounded\n"
      " recovery window; churn completes exactly-once with the same\n"
      " canonical event trace on every run.)\n");
}

}  // namespace
}  // namespace dfi::bench

int main(int argc, char** argv) {
  return dfi::bench::BenchMain(argc, argv, dfi::bench::Run);
}
