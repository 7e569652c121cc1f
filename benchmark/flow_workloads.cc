// The two flow-level workloads: shuffle_bw (bandwidth-optimized N:M key-hash
// shuffle) and rpc_latency (closed-loop request/response over two
// latency-optimized shuffle flows). Both drive the flow API directly, so
// they bypass the graph layer, the adaptive policies and the combiner.

#include <algorithm>
#include <array>
#include <cstring>

#include "common/exec/engine.h"
#include "common/random.h"
#include "core/dfi_runtime.h"
#include "workload.h"

namespace dfi::benchmark {
namespace {

/// Span sampling: one span per this many calls of a per-tuple call site.
constexpr uint32_t kPushSpanEvery = 1024;
constexpr uint32_t kConsumeSpanEvery = 64;

/// Records the first failure of an actor and tears both flows down, so no
/// peer blocks forever on an actor that stopped.
class FailureLatch {
 public:
  FailureLatch(DfiRuntime* dfi, std::vector<std::string> flows, size_t actors)
      : dfi_(dfi), flows_(std::move(flows)), errors_(actors) {}

  void Fail(size_t actor, const std::string& what) {
    if (errors_[actor].empty()) errors_[actor] = what;
    for (const std::string& flow : flows_) {
      (void)dfi_->AbortFlow(flow, Status::Aborted(what));
    }
  }

  void Report(RepResult* out) const {
    for (const std::string& e : errors_) {
      if (!e.empty()) out->errors.push_back(e);
    }
  }

 private:
  DfiRuntime* const dfi_;
  const std::vector<std::string> flows_;
  std::vector<std::string> errors_;  // one slot per actor: no sharing
};

// ---------------------------------------------------------------------------
// shuffle_bw
// ---------------------------------------------------------------------------

constexpr uint32_t kShuffleNodes = 8;
constexpr uint32_t kShufflePerNode = 4;  // sources and targets per node
constexpr uint32_t kShuffleWidth = kShuffleNodes * kShufflePerNode;
constexpr uint32_t kShufflePasses = 16;
constexpr uint64_t kShuffleKeyDomain = uint64_t{1} << 30;
/// Tuples whose payload index is a multiple of this carry a recorded emit
/// time; their delivery latency is the workload's latency sample.
constexpr uint64_t kShuffleSampleEvery = 64;
constexpr char kShuffleFlow[] = "bench.shuffle";

struct KvTuple {
  uint64_t key;
  uint64_t payload;
};
static_assert(sizeof(KvTuple) == 16, "densely packed");

/// Order-insensitive digest of a tuple multiset. The pairing term uses an
/// odd multiplier, so it changes whenever a key moves to another payload.
struct Digest {
  uint64_t count = 0;
  uint64_t keys = 0;
  uint64_t payloads = 0;
  uint64_t pairs = 0;

  void Add(uint64_t key, uint64_t payload) {
    ++count;
    keys += key;
    payloads += payload;
    pairs += key * (2 * payload + 1);
  }
  void Merge(const Digest& o) {
    count += o.count;
    keys += o.keys;
    payloads += o.payloads;
    pairs += o.pairs;
  }
  bool operator==(const Digest&) const = default;
};

class ShuffleBw : public Workload {
 public:
  ShuffleBw(uint64_t seed, bool smoke)
      : relation_size_(smoke ? (uint64_t{1} << 17) / 64 : uint64_t{1} << 17),
        keys_(kShuffleWidth),
        emit_ns_(kShuffleWidth) {
    for (uint32_t s = 0; s < kShuffleWidth; ++s) {
      Xorshift128Plus rng(SplitMix64(seed * kShuffleWidth + s));
      keys_[s].resize(relation_size_);
      for (uint64_t& k : keys_[s]) k = rng.NextBelow(kShuffleKeyDomain);
      uint64_t i = 0;
      for (uint32_t pass = 0; pass < kShufflePasses; ++pass) {
        for (uint64_t key : keys_[s]) expected_.Add(key, Payload(s, i++));
      }
      emit_ns_[s].resize(tuples_per_source() / kShuffleSampleEvery);
    }
  }

  void Rep(RepTrace* trace, RepResult* out) override;

 private:
  /// Unique per tuple: source in the high half, push index in the low.
  static uint64_t Payload(uint32_t source, uint64_t index) {
    return uint64_t{source} << 32 | index;
  }
  uint64_t tuples_per_source() const { return relation_size_ * kShufflePasses; }

  const uint64_t relation_size_;
  std::vector<std::vector<uint64_t>> keys_;  // per source, pushed 16 times
  Digest expected_;
  /// Emit time of every sampled tuple, per source; rewritten each rep.
  std::vector<std::vector<SimTime>> emit_ns_;
};

void ShuffleBw::Rep(RepTrace* trace, RepResult* out) {
  ActorProbe& root = trace->root();
  out->StartSetup();
  net::Fabric fabric;
  const std::vector<std::string> addrs = AddNodes(&fabric, kShuffleNodes);
  DfiRuntime dfi(&fabric);
  ShuffleFlowSpec spec;
  spec.name = kShuffleFlow;
  spec.sources = DfiNodes::GridOf(addrs, kShufflePerNode);
  spec.targets = DfiNodes::GridOf(addrs, kShufflePerNode);
  spec.schema = Schema{{"key", DataType::kUInt64},
                       {"payload", DataType::kUInt64}};
  const uint32_t capacity =
      ChannelShared::PayloadCapacityFor(spec.options, sizeof(KvTuple));
  const int64_t init_begin = HostNowNs();
  const Status init = root.Call(Site::kSetup, nullptr, "InitShuffleFlow", 1,
                                [&] { return dfi.InitShuffleFlow(spec); });
  out->layer["setup.flow_init_ms"] =
      static_cast<double>(HostNowNs() - init_begin) / 1e6;
  if (!init.ok()) {
    out->errors.push_back("InitShuffleFlow: " + init.ToString());
    return;
  }
  out->registered_bytes = MaxRegisteredBytes(dfi);

  std::vector<ActorProbe*> sources, targets;
  for (uint32_t i = 0; i < kShuffleWidth; ++i) {
    sources.push_back(trace->NewActor("source." + std::to_string(i)));
  }
  for (uint32_t i = 0; i < kShuffleWidth; ++i) {
    targets.push_back(trace->NewActor("target." + std::to_string(i)));
  }
  FailureLatch latch(&dfi, {kShuffleFlow}, 2 * kShuffleWidth);
  std::vector<Digest> digests(kShuffleWidth);
  std::vector<LatencyRecorder> latencies(kShuffleWidth);
  std::vector<SimTime> finish(kShuffleWidth, 0);

  out->StartRun();
  exec::ActorGroup actors;
  for (uint32_t s = 0; s < kShuffleWidth; ++s) {
    actors.Spawn(s / kShufflePerNode, "source", [&, s] {
      ActorProbe* probe = sources[s];
      auto created = probe->Call(Site::kSetup, nullptr, "CreateShuffleSource",
                                 1, [&] {
                                   return dfi.CreateShuffleSource(kShuffleFlow,
                                                                  s);
                                 });
      if (!created.ok()) {
        return latch.Fail(s, "CreateShuffleSource: " +
                                 created.status().ToString());
      }
      ShuffleSource& source = **created;
      VirtualClock* clock = &source.clock();
      probe->BeginBody("source", clock);
      const std::vector<uint64_t>& keys = keys_[s];
      std::vector<SimTime>& emit_ns = emit_ns_[s];
      KvTuple t;
      uint64_t i = 0;
      for (uint32_t pass = 0; pass < kShufflePasses; ++pass) {
        for (uint64_t j = 0; j < relation_size_; ++j, ++i) {
          t.key = keys[j];
          t.payload = Payload(s, i);
          if (i % kShuffleSampleEvery == 0) {
            emit_ns[i / kShuffleSampleEvery] = clock->now();
          }
          const Status st = probe->Call(Site::kPush, clock, "Push",
                                        kPushSpanEvery,
                                        [&] { return source.Push(&t); });
          if (!st.ok()) return latch.Fail(s, "Push: " + st.ToString());
        }
      }
      const Status closed = probe->Call(Site::kClose, clock, "Close", 1,
                                        [&] { return source.Close(); });
      if (!closed.ok()) latch.Fail(s, "Close: " + closed.ToString());
      probe->EndBody(clock);
    });
  }
  const uint64_t per_source = tuples_per_source();
  for (uint32_t t = 0; t < kShuffleWidth; ++t) {
    actors.Spawn(t / kShufflePerNode, "target", [&, t] {
      ActorProbe* probe = targets[t];
      const size_t slot = kShuffleWidth + t;
      auto created = probe->Call(Site::kSetup, nullptr, "CreateShuffleTarget",
                                 1, [&] {
                                   return dfi.CreateShuffleTarget(kShuffleFlow,
                                                                  t);
                                 });
      if (!created.ok()) {
        return latch.Fail(slot, "CreateShuffleTarget: " +
                                    created.status().ToString());
      }
      ShuffleTarget& target = **created;
      VirtualClock* clock = &target.clock();
      probe->BeginBody("target", clock);
      Digest digest;
      LatencyRecorder& latency = latencies[t];
      SegmentView seg;
      for (;;) {
        const SimTime before = clock->now();
        const ConsumeResult r =
            probe->Call(Site::kConsume, clock, "ConsumeSegment",
                        kConsumeSpanEvery,
                        [&] { return target.ConsumeSegment(&seg); });
        if (r == ConsumeResult::kFlowEnd) break;
        if (r != ConsumeResult::kOk) {
          return latch.Fail(slot, "ConsumeSegment: " +
                                      target.last_status().ToString());
        }
        probe->OnSegment(before, seg, capacity);
        const SimTime now = clock->now();
        for (uint32_t off = 0; off + sizeof(KvTuple) <= seg.bytes;
             off += sizeof(KvTuple)) {
          KvTuple kv;
          std::memcpy(&kv, seg.payload + off, sizeof(kv));
          digest.Add(kv.key, kv.payload);
          if (kv.payload % kShuffleSampleEvery != 0) continue;
          const uint64_t src = kv.payload >> 32;
          const uint64_t index = kv.payload & 0xffffffffu;
          if (src >= kShuffleWidth || index >= per_source) continue;
          latency.Record(now - emit_ns_[src][index / kShuffleSampleEvery]);
        }
      }
      probe->SetFinalClock(clock->now());
      probe->EndBody(clock);
      finish[t] = clock->now();
      digests[t] = digest;
    });
  }
  actors.Join();
  const Status removed = root.Call(Site::kClose, nullptr, "RemoveFlow", 1,
                                   [&] { return dfi.RemoveFlow(kShuffleFlow); });
  out->StopRun();

  latch.Report(out);
  Expect(removed.ok(), "RemoveFlow: " + removed.ToString(), out);
  Digest delivered;
  for (uint32_t t = 0; t < kShuffleWidth; ++t) {
    delivered.Merge(digests[t]);
    out->latency.Merge(latencies[t]);
  }
  Expect(delivered == expected_,
         "delivered tuples differ from pushed tuples (count " +
             std::to_string(delivered.count) + " vs " +
             std::to_string(expected_.count) + ")",
         out);
  out->completion = *std::max_element(finish.begin(), finish.end());
  out->useful_bytes =
      static_cast<double>(expected_.count) * static_cast<double>(sizeof(KvTuple));
  RecordNetLayer(fabric, out->completion, out->useful_bytes, out);
  RecordRegistryLayer(dfi, out);
}

// ---------------------------------------------------------------------------
// rpc_latency
// ---------------------------------------------------------------------------

constexpr uint32_t kRpcNodes = 8;
constexpr uint32_t kRpcClients = 4;  // on nodes 0-3; servers on nodes 4-7
constexpr uint64_t kRpcRounds = 150000;
constexpr uint32_t kRpcPadBytes = 48;
constexpr char kRpcRequests[] = "bench.rpc.req";
constexpr char kRpcReplies[] = "bench.rpc.resp";

struct RpcMessage {
  uint64_t client;
  uint64_t id;
  uint8_t pad[kRpcPadBytes];
};
static_assert(sizeof(RpcMessage) == 64, "densely packed");

class RpcLatency : public Workload {
 public:
  RpcLatency(uint64_t seed, bool smoke)
      : rounds_(smoke ? kRpcRounds / 64 : kRpcRounds),
        server_of_(kRpcClients),
        pad_(kRpcClients) {
    for (uint32_t c = 0; c < kRpcClients; ++c) {
      Xorshift128Plus rng(SplitMix64(seed * kRpcClients + c));
      server_of_[c].resize(rounds_);
      for (uint8_t& s : server_of_[c]) {
        s = static_cast<uint8_t>(rng.NextBelow(kRpcClients));
      }
      for (uint8_t& b : pad_[c]) b = static_cast<uint8_t>(rng.Next());
    }
  }

  void Rep(RepTrace* trace, RepResult* out) override;

 private:
  void Client(DfiRuntime& dfi, uint32_t c, ActorProbe* probe,
              FailureLatch* latch, LatencyRecorder* latency, SimTime* finish);
  void Server(DfiRuntime& dfi, uint32_t s, ActorProbe* probe,
              FailureLatch* latch);

  const uint64_t rounds_;
  /// Server each client's round goes to, drawn from the seed: clients that
  /// pick the same server queue behind each other.
  std::vector<std::vector<uint8_t>> server_of_;
  std::vector<std::array<uint8_t, kRpcPadBytes>> pad_;  // per-client body
};

void RpcLatency::Rep(RepTrace* trace, RepResult* out) {
  ActorProbe& root = trace->root();
  out->StartSetup();
  net::Fabric fabric;
  const std::vector<std::string> addrs = AddNodes(&fabric, kRpcNodes);
  DfiRuntime dfi(&fabric);
  const std::vector<std::string> client_addrs(addrs.begin(),
                                              addrs.begin() + kRpcClients);
  const std::vector<std::string> server_addrs(addrs.begin() + kRpcClients,
                                              addrs.end());
  const Schema schema{{"client", DataType::kUInt64},
                      {"id", DataType::kUInt64},
                      {"pad", DataType::kChar, kRpcPadBytes}};
  ShuffleFlowSpec req;
  req.name = kRpcRequests;
  req.sources = DfiNodes::GridOf(client_addrs, 1);
  req.targets = DfiNodes::GridOf(server_addrs, 1);
  req.schema = schema;
  req.options.optimization = FlowOptimization::kLatency;
  ShuffleFlowSpec resp = req;
  resp.name = kRpcReplies;
  std::swap(resp.sources, resp.targets);

  const int64_t init_begin = HostNowNs();
  Status init = root.Call(Site::kSetup, nullptr, "InitShuffleFlow", 1,
                          [&] { return dfi.InitShuffleFlow(req); });
  if (init.ok()) {
    init = root.Call(Site::kSetup, nullptr, "InitShuffleFlow", 1,
                     [&] { return dfi.InitShuffleFlow(resp); });
  }
  out->layer["setup.flow_init_ms"] =
      static_cast<double>(HostNowNs() - init_begin) / 1e6;
  if (!init.ok()) {
    out->errors.push_back("InitShuffleFlow: " + init.ToString());
    return;
  }
  out->registered_bytes = MaxRegisteredBytes(dfi);

  std::vector<ActorProbe*> clients, servers;
  for (uint32_t i = 0; i < kRpcClients; ++i) {
    clients.push_back(trace->NewActor("client." + std::to_string(i)));
  }
  for (uint32_t i = 0; i < kRpcClients; ++i) {
    servers.push_back(trace->NewActor("server." + std::to_string(i)));
  }
  FailureLatch latch(&dfi, {kRpcRequests, kRpcReplies}, 2 * kRpcClients);
  std::vector<LatencyRecorder> latencies(kRpcClients);
  std::vector<SimTime> finish(kRpcClients, 0);

  out->StartRun();
  exec::ActorGroup actors;
  for (uint32_t c = 0; c < kRpcClients; ++c) {
    actors.Spawn(c, "client", [&, c] {
      Client(dfi, c, clients[c], &latch, &latencies[c], &finish[c]);
    });
  }
  for (uint32_t s = 0; s < kRpcClients; ++s) {
    actors.Spawn(kRpcClients + s, "server",
                 [&, s] { Server(dfi, s, servers[s], &latch); });
  }
  actors.Join();
  const Status removed = root.Call(Site::kClose, nullptr, "RemoveFlows", 1, [&] {
    return dfi.RemoveFlows({kRpcRequests, kRpcReplies});
  });
  out->StopRun();

  latch.Report(out);
  Expect(removed.ok(), "RemoveFlows: " + removed.ToString(), out);
  for (const LatencyRecorder& l : latencies) out->latency.Merge(l);
  Expect(out->latency.count() == rounds_ * kRpcClients,
         "round trips completed: " + std::to_string(out->latency.count()) +
             " of " + std::to_string(rounds_ * kRpcClients),
         out);
  out->completion = *std::max_element(finish.begin(), finish.end());
  out->useful_bytes = 2.0 * static_cast<double>(sizeof(RpcMessage)) *
                      static_cast<double>(rounds_ * kRpcClients);
  RecordNetLayer(fabric, out->completion, out->useful_bytes, out);
  RecordRegistryLayer(dfi, out);
}

void RpcLatency::Client(DfiRuntime& dfi, uint32_t c, ActorProbe* probe,
                        FailureLatch* latch, LatencyRecorder* latency,
                        SimTime* finish) {
  auto src = probe->Call(Site::kSetup, nullptr, "CreateShuffleSource", 1,
                         [&] { return dfi.CreateShuffleSource(kRpcRequests, c); });
  auto tgt = probe->Call(Site::kSetup, nullptr, "CreateShuffleTarget", 1,
                         [&] { return dfi.CreateShuffleTarget(kRpcReplies, c); });
  if (!src.ok() || !tgt.ok()) {
    return latch->Fail(c, "client endpoints: " + src.status().ToString() +
                              " / " + tgt.status().ToString());
  }
  ShuffleSource& requests = **src;
  ShuffleTarget& replies = **tgt;
  VirtualClock* send_clock = &requests.clock();
  VirtualClock* recv_clock = &replies.clock();
  probe->BeginBody("client", send_clock);
  latency->Reserve(rounds_);
  RpcMessage msg;
  msg.client = c;
  std::memcpy(msg.pad, pad_[c].data(), kRpcPadBytes);
  SegmentView seg;
  for (uint64_t i = 0; i < rounds_; ++i) {
    const SimTime t0 = std::max(send_clock->now(), recv_clock->now());
    send_clock->AdvanceTo(t0);
    msg.id = i;
    const Status sent =
        probe->Call(Site::kPush, send_clock, "PushTo", kPushSpanEvery,
                    [&] { return requests.PushTo(&msg, server_of_[c][i]); });
    if (!sent.ok()) return latch->Fail(c, "PushTo: " + sent.ToString());
    const SimTime before = recv_clock->now();
    const ConsumeResult r =
        probe->Call(Site::kConsume, recv_clock, "ConsumeSegment",
                    kConsumeSpanEvery,
                    [&] { return replies.ConsumeSegment(&seg); });
    if (r != ConsumeResult::kOk) {
      return latch->Fail(c, "reply ConsumeSegment: " +
                                replies.last_status().ToString());
    }
    probe->OnSegment(before, seg, sizeof(RpcMessage));
    RpcMessage reply;
    if (seg.bytes != sizeof(reply)) {
      return latch->Fail(c, "reply of " + std::to_string(seg.bytes) + " B");
    }
    std::memcpy(&reply, seg.payload, sizeof(reply));
    if (reply.client != c || reply.id != i ||
        std::memcmp(reply.pad, msg.pad, kRpcPadBytes) != 0) {
      return latch->Fail(c, "reply for request " + std::to_string(i) +
                                " carries client " +
                                std::to_string(reply.client) + " id " +
                                std::to_string(reply.id));
    }
    latency->Record(recv_clock->now() - t0);
  }
  *finish = recv_clock->now();
  probe->SetFinalClock(recv_clock->now());
  const Status closed = probe->Call(Site::kClose, send_clock, "Close", 1,
                                    [&] { return requests.Close(); });
  if (!closed.ok()) return latch->Fail(c, "Close: " + closed.ToString());
  // Every request was answered, so the reply flow must now only end.
  const ConsumeResult end = replies.ConsumeSegment(&seg);
  if (end != ConsumeResult::kFlowEnd) {
    latch->Fail(c, "reply flow did not end after the last round");
  }
  probe->EndBody(recv_clock);
}

void RpcLatency::Server(DfiRuntime& dfi, uint32_t s, ActorProbe* probe,
                        FailureLatch* latch) {
  const size_t slot = kRpcClients + s;
  auto in = probe->Call(Site::kSetup, nullptr, "CreateShuffleTarget", 1,
                        [&] { return dfi.CreateShuffleTarget(kRpcRequests, s); });
  auto out = probe->Call(Site::kSetup, nullptr, "CreateShuffleSource", 1,
                         [&] { return dfi.CreateShuffleSource(kRpcReplies, s); });
  if (!in.ok() || !out.ok()) {
    return latch->Fail(slot, "server endpoints: " + in.status().ToString() +
                                 " / " + out.status().ToString());
  }
  ShuffleTarget& requests = **in;
  ShuffleSource& replies = **out;
  VirtualClock* recv_clock = &requests.clock();
  VirtualClock* send_clock = &replies.clock();
  probe->BeginBody("server", recv_clock);
  SegmentView seg;
  for (;;) {
    const SimTime before = recv_clock->now();
    const ConsumeResult r =
        probe->Call(Site::kConsume, recv_clock, "ConsumeSegment",
                    kConsumeSpanEvery,
                    [&] { return requests.ConsumeSegment(&seg); });
    if (r == ConsumeResult::kFlowEnd) break;
    if (r != ConsumeResult::kOk) {
      return latch->Fail(slot, "request ConsumeSegment: " +
                                   requests.last_status().ToString());
    }
    probe->OnSegment(before, seg, sizeof(RpcMessage));
    RpcMessage request{kRpcClients, 0, {}};
    if (seg.bytes == sizeof(request)) {
      std::memcpy(&request, seg.payload, sizeof(request));
    }
    if (request.client >= kRpcClients || request.id >= rounds_) {
      return latch->Fail(slot, "malformed request of " +
                                   std::to_string(seg.bytes) + " B");
    }
    const auto client = static_cast<uint32_t>(request.client);
    send_clock->AdvanceTo(recv_clock->now());
    const Status sent = probe->Call(
        Site::kPush, send_clock, "PushTo", kPushSpanEvery, [&] {
          return replies.PushTo(seg.payload, client);
        });
    if (!sent.ok()) return latch->Fail(slot, "PushTo: " + sent.ToString());
    recv_clock->AdvanceTo(send_clock->now());
  }
  probe->SetFinalClock(recv_clock->now());
  const Status closed = probe->Call(Site::kClose, send_clock, "Close", 1,
                                    [&] { return replies.Close(); });
  if (!closed.ok()) latch->Fail(slot, "Close: " + closed.ToString());
  probe->EndBody(recv_clock);
}

}  // namespace

std::unique_ptr<Workload> MakeShuffleBw(uint64_t seed, bool smoke) {
  return std::make_unique<ShuffleBw>(seed, smoke);
}

std::unique_ptr<Workload> MakeRpcLatency(uint64_t seed, bool smoke) {
  return std::make_unique<RpcLatency>(seed, smoke);
}

}  // namespace dfi::benchmark
