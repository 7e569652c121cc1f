// Quickstart: the paper's Figure 1 end to end — initialize a shuffle flow,
// push tuples from one source actor and consume them on two target actors,
// key-partitioned. Every emulated actor is a task of an exec::Engine.
//
//   $ ./build/examples/quickstart

#include <cstdio>

#include "core/dfi.h"

using namespace dfi;  // NOLINT: example brevity

int main() {
  // The emulated cluster: three nodes on a 100 Gbps fabric.
  net::Fabric fabric;
  (void)fabric.AddNode("192.168.0.1");
  (void)fabric.AddNode("192.168.0.2");
  (void)fabric.AddNode("192.168.0.3");
  DfiRuntime dfi(&fabric);

  // --- Flow initialization (paper Figure 1) -------------------------------
  //   DFI_Nodes n({"192.168.0.1|0", ...});
  //   DFI_Schema schema({"key", int}, {"value", int});
  //   DFI_Flow_init(name, {n[0]}, {n[1], n[2]}, schema, 0);
  ShuffleFlowSpec spec;
  spec.name = "quickstart";
  spec.sources = DfiNodes({"192.168.0.1|0"});
  spec.targets = DfiNodes({"192.168.0.2|0", "192.168.0.3|0"});
  spec.schema = Schema{{"key", DataType::kInt64}, {"value", DataType::kInt64}};
  spec.shuffle_key_index = 0;  // shuffle on "key"
  DFI_CHECK_OK(dfi.InitShuffleFlow(std::move(spec)));

  // --- Flow execution ------------------------------------------------------
  struct Tuple {
    int64_t key;
    int64_t value;
  };

  // Source actor: push tuples; push is asynchronous and returns as soon as
  // the tuple is staged in the send buffer.
  exec::Engine engine;
  engine.Spawn(0, "source", [&] {
    auto source = dfi.CreateShuffleSource("quickstart", 0);
    DFI_CHECK(source.ok());
    for (int64_t i = 0; i < 8; ++i) {
      Tuple tuple{i, i * 10};
      DFI_CHECK_OK((*source)->Push(&tuple));
    }
    DFI_CHECK_OK((*source)->Close());  // end-of-flow to both targets
  });

  // Two target actors: consume until FLOW_END.
  for (uint32_t t = 0; t < 2; ++t) {
    engine.Spawn(t, "target", [&, t] {
      auto target = dfi.CreateShuffleTarget("quickstart", t);
      DFI_CHECK(target.ok());
      TupleView tuple;
      while ((*target)->Consume(&tuple) != ConsumeResult::kFlowEnd) {
        std::printf("target %u consumed {%lld, %lld}\n", t,
                    static_cast<long long>(tuple.Get<int64_t>(0)),
                    static_cast<long long>(tuple.Get<int64_t>(1)));
      }
      std::printf("target %u: FLOW_END at virtual time %s\n", t,
                  FormatDuration((*target)->clock().now()).c_str());
    });
  }

  engine.Run();  // returns when every actor has finished
  return 0;
}
