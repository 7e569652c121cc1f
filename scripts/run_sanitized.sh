#!/usr/bin/env bash
# Sanitized CI job: builds everything with
# -DDFI_SANITIZE=<address|undefined|thread> and runs the full test suite
# (tier-1 plus the chaos suite) and the chaos consensus bench. Zero reports
# is the acceptance bar — teardown/poison code is where lifetime bugs hide.
# The emulator runs on one OS thread, so `thread` has no data race to find
# unless some code starts a second thread (benches and
# engine_determinism_test also fail outright when one is left running).
set -euo pipefail

KIND="${1:-address}"
ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD="$ROOT/build-$KIND"

cmake -B "$BUILD" -S "$ROOT" -DDFI_SANITIZE="$KIND" \
      -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "$BUILD" -j "$(nproc)"

# Make sanitizer findings fatal and loud. ASan fills only the first 4 KiB
# of an allocation by default; filling all of it makes every never-written
# heap byte read 0xbe. Registered regions and MPI windows are left
# uninitialized, and their owners write each word the protocol reads
# before anyone writes it: a missed one then fails a test at once instead
# of reading the zero a fresh page happens to hold.
export ASAN_OPTIONS="${ASAN_OPTIONS:-abort_on_error=1:detect_leaks=1:max_malloc_fill_size=2147483647}"
export UBSAN_OPTIONS="${UBSAN_OPTIONS:-halt_on_error=1:print_stacktrace=1}"
export TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1:second_deadlock_stack=1}"

ctest --test-dir "$BUILD" --output-on-failure -j "$(nproc)"
# The unified transport layer (FlowEndpoint/FlowSink) concentrates the
# ring/teardown lifetime hazards the sanitizers exist for — rerun its suite
# standalone with shuffling and repetition.
"$BUILD/tests/core_endpoint_test" --gtest_repeat=5 --gtest_shuffle
# The replicated control plane: failover promotion and the exactly-once
# dedup window are lifetime-prone by construction — rerun the suite
# shuffled.
"$BUILD/tests/registry_service_test" --gtest_repeat=3 --gtest_shuffle
# Adaptive shuffle: sink-side work stealing shares columns between target
# actors and hot-key migration rewires routing mid-flow — both are prime
# lifetime territory, so shake the property suite too.
"$BUILD/tests/core_adaptive_shuffle_property_test" --gtest_repeat=3 --gtest_shuffle
# Target-side cursors live in the channel matrix's columns as long as the
# flow, not as long as the sink that drains them, and these suites tear
# flows down in the middle of a consume: shake them.
"$BUILD/tests/core_shuffle_test" --gtest_repeat=3 --gtest_shuffle
"$BUILD/tests/core_replicate_test" --gtest_repeat=3 --gtest_shuffle
"$BUILD/tests/chaos_flow_test" --gtest_repeat=3 --gtest_shuffle
# Destroying an RdmaEnv destroys its device contexts first, whose regions
# and UD queue pairs deregister from the env's directories (the rkey
# directory is a plain array): shake the verbs suites' teardown order.
"$BUILD/tests/rdma_test" --gtest_repeat=3 --gtest_shuffle
# The link scheduler keeps its gaps in a gap buffer: raw index arithmetic
# over memmove, checked against a map-based reference on seeded streams.
"$BUILD/tests/net_test" --gtest_filter='LinkScheduler*' --gtest_repeat=3 --gtest_shuffle
if [ "$KIND" = "thread" ] || [ "$KIND" = "address" ]; then
  # The engine's fiber switch is hand-written: ASan tracks fiber stacks only
  # through the engine's own annotations and stack unpoisoning, TSan models
  # every fiber as a thread of its own. Repeat the scheduler unit tests
  # shuffled.
  "$BUILD/tests/exec_engine_test" --gtest_repeat=10 --gtest_shuffle
fi
if [ "$KIND" = "thread" ]; then
  # TSan focus: the determinism suite — every park/wake handoff in the
  # emulator runs under the race detector, with fibers as its threads.
  "$BUILD/tests/engine_determinism_test" --gtest_repeat=3
fi
# The combiner target folds each segment in batches: hashed keys, group
# indices and prefetches sit in fixed per-batch arrays, and the group table
# may double in the middle of a batch — shake both combiner suites.
"$BUILD/tests/core_combiner_test" --gtest_repeat=3 --gtest_shuffle
"$BUILD/tests/core_combiner_property_test" --gtest_repeat=3 --gtest_shuffle
# The fused DFI join, the MPI join, the replicate join and the graph kJoin
# share one two-sided radix join table (RadixJoinTable), whose one hash map
# serves every partition through Clear: shake the join suite and the
# table's unit tests.
"$BUILD/tests/join_test" --gtest_repeat=3 --gtest_shuffle
"$BUILD/tests/common_test" \
  --gtest_filter='FlatHashMap*:RadixJoinTable*:LocalBucket*' \
  --gtest_repeat=3 --gtest_shuffle
"$BUILD/bench/chaos_consensus" --seed "${DFI_CHAOS_SEED:-7}"
# The graph layer: one batched publish per graph, whole-graph poison on
# operator failure, and per-edge handle teardown — run the graph suite and
# the multi-stage pipeline (source/window/aggregate/subscriber actors over
# four flows) under the sanitizer, plus the examples so they can't rot.
"$BUILD/tests/core_graph_test" --gtest_repeat=3 --gtest_shuffle
"$BUILD/bench/pipeline_streaming"
"$BUILD/examples/quickstart"
"$BUILD/examples/stream_aggregation"
"$BUILD/examples/distributed_join"
"$BUILD/examples/replicated_kv"
echo "sanitized ($KIND) tier-1 + endpoint + graph + chaos suite passed"
