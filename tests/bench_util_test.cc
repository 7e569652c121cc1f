#include <gtest/gtest.h>

#include <fstream>
#include <iterator>

#include "bench_util/table_printer.h"
#include "bench_util/workload.h"

namespace dfi::bench {
namespace {

TEST(TablePrinterTest, AlignsColumns) {
  TablePrinter t({"a", "long header", "c"});
  t.AddRow({"wide value", "x", "y"});
  const std::string out = t.ToString();
  // Header line, separator, one data row.
  EXPECT_NE(out.find("a           long header  c"), std::string::npos) << out;
  EXPECT_NE(out.find("wide value  x            y"), std::string::npos) << out;
  EXPECT_NE(out.find("---"), std::string::npos);
}

TEST(TablePrinterTest, RaggedRowsDoNotCrash) {
  TablePrinter t({"a", "b"});
  t.AddRow({"1"});
  t.AddRow({"1", "2", "3"});
  EXPECT_FALSE(t.ToString().empty());
}

TEST(TablePrinterTest, JsonCaptureIncludesMetrics) {
  // The collector is process-wide, so this test owns everything captured.
  EXPECT_FALSE(ResultCaptureEnabled());
  RecordMetric("dropped before enable", 1.0, "x");  // must be a no-op
  EnableResultCapture();
  PrintSection("section one");
  RecordMetric("peak bandwidth", 11.64, "GiB/s");
  RecordMetric("speedup", 2.5, "x");
  RecordMetric("wall", 0.5, "s", /*host=*/true);
  TablePrinter table({"mode", "virtual time", "wall time"});
  table.MarkHostColumns({"wall time"});
  table.AddRow({"push", "1.00 ms", "2.00 ms"});
  table.AddHostRow({"speedup", "1.5x", "1.5x"});
  table.Print();
  const std::string path = ::testing::TempDir() + "/metrics.json";
  ASSERT_TRUE(WriteJsonResults(path));
  std::ifstream in(path);
  std::string json((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  EXPECT_NE(json.find("\"title\":\"section one\""), std::string::npos)
      << json;
  EXPECT_NE(json.find("{\"name\":\"peak bandwidth\",\"value\":11.64,"
                      "\"unit\":\"GiB/s\"}"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"speedup\""), std::string::npos);
  EXPECT_EQ(json.find("dropped before enable"), std::string::npos);
  // Host-measured cells are declared; virtual ones carry no flag.
  EXPECT_NE(json.find("{\"name\":\"wall\",\"value\":0.5,\"unit\":\"s\","
                      "\"host\":true}"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"host_columns\":[\"wall time\"],"
                      "\"host_rows\":[\"speedup\"]}"),
            std::string::npos)
      << json;
  EXPECT_EQ(json.find("\"unit\":\"x\",\"host\""), std::string::npos);
}

TEST(WorkloadTest, ForeignKeyRelationInDomain) {
  auto rel = GenerateForeignKeyRelation(5000, 128, 3);
  ASSERT_EQ(rel.size(), 5000u);
  for (const auto& t : rel) {
    EXPECT_LT(t.key, 128u);
  }
}

TEST(WorkloadTest, YcsbKeysInSpace) {
  auto reqs = GenerateYcsbRequests(1000, 50, 0.5, 0.99, 4);
  for (const auto& r : reqs) {
    EXPECT_LT(r.key, 50u);
  }
}

TEST(WorkloadTest, YcsbZipfSkewsKeys) {
  auto reqs = GenerateYcsbRequests(20000, 1000, 0.0, 0.99, 5);
  size_t low = 0;
  for (const auto& r : reqs) {
    if (r.key < 10) ++low;
  }
  // With theta=0.99 the 1% hottest keys draw far more than 1% of accesses.
  EXPECT_GT(low, 20000u / 20);
}

TEST(WorkloadTest, DistinctSeedsDistinctStreams) {
  auto a = GenerateUniformRelation(100, 1000000, 1);
  auto b = GenerateUniformRelation(100, 1000000, 2);
  size_t same = 0;
  for (size_t i = 0; i < 100; ++i) {
    if (a[i].key == b[i].key) ++same;
  }
  EXPECT_LT(same, 5u);
}

}  // namespace
}  // namespace dfi::bench
