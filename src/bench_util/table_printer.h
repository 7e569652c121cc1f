#ifndef DFI_BENCH_UTIL_TABLE_PRINTER_H_
#define DFI_BENCH_UTIL_TABLE_PRINTER_H_

#include <string>
#include <vector>

namespace dfi::bench {

/// Prints paper-style result tables with aligned columns:
///
///   TablePrinter t({"tuple size", "1 thread", "2 threads", "4 threads"});
///   t.AddRow({"64 B", "3.71 GiB/s", "7.41 GiB/s", "11.64 GiB/s"});
///   t.Print();
class TablePrinter {
 public:
  explicit TablePrinter(std::vector<std::string> header);

  void AddRow(std::vector<std::string> row);

  /// Host-measured cells (wall time and rates derived from it) vary from
  /// run to run, unlike virtual time and counts. `--json` lists them, and
  /// scripts/bench_diff.py reports them as trends instead of differences.
  /// Marks the columns with these headers as host-measured.
  void MarkHostColumns(std::vector<std::string> headers);
  /// Adds a row whose cells are all host-measured.
  void AddHostRow(std::vector<std::string> row);

  /// Writes the table to stdout.
  void Print() const;

  /// Renders to a string (used by tests).
  std::string ToString() const;

 private:
  std::vector<std::vector<std::string>> rows_;
  std::vector<std::string> host_columns_;
  std::vector<std::string> host_rows_;  // labels (first cells)
};

/// Prints a benchmark section header ("=== Figure 7a: ... ===").
void PrintSection(const std::string& title);

/// Machine-readable result capture (the `--json` bench flag). When enabled,
/// PrintSection and TablePrinter::Print additionally record their
/// sections/tables into a process-wide collector; WriteJsonResults
/// serializes everything captured so far as
/// `{"sections": [{"title", "tables": [{"header", "rows", "host_columns",
///                                      "host_rows"}],
///                 "metrics": [{"name", "value", "unit", "host"}]}]}`,
/// where the host declarations (header names, row labels, `"host": true`)
/// appear only when some cell is host-measured.
void EnableResultCapture();
bool ResultCaptureEnabled();

/// Records one headline scalar of the current section — the numbers the
/// bench epilogues state in prose (peak bandwidth, speedup, match count) —
/// so CI reads them from the JSON without parsing formatted table cells.
/// `host` marks a host-measured value (see TablePrinter::MarkHostColumns).
/// No-op unless capture is enabled.
void RecordMetric(const std::string& name, double value,
                  const std::string& unit, bool host = false);

/// Writes the captured results as JSON to `path`. Returns false on I/O
/// failure.
bool WriteJsonResults(const std::string& path);

}  // namespace dfi::bench

#endif  // DFI_BENCH_UTIL_TABLE_PRINTER_H_
