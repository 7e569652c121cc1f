#include "bench_util/table_printer.h"

#include <algorithm>
#include <cstdio>
#include <utility>

namespace dfi::bench {
namespace {

/// Process-wide collector behind the `--json` bench flag. Benches are
/// single-threaded reporters (tables are printed from main), so no locking.
struct JsonTable {
  std::vector<std::string> header;
  std::vector<std::vector<std::string>> rows;
  std::vector<std::string> host_columns;
  std::vector<std::string> host_rows;
};
struct JsonMetric {
  std::string name;
  double value = 0;
  std::string unit;
  bool host = false;
};
struct JsonSection {
  std::string title;
  std::vector<JsonTable> tables;
  std::vector<JsonMetric> metrics;
};
struct Collector {
  bool enabled = false;
  std::vector<JsonSection> sections;
};

Collector& collector() {
  static Collector c;
  return c;
}

void AppendJsonString(std::string* out, const std::string& s) {
  out->push_back('"');
  for (char ch : s) {
    switch (ch) {
      case '"':
        *out += "\\\"";
        break;
      case '\\':
        *out += "\\\\";
        break;
      case '\n':
        *out += "\\n";
        break;
      case '\t':
        *out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(ch) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", ch);
          *out += buf;
        } else {
          out->push_back(ch);
        }
    }
  }
  out->push_back('"');
}

void AppendJsonStringArray(std::string* out,
                           const std::vector<std::string>& items) {
  out->push_back('[');
  for (size_t i = 0; i < items.size(); ++i) {
    if (i > 0) out->push_back(',');
    AppendJsonString(out, items[i]);
  }
  out->push_back(']');
}

}  // namespace

TablePrinter::TablePrinter(std::vector<std::string> header) {
  rows_.push_back(std::move(header));
}

void TablePrinter::AddRow(std::vector<std::string> row) {
  rows_.push_back(std::move(row));
}

void TablePrinter::MarkHostColumns(std::vector<std::string> headers) {
  host_columns_ = std::move(headers);
}

void TablePrinter::AddHostRow(std::vector<std::string> row) {
  host_rows_.push_back(row.front());
  AddRow(std::move(row));
}

std::string TablePrinter::ToString() const {
  std::vector<size_t> widths;
  for (const auto& row : rows_) {
    if (widths.size() < row.size()) widths.resize(row.size(), 0);
    for (size_t c = 0; c < row.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  std::string out;
  for (size_t r = 0; r < rows_.size(); ++r) {
    for (size_t c = 0; c < rows_[r].size(); ++c) {
      out += rows_[r][c];
      if (c + 1 < rows_[r].size()) {
        out.append(widths[c] - rows_[r][c].size() + 2, ' ');
      }
    }
    out += '\n';
    if (r == 0) {
      size_t total = 0;
      for (size_t c = 0; c < widths.size(); ++c) {
        total += widths[c] + (c + 1 < widths.size() ? 2 : 0);
      }
      out.append(total, '-');
      out += '\n';
    }
  }
  return out;
}

void TablePrinter::Print() const {
  std::fputs(ToString().c_str(), stdout);
  Collector& c = collector();
  if (!c.enabled) return;
  // Tables printed before any PrintSection land in an untitled section.
  if (c.sections.empty()) c.sections.emplace_back();
  JsonTable table;
  table.header = rows_.front();
  table.rows.assign(rows_.begin() + 1, rows_.end());
  table.host_columns = host_columns_;
  table.host_rows = host_rows_;
  c.sections.back().tables.push_back(std::move(table));
}

void PrintSection(const std::string& title) {
  std::printf("\n=== %s ===\n", title.c_str());
  Collector& c = collector();
  if (c.enabled) c.sections.push_back(JsonSection{title, {}, {}});
}

void RecordMetric(const std::string& name, double value,
                  const std::string& unit, bool host) {
  Collector& c = collector();
  if (!c.enabled) return;
  if (c.sections.empty()) c.sections.emplace_back();
  c.sections.back().metrics.push_back(JsonMetric{name, value, unit, host});
}

void EnableResultCapture() { collector().enabled = true; }

bool ResultCaptureEnabled() { return collector().enabled; }

bool WriteJsonResults(const std::string& path) {
  std::string out = "{\"sections\":[";
  const Collector& c = collector();
  for (size_t s = 0; s < c.sections.size(); ++s) {
    if (s > 0) out.push_back(',');
    out += "{\"title\":";
    AppendJsonString(&out, c.sections[s].title);
    out += ",\"tables\":[";
    const auto& tables = c.sections[s].tables;
    for (size_t t = 0; t < tables.size(); ++t) {
      if (t > 0) out.push_back(',');
      out += "{\"header\":";
      AppendJsonStringArray(&out, tables[t].header);
      out += ",\"rows\":[";
      for (size_t r = 0; r < tables[t].rows.size(); ++r) {
        if (r > 0) out.push_back(',');
        AppendJsonStringArray(&out, tables[t].rows[r]);
      }
      out += "]";
      if (!tables[t].host_columns.empty()) {
        out += ",\"host_columns\":";
        AppendJsonStringArray(&out, tables[t].host_columns);
      }
      if (!tables[t].host_rows.empty()) {
        out += ",\"host_rows\":";
        AppendJsonStringArray(&out, tables[t].host_rows);
      }
      out += "}";
    }
    out += "],\"metrics\":[";
    const auto& metrics = c.sections[s].metrics;
    for (size_t m = 0; m < metrics.size(); ++m) {
      if (m > 0) out.push_back(',');
      out += "{\"name\":";
      AppendJsonString(&out, metrics[m].name);
      char value[64];
      std::snprintf(value, sizeof(value), "%.10g", metrics[m].value);
      out += ",\"value\":";
      out += value;
      out += ",\"unit\":";
      AppendJsonString(&out, metrics[m].unit);
      if (metrics[m].host) out += ",\"host\":true";
      out += "}";
    }
    out += "]}";
  }
  out += "]}\n";

  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const bool ok = std::fwrite(out.data(), 1, out.size(), f) == out.size();
  return std::fclose(f) == 0 && ok;
}

}  // namespace dfi::bench
