#include "obs/trace_table.hpp"

#include <cstdio>
#include <fstream>
#include <stdexcept>

#include "util/check.hpp"

namespace circles::obs {

namespace {

/// Shared by the CSV and JSONL sinks. %.17g: traces feed regression
/// comparisons, so a value must survive the write/parse round trip
/// bit-exactly (column names are code-controlled identifiers, so no
/// escaping either).
std::string format_cell(double v) {
  char buffer[40];
  std::snprintf(buffer, sizeof(buffer), "%.17g", v);
  return buffer;
}

}  // namespace

double TraceTable::at(std::size_t row, std::size_t col) const {
  CIRCLES_CHECK_MSG(row < num_rows() && col < num_columns(),
                    "TraceTable cell out of range");
  return data[row * columns.size() + col];
}

std::span<const double> TraceTable::row(std::size_t row) const {
  CIRCLES_CHECK_MSG(row < num_rows(), "TraceTable row out of range");
  return {data.data() + row * columns.size(), columns.size()};
}

void TraceTable::add_row(std::span<const double> cells) {
  CIRCLES_CHECK_MSG(cells.size() == columns.size(),
                    "TraceTable row width does not match the header");
  data.insert(data.end(), cells.begin(), cells.end());
}

std::size_t TraceTable::column_index(const std::string& name) const {
  for (std::size_t i = 0; i < columns.size(); ++i) {
    if (columns[i] == name) return i;
  }
  throw std::invalid_argument("TraceTable has no column '" + name + "'");
}

std::vector<double> TraceTable::column(std::size_t index) const {
  CIRCLES_CHECK_MSG(index < num_columns(), "TraceTable column out of range");
  std::vector<double> out;
  out.reserve(num_rows());
  for (std::size_t r = 0; r < num_rows(); ++r) out.push_back(at(r, index));
  return out;
}

std::string TraceTable::to_csv() const {
  std::string out;
  for (std::size_t c = 0; c < columns.size(); ++c) {
    if (c) out += ',';
    out += columns[c];
  }
  out += '\n';
  for (std::size_t r = 0; r < num_rows(); ++r) {
    for (std::size_t c = 0; c < columns.size(); ++c) {
      if (c) out += ',';
      out += format_cell(at(r, c));
    }
    out += '\n';
  }
  return out;
}

std::string TraceTable::to_jsonl() const {
  std::string out;
  for (std::size_t r = 0; r < num_rows(); ++r) {
    out += '{';
    for (std::size_t c = 0; c < columns.size(); ++c) {
      if (c) out += ',';
      out += '"';
      out += columns[c];
      out += "\":";
      out += format_cell(at(r, c));
    }
    out += "}\n";
  }
  return out;
}

namespace {

void write_file(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw std::runtime_error("cannot open trace file: " + path);
  out << content;
  if (!out) throw std::runtime_error("failed writing trace file: " + path);
}

}  // namespace

void TraceTable::write_csv(const std::string& path) const {
  write_file(path, to_csv());
}

void TraceTable::write_jsonl(const std::string& path) const {
  write_file(path, to_jsonl());
}

}  // namespace circles::obs
