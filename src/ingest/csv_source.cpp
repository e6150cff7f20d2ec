#include "ingest/csv_source.hpp"

#include <algorithm>
#include <istream>
#include <optional>
#include <string_view>
#include <vector>

#include "engine/engine.hpp"
#include "ingest/csv_line.hpp"
#include "ingest/streaming.hpp"

namespace mpipred::ingest {

std::unique_ptr<CsvTraceSource> CsvTraceSource::parse(std::istream& is, const std::string& file) {
  csv_line::Cursor at{.file = file};
  std::optional<int> declared_nranks;
  std::optional<csv_line::HeaderInfo> header;
  csv_line::BlockSource source(is);
  csv_line::LineReader lines(source, CsvStreamReader::kBlockBytes);
  csv_line::Line line;

  // Preamble: directives and comments up to the header line.
  while (lines.next(line)) {
    at.line = line.number;
    if (line.text.empty()) {
      continue;
    }
    if (line.text.front() == '#') {
      csv_line::handle_directive(csv_line::trim(line.text.substr(1)), declared_nranks, at);
      continue;
    }
    header = csv_line::match_header(line.text);
    if (!header) {
      csv_line::reject_header(line.text, at);
    }
    break;
  }
  if (!header) {
    throw IngestError({.file = file, .line = 0, .field = {}, .reason = "no header line found"});
  }

  // Data lines: parse and validate everything before building the store,
  // so the rank count can be inferred when the file does not declare it.
  std::vector<csv_line::Row> rows;
  std::int32_t max_rank = -1;
  while (lines.next(line)) {
    at.line = line.number;
    if (line.text.empty() || line.text.front() == '#') {
      continue;  // blanks and comments between data lines
    }
    const csv_line::Row row = csv_line::parse_row(line.text, *header, declared_nranks, at);
    max_rank = std::max({max_rank, static_cast<std::int32_t>(row.rank), row.rec.sender});
    rows.push_back(row);
  }

  const int nranks = declared_nranks.value_or(std::max(max_rank + 1, 1));
  trace::TraceStore store(nranks);
  for (const csv_line::Row& row : rows) {
    store.append(row.rank, row.level, row.rec);
  }
  const Dialect dialect =
      header->dialect == csv_line::Dialect::Native ? Dialect::Native : Dialect::Flat;
  return std::unique_ptr<CsvTraceSource>(new CsvTraceSource(dialect, std::move(store)));
}

std::string_view CsvTraceSource::format() const noexcept {
  return dialect_ == Dialect::Native ? "csv" : "csv-flat";
}

std::vector<trace::Level> CsvTraceSource::levels() const {
  if (dialect_ == Dialect::Flat) {
    return {trace::Level::Physical};
  }
  return {trace::Level::Logical, trace::Level::Physical};
}

std::vector<engine::Event> CsvTraceSource::events(trace::Level level) const {
  const auto available = levels();
  if (std::find(available.begin(), available.end(), level) == available.end()) {
    return {};
  }
  return engine::events_from_trace(store_, level);
}

void register_csv_formats(TraceFormatRegistry& registry) {
  const auto open_stream = [](const std::string& path, trace::Level level) {
    return std::unique_ptr<EventStream>(CsvStreamReader::open(path, level));
  };
  registry.add({.name = "csv",
                .matches =
                    [](std::string_view header) { return header == csv_line::kNativeHeader; },
                .open =
                    [](std::istream& is, const std::string& file) {
                      return std::unique_ptr<TraceSource>(CsvTraceSource::parse(is, file));
                    },
                .open_stream = open_stream});
  registry.add({.name = "csv-flat",
                .matches =
                    [](std::string_view header) {
                      return header == csv_line::kFlatHeader ||
                             header == csv_line::kFlatHeaderKind;
                    },
                .open =
                    [](std::istream& is, const std::string& file) {
                      return std::unique_ptr<TraceSource>(CsvTraceSource::parse(is, file));
                    },
                .open_stream = open_stream});
}

}  // namespace mpipred::ingest
