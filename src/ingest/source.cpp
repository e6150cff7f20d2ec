#include "ingest/source.hpp"

#include <algorithm>
#include <fstream>
#include <istream>
#include <utility>

#include "engine/engine.hpp"
#include "ingest/csv_line.hpp"
#include "ingest/streaming.hpp"
#include "trace/merge.hpp"

namespace mpipred::ingest {

std::string_view TraceSource::format() const noexcept {
  return dialect_ == csv_line::Dialect::Native ? "csv" : "csv-flat";
}

std::vector<trace::Level> TraceSource::levels() const {
  if (dialect_ == csv_line::Dialect::Flat) {
    return {trace::Level::Physical};
  }
  return {trace::Level::Logical, trace::Level::Physical};
}

std::vector<engine::Event> TraceSource::events(trace::Level level) const {
  const auto available = levels();
  if (std::find(available.begin(), available.end(), level) == available.end()) {
    return {};
  }
  return engine::events_from_trace(store_, level);
}

std::unique_ptr<EventStream> TraceSource::stream_events(trace::Level level) const {
  const auto merged = trace::merged_records(store_, level);
  std::vector<TimedEvent> timed;
  timed.reserve(merged.size());
  for (const trace::MergedRecord& rec : merged) {
    timed.push_back({.time = rec.time,
                     .event = {.source = rec.sender,
                               .destination = rec.receiver,
                               .tag = static_cast<std::int32_t>(rec.kind),
                               .bytes = rec.bytes}});
  }
  return std::make_unique<VectorEventStream>(std::move(timed), /*time_ordered=*/true);
}

std::string to_string(const Diagnostic& d) {
  std::string out = d.file;
  if (d.line != 0) {
    out += ':';
    out += std::to_string(d.line);
  }
  out += ": ";
  if (!d.field.empty()) {
    out += "field '";
    out += d.field;
    out += "': ";
  }
  out += d.reason;
  return out;
}

std::unique_ptr<TraceSource> open_trace_stream(std::istream& is, const std::string& label) {
  // Every row is validated before the store is built, so the rank count
  // can be inferred when the file does not declare it.
  csv_line::BlockSource source(is);
  csv_line::LineReader lines(source, CsvStreamReader::kBlockBytes);
  std::vector<csv_line::Row> rows;
  const csv_line::FileScan scan = csv_line::scan_file(
      lines, label,
      [&rows](const csv_line::Row& row, const csv_line::Line&, csv_line::Dialect) {
        rows.push_back(row);
      });
  trace::TraceStore store(scan.nranks);
  for (const csv_line::Row& row : rows) {
    store.append(row.rank, row.level, row.rec);
  }
  return std::make_unique<TraceSource>(scan.header.dialect, std::move(store));
}

std::unique_ptr<TraceSource> open_trace(const std::string& path) {
  std::ifstream is(path);
  if (!is) {
    throw IngestError({.file = path, .line = 0, .field = {}, .reason = "cannot open for reading"});
  }
  return open_trace_stream(is, path);
}

}  // namespace mpipred::ingest
