#include "ingest/streaming.hpp"

#include <algorithm>
#include <deque>
#include <fstream>
#include <limits>
#include <optional>
#include <queue>
#include <tuple>
#include <utility>

#include "ingest/csv_line.hpp"
#include "ingest/source.hpp"

namespace mpipred::ingest {

namespace {

[[nodiscard]] TimedEvent to_timed(const csv_line::Row& row) {
  return {.time = row.rec.time,
          .event = {.source = row.rec.sender,
                    .destination = row.rank,
                    .tag = static_cast<std::int32_t>(row.rec.kind),
                    .bytes = row.rec.bytes}};
}

}  // namespace

std::size_t VectorEventStream::next_batch(std::size_t max_events, std::vector<TimedEvent>& out) {
  const std::size_t take = std::min(max_events, events_.size() - next_);
  out.insert(out.end(), events_.begin() + static_cast<std::ptrdiff_t>(next_),
             events_.begin() + static_cast<std::ptrdiff_t>(next_ + take));
  next_ += take;
  return take;
}

std::vector<TimedEvent> drain(EventStream& stream, std::size_t batch_events) {
  const std::size_t limit =
      batch_events == 0 ? std::numeric_limits<std::size_t>::max() : batch_events;
  std::vector<TimedEvent> out;
  while (stream.next_batch(limit, out) != 0) {
  }
  return out;
}

std::vector<engine::Event> strip_times(const std::vector<TimedEvent>& events) {
  std::vector<engine::Event> out;
  out.reserve(events.size());
  for (const TimedEvent& te : events) {
    out.push_back(te.event);
  }
  return out;
}

// ---------------------------------------------------------------------------
// CsvStreamReader

struct CsvStreamReader::Impl {
  enum class Mode { NativeMerge, FlatSequential, Materialized, Empty };

  // One contiguous run of data lines with the same (rank, level). `end` is
  // the next section's first data line (or the file size), so a cursor can
  // consume trailing comments without crossing into foreign records.
  struct Section {
    int rank = 0;
    std::uint64_t start = 0;
    std::uint64_t end = 0;
    std::size_t lines_before = 0;
  };

  // A section's own block buffer over the shared file handle, plus its one
  // parsed lookahead.
  struct SectionCursor {
    csv_line::LineReader lines;
    TimedEvent lookahead{};
  };

  // Min-heap entry: the merged order is (time, rank, section file order) —
  // exactly the stable-by-time sort over rank-major record concatenation
  // the materialized path produces.
  struct HeapItem {
    std::int64_t time = 0;
    std::int32_t rank = 0;
    std::uint32_t idx = 0;
  };
  struct HeapGreater {
    bool operator()(const HeapItem& a, const HeapItem& b) const noexcept {
      return std::tie(a.time, a.rank, a.idx) > std::tie(b.time, b.rank, b.idx);
    }
  };

  std::string path;
  csv_line::HeaderInfo header{};
  std::optional<int> declared_nranks;
  int nranks = 1;
  Mode mode = Mode::Empty;

  // The one file handle every reader below pulls its blocks through.
  std::ifstream is;
  csv_line::BlockSource source{is};

  // NativeMerge: one cursor per requested-level section, merged through a
  // min-heap of their lookaheads.
  std::vector<SectionCursor> cursors;
  std::priority_queue<HeapItem, std::vector<HeapItem>, HeapGreater> heap;

  // FlatSequential: a single forward pass plus one timestamp-tie group.
  std::optional<csv_line::LineReader> flat_lines;
  bool file_done = false;
  std::int64_t tie_time = 0;
  std::vector<TimedEvent> tie_group;
  std::deque<TimedEvent> pending;

  // Materialized fallback (layouts the merge cannot stream).
  std::vector<TimedEvent> materialized;
  std::size_t next = 0;

  std::size_t buffered_peak = 0;
  std::size_t buffer_bytes = 0;  // line-buffer bytes the readers hold now
  std::size_t buffer_bytes_peak = 0;

  void note_buffered(std::size_t resident) { buffered_peak = std::max(buffered_peak, resident); }

  /// Books a reader's buffer growing or shrinking from `before` bytes.
  void note_buffer(std::size_t before, std::size_t after) {
    buffer_bytes = buffer_bytes + after - before;
    buffer_bytes_peak = std::max(buffer_bytes_peak, buffer_bytes);
  }

  void open_shared_handle() {
    // Unbuffered: every read is a whole block into a reader's own buffer,
    // and a seek must not throw away a filebuf buffer filled for nothing.
    is.rdbuf()->pubsetbuf(nullptr, 0);
    is.open(path, std::ios::binary);
    if (!is) {
      throw IngestError(
          {.file = path, .line = 0, .field = {}, .reason = "cannot open for reading"});
    }
  }

  /// Parses lines from `lines` up to the next emittable record (skipping
  /// comments, blanks, and unresolved senders — the default stream
  /// filter); nullopt once the reader is exhausted.
  std::optional<TimedEvent> next_event(csv_line::LineReader& lines) {
    const std::size_t before = lines.buffer_bytes();
    std::optional<TimedEvent> out;
    csv_line::Line line;
    while (!out && lines.next(line)) {
      if (line.text.empty() || line.text.front() == '#') {
        continue;
      }
      const csv_line::Cursor at{.file = path, .line = line.number};
      const csv_line::Row row = csv_line::parse_row(line.text, header, declared_nranks, at);
      if (row.rec.sender != trace::kUnresolvedSender) {
        out = to_timed(row);
      }
    }
    note_buffer(before, lines.buffer_bytes());
    return out;
  }

  std::size_t next_batch_native(std::size_t max_events, std::vector<TimedEvent>& out) {
    std::size_t appended = 0;
    while (appended < max_events && !heap.empty()) {
      const HeapItem top = heap.top();
      heap.pop();
      SectionCursor& cursor = cursors[top.idx];
      out.push_back(cursor.lookahead);
      ++appended;
      if (const auto ev = next_event(cursor.lines)) {
        cursor.lookahead = *ev;
        heap.push({.time = ev->time.count(), .rank = top.rank, .idx = top.idx});
      }
    }
    return appended;
  }

  void flush_tie_group() {
    // Ties leave the reader in rank-major order (stable: one receiver's
    // records keep their file order) — the materialized merge's tie rule.
    std::stable_sort(tie_group.begin(), tie_group.end(),
                     [](const TimedEvent& a, const TimedEvent& b) {
                       return a.event.destination < b.event.destination;
                     });
    pending.insert(pending.end(), tie_group.begin(), tie_group.end());
    tie_group.clear();
  }

  std::size_t next_batch_flat(std::size_t max_events, std::vector<TimedEvent>& out) {
    std::size_t appended = 0;
    while (appended < max_events) {
      if (!pending.empty()) {
        out.push_back(pending.front());
        pending.pop_front();
        ++appended;
        continue;
      }
      if (file_done) {
        if (tie_group.empty()) {
          break;
        }
        flush_tie_group();
        continue;
      }
      const auto ev = next_event(*flat_lines);
      if (!ev) {
        file_done = true;
        continue;
      }
      if (!tie_group.empty() && ev->time.count() != tie_time) {
        flush_tie_group();
      }
      tie_time = ev->time.count();
      tie_group.push_back(*ev);
      note_buffered(tie_group.size() + pending.size());
    }
    return appended;
  }

  std::size_t next_batch_materialized(std::size_t max_events, std::vector<TimedEvent>& out) {
    const std::size_t take = std::min(max_events, materialized.size() - next);
    out.insert(out.end(), materialized.begin() + static_cast<std::ptrdiff_t>(next),
               materialized.begin() + static_cast<std::ptrdiff_t>(next + take));
    next += take;
    return take;
  }
};

CsvStreamReader::CsvStreamReader(std::unique_ptr<Impl> impl) : impl_(std::move(impl)) {}
CsvStreamReader::~CsvStreamReader() = default;

std::unique_ptr<CsvStreamReader> CsvStreamReader::open(const std::string& path,
                                                       trace::Level level) {
  auto im = std::make_unique<Impl>();
  im->path = path;

  // Validation scan: every line is checked by the loop the materializing
  // parser runs (one pass, nothing retained), sections are indexed, and
  // the time layout is probed so the merge knows whether it can stream
  // this file.
  std::ifstream scan(path, std::ios::binary);
  if (!scan) {
    throw IngestError({.file = path, .line = 0, .field = {}, .reason = "cannot open for reading"});
  }
  csv_line::BlockSource scan_source(scan);
  csv_line::LineReader lines(scan_source, kBlockBytes);
  int run_rank = -1;
  int run_level = -1;
  std::int64_t run_last_time = 0;
  bool level_mono[trace::kNumLevels] = {true, true};
  bool flat_sorted = true;
  std::int64_t flat_last_time = std::numeric_limits<std::int64_t>::min();
  std::vector<Impl::Section> all_sections;
  std::vector<int> section_levels;
  const csv_line::FileScan file = csv_line::scan_file(
      lines, path,
      [&](const csv_line::Row& row, const csv_line::Line& line, csv_line::Dialect dialect) {
        const std::int64_t time = row.rec.time.count();
        if (dialect == csv_line::Dialect::Flat) {
          flat_sorted = flat_sorted && time >= flat_last_time;
          flat_last_time = time;
          return;
        }
        const int row_level = static_cast<int>(row.level);
        if (row.rank != run_rank || row_level != run_level) {
          all_sections.push_back({.rank = row.rank,
                                  .start = line.offset,
                                  .end = 0,
                                  .lines_before = line.number - 1});
          section_levels.push_back(row_level);
          run_rank = row.rank;
          run_level = row_level;
        } else if (time < run_last_time) {
          level_mono[row_level] = false;
        }
        run_last_time = time;
      });
  im->buffer_bytes_peak = lines.buffer_bytes();  // the scan's block, freed on return
  im->header = file.header;
  im->declared_nranks = file.declared_nranks;
  im->nranks = file.nranks;
  for (std::size_t i = 0; i < all_sections.size(); ++i) {
    all_sections[i].end =
        i + 1 < all_sections.size() ? all_sections[i + 1].start : lines.position();
  }

  const int level_int = static_cast<int>(level);
  std::vector<Impl::Section> mine;
  if (file.header.dialect == csv_line::Dialect::Flat) {
    if (level != trace::Level::Physical) {
      im->mode = Impl::Mode::Empty;
    } else if (flat_sorted) {
      im->mode = Impl::Mode::FlatSequential;
    } else {
      im->mode = Impl::Mode::Materialized;
    }
  } else {
    for (std::size_t i = 0; i < all_sections.size(); ++i) {
      if (section_levels[i] == level_int) {
        mine.push_back(all_sections[i]);
      }
    }
    if (level_mono[level_int] && all_sections.size() <= kMaxStreamSections) {
      im->mode = Impl::Mode::NativeMerge;
    } else {
      im->mode = Impl::Mode::Materialized;
    }
  }

  switch (im->mode) {
    case Impl::Mode::NativeMerge: {
      im->open_shared_handle();
      im->cursors.reserve(mine.size());
      const std::size_t block =
          std::min(kBlockBytes, kBufferBudgetBytes / std::max<std::size_t>(mine.size(), 1));
      for (std::uint32_t i = 0; i < mine.size(); ++i) {
        const Impl::Section& section = mine[i];
        im->cursors.push_back({.lines = csv_line::LineReader(im->source, block,
                                                             section.start, section.lines_before,
                                                             section.end)});
        if (const auto ev = im->next_event(im->cursors.back().lines)) {
          im->cursors.back().lookahead = *ev;
          im->heap.push({.time = ev->time.count(), .rank = section.rank, .idx = i});
        }
      }
      im->note_buffered(im->heap.size());
      break;
    }
    case Impl::Mode::FlatSequential: {
      im->open_shared_handle();
      im->flat_lines.emplace(im->source, kBlockBytes, file.data_start, file.header_line);
      break;
    }
    case Impl::Mode::Materialized: {
      // This layout (unsorted flat file, native section with non-monotone
      // times, or a section blow-up) cannot be merged incrementally; fall
      // back to the materializing parser's own stream adapter so the
      // emitted order is the non-streamed path's by construction.
      im->materialized = drain(*open_trace(path)->stream_events(level));
      im->note_buffered(im->materialized.size());
      break;
    }
    case Impl::Mode::Empty:
      break;
  }
  return std::unique_ptr<CsvStreamReader>(new CsvStreamReader(std::move(im)));
}

std::size_t CsvStreamReader::next_batch(std::size_t max_events, std::vector<TimedEvent>& out) {
  switch (impl_->mode) {
    case Impl::Mode::NativeMerge:
      return impl_->next_batch_native(max_events, out);
    case Impl::Mode::FlatSequential:
      return impl_->next_batch_flat(max_events, out);
    case Impl::Mode::Materialized:
      return impl_->next_batch_materialized(max_events, out);
    case Impl::Mode::Empty:
      return 0;
  }
  return 0;
}

bool CsvStreamReader::streaming() const noexcept {
  return impl_->mode != Impl::Mode::Materialized;
}

std::size_t CsvStreamReader::peak_buffered_events() const noexcept { return impl_->buffered_peak; }

std::size_t CsvStreamReader::peak_buffered_bytes() const noexcept {
  return impl_->buffer_bytes_peak;
}

int CsvStreamReader::nranks() const noexcept { return impl_->nranks; }

std::unique_ptr<EventStream> open_event_stream(const std::string& path, trace::Level level) {
  return CsvStreamReader::open(path, level);
}

// ---------------------------------------------------------------------------
// StreamingReplay

StreamedRun StreamingReplay::run(EventStream& stream) const {
  engine::PredictionEngine eng(engine);
  return run_into(stream, eng, batch_events);
}

}  // namespace mpipred::ingest
