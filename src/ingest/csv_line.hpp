#pragma once

// Line-level reading and grammar of the two ingest CSV dialects, shared
// by the materializing parser (csv_source.cpp) and the incremental
// streaming reader (streaming.cpp), so the two paths can never drift on
// how a file splits into lines or on what a valid preamble directive,
// header, or data line is. Internal to src/ingest/; consumers outside the
// ingest boundary go through TraceSource or EventStream instead.

#include <algorithm>
#include <array>
#include <charconv>
#include <cstdint>
#include <cstring>
#include <istream>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "ingest/source.hpp"
#include "trace/csv.hpp"
#include "trace/event.hpp"

namespace mpipred::ingest::csv_line {

inline constexpr std::string_view kNativeHeader = trace::kCsvHeader;
inline constexpr std::string_view kFlatHeader = "time_ns,sender,receiver,bytes";
inline constexpr std::string_view kFlatHeaderKind = "time_ns,sender,receiver,bytes,kind";

inline constexpr std::string_view kSupportedVersion = "v1";

/// Ceiling on rank values a file may declare or use. The rank count sizes
/// the TraceStore, so a hostile value must become a diagnostic here — not
/// signed overflow, an allocation failure, or a TraceStore assert (the
/// boundary promise is "never an abort"). 2^22 ranks is an order of
/// magnitude beyond the largest real MPI jobs.
inline constexpr std::int32_t kMaxRanks = 1 << 22;

enum class Dialect { Native, Flat };

/// Where LineReader blocks come from: one stream that several readers may
/// share. Offsets count bytes from where the stream stood when wrapped; a
/// read seeks only when its offset differs from where the previous read
/// ended, so a lone sequential reader never seeks (and also works on
/// streams that cannot).
class BlockSource {
 public:
  explicit BlockSource(std::istream& is) : is_(&is) {}

  /// Reads up to `n` bytes at `offset` into `dst`; returns the count read,
  /// 0 at end of stream.
  [[nodiscard]] std::size_t read(std::uint64_t offset, char* dst, std::size_t n) {
    if (offset != pos_) {
      is_->clear();
      is_->seekg(static_cast<std::streamoff>(offset));
      pos_ = offset;
    }
    is_->read(dst, static_cast<std::streamsize>(n));
    const auto got = static_cast<std::size_t>(is_->gcount());
    pos_ += got;
    return got;
  }

 private:
  std::istream* is_;
  std::uint64_t pos_ = 0;
};

/// One line as LineReader yields it: the text with the terminator and any
/// trailing '\r' removed (files written on Windows end lines in "\r\n"),
/// the byte offset of its first byte, and its 1-based line number.
struct Line {
  std::string_view text;
  std::uint64_t offset = 0;
  std::size_t number = 0;
};

/// Block-buffered line splitter over a byte range of a BlockSource. It
/// reads `block_bytes` at a time (fewer when the range is shorter) and
/// yields lines as views into its buffer, valid until the next call. A
/// line that straddles two blocks is moved to the buffer front and
/// completed; a line longer than the buffer doubles it for as long as the
/// line is held, after which the buffer shrinks back to one block. A
/// final line without a terminating newline is still a line; an empty
/// range has none.
class LineReader {
 public:
  /// Lines of `source` from byte `start` up to byte `limit` (a line
  /// boundary, or past the end of the stream); `lines_before` is the line
  /// number preceding `start`.
  LineReader(BlockSource& source, std::size_t block_bytes, std::uint64_t start = 0,
             std::size_t lines_before = 0,
             std::uint64_t limit = std::numeric_limits<std::uint64_t>::max())
      : source_(&source),
        block_(static_cast<std::size_t>(
            std::clamp<std::uint64_t>(limit - start, 1, block_bytes))),
        buf_offset_(start),
        limit_(limit),
        line_(lines_before) {}

  /// Fills `out` with the next line; false once the range is exhausted.
  [[nodiscard]] bool next(Line& out) {
    while (true) {
      const void* nl =
          scan_ < end_ ? std::memchr(buf_.data() + scan_, '\n', end_ - scan_) : nullptr;
      if (nl != nullptr) {
        const auto stop = static_cast<std::size_t>(static_cast<const char*>(nl) - buf_.data());
        emit(stop, out);
        begin_ = scan_ = stop + 1;
        return true;
      }
      scan_ = end_;
      if (!fill()) {
        if (begin_ == end_) {
          return false;
        }
        emit(end_, out);
        begin_ = scan_ = end_;
        return true;
      }
    }
  }

  /// Byte offset just past the last line yielded (the range end once
  /// next() has returned false).
  [[nodiscard]] std::uint64_t position() const noexcept { return buf_offset_ + begin_; }

  /// Buffer bytes currently allocated.
  [[nodiscard]] std::size_t buffer_bytes() const noexcept { return buf_.capacity(); }

 private:
  void emit(std::size_t stop, Line& out) {
    std::string_view text(buf_.data() + begin_, stop - begin_);
    if (!text.empty() && text.back() == '\r') {
      text.remove_suffix(1);
    }
    out = {.text = text, .offset = buf_offset_ + begin_, .number = ++line_};
  }

  /// Appends the next block after the unconsumed tail; false at the end.
  bool fill() {
    const std::uint64_t next_read = buf_offset_ + end_;
    if (next_read >= limit_) {
      return false;
    }
    const std::size_t tail = end_ - begin_;
    if (buf_.size() > block_ && tail < block_) {
      std::vector<char> smaller(block_);  // the long line is gone: back to one block
      std::memcpy(smaller.data(), buf_.data() + begin_, tail);
      buf_.swap(smaller);
    } else if (begin_ > 0) {
      std::memmove(buf_.data(), buf_.data() + begin_, tail);
    }
    buf_offset_ += begin_;
    scan_ -= begin_;
    begin_ = 0;
    end_ = tail;
    if (end_ == buf_.size()) {
      buf_.resize(buf_.empty() ? block_ : 2 * buf_.size());
    }
    const auto room = static_cast<std::size_t>(
        std::min<std::uint64_t>(buf_.size() - end_, limit_ - next_read));
    const std::size_t got = source_->read(next_read, buf_.data() + end_, room);
    end_ += got;
    return got != 0;
  }

  BlockSource* source_;
  std::size_t block_;
  std::vector<char> buf_;
  std::size_t begin_ = 0;  // first unconsumed byte
  std::size_t scan_ = 0;   // bytes before this hold no newline
  std::size_t end_ = 0;    // one past the last buffered byte
  std::uint64_t buf_offset_;
  std::uint64_t limit_;
  std::size_t line_;
};

[[nodiscard]] inline std::string_view trim(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) {
    s.remove_prefix(1);
  }
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t')) {
    s.remove_suffix(1);
  }
  return s;
}

/// Location state threaded through every field parse, so each rejection
/// can name file, line, and field without repeating the plumbing.
struct Cursor {
  const std::string& file;
  std::size_t line = 0;

  [[noreturn]] void reject(std::string field, std::string reason) const {
    throw IngestError(
        {.file = file, .line = line, .field = std::move(field), .reason = std::move(reason)});
  }
};

template <typename T>
[[nodiscard]] T parse_int(std::string_view text, const char* field, const Cursor& at) {
  T value{};
  const auto* begin = text.data();
  const auto* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(begin, end, value);
  if (ec != std::errc{} || ptr != end) {
    at.reject(field, "malformed integer '" + std::string(text) + "'");
  }
  return value;
}

template <typename T>
[[nodiscard]] T parse_in_range(std::string_view text, const char* field, T lo, T hi_exclusive,
                               const Cursor& at) {
  const T value = parse_int<T>(text, field, at);
  if (value < lo || value >= hi_exclusive) {
    at.reject(field, "value " + std::to_string(value) + " outside [" + std::to_string(lo) + ", " +
                         std::to_string(hi_exclusive) + ")");
  }
  return value;
}

/// Rank-valued field: non-negative, and under the declared rank count when
/// the file carries a `# nranks` directive (otherwise bounds are inferred
/// after the parse). `min` is -1 for sender fields (kUnresolvedSender).
[[nodiscard]] inline std::int32_t parse_rank(std::string_view text, const char* field,
                                             std::int32_t min,
                                             const std::optional<int>& declared_nranks,
                                             const Cursor& at) {
  const auto value = parse_int<std::int32_t>(text, field, at);
  if (value < min) {
    at.reject(field, "rank " + std::to_string(value) + " below " + std::to_string(min));
  }
  if (value >= kMaxRanks) {
    at.reject(field, "rank " + std::to_string(value) + " above the supported maximum " +
                         std::to_string(kMaxRanks - 1));
  }
  if (declared_nranks && value >= *declared_nranks) {
    at.reject(field, "rank " + std::to_string(value) + " outside declared nranks " +
                         std::to_string(*declared_nranks));
  }
  return value;
}

/// Handles one pre-header `#` line. Directives are `# key: value`;
/// recognized keys are validated, everything else is a plain comment.
inline void handle_directive(std::string_view body, std::optional<int>& declared_nranks,
                             const Cursor& at) {
  const std::size_t colon = body.find(':');
  if (colon == std::string_view::npos) {
    return;  // plain comment
  }
  const std::string_view key = trim(body.substr(0, colon));
  const std::string_view value = trim(body.substr(colon + 1));
  if (key == "mpipred-trace") {
    if (value != kSupportedVersion) {
      at.reject("mpipred-trace", "unsupported trace schema version '" + std::string(value) +
                                     "' (supported: " + std::string(kSupportedVersion) + ")");
    }
  } else if (key == "nranks") {
    const int n = parse_int<int>(value, "nranks", at);
    if (n < 1) {
      at.reject("nranks", "declared rank count " + std::to_string(n) + " must be at least 1");
    }
    if (n > kMaxRanks) {
      at.reject("nranks", "declared rank count " + std::to_string(n) +
                              " above the supported maximum " + std::to_string(kMaxRanks));
    }
    declared_nranks = n;
  }
  // Unknown keys: forward-compatible comments, deliberately ignored.
}

struct HeaderInfo {
  Dialect dialect = Dialect::Native;
  bool flat_has_kind = false;
};

/// The dialect `line` announces, or nullopt for an unrecognized header.
[[nodiscard]] inline std::optional<HeaderInfo> match_header(std::string_view line) {
  if (line == kNativeHeader) {
    return HeaderInfo{.dialect = Dialect::Native};
  }
  if (line == kFlatHeaderKind) {
    return HeaderInfo{.dialect = Dialect::Flat, .flat_has_kind = true};
  }
  if (line == kFlatHeader) {
    return HeaderInfo{.dialect = Dialect::Flat};
  }
  return std::nullopt;
}

[[noreturn]] inline void reject_header(std::string_view line, const Cursor& at) {
  at.reject("", "unrecognized header '" + std::string(line) + "' (expected '" +
                    std::string(kNativeHeader) + "' or '" + std::string(kFlatHeader) + "[,kind]')");
}

[[nodiscard]] inline std::size_t expected_fields(const HeaderInfo& header) {
  return header.dialect == Dialect::Native ? 7 : (header.flat_has_kind ? 5 : 4);
}

/// The widest row either dialect has (native).
inline constexpr std::size_t kMaxFields = 7;
using Fields = std::array<std::string_view, kMaxFields>;

/// Splits on ',' without collapsing empty fields ("a,,b" -> {"a","","b"})
/// and without allocating: the first kMaxFields land in `fields`, and the
/// return value counts them all, so an over-wide row is still measured.
[[nodiscard]] inline std::size_t split(std::string_view line, Fields& fields) {
  std::size_t count = 0;
  std::size_t start = 0;
  while (true) {
    const std::size_t comma = line.find(',', start);
    if (count < kMaxFields) {
      fields[count] = line.substr(start, comma == std::string_view::npos ? comma : comma - start);
    }
    ++count;
    if (comma == std::string_view::npos) {
      return count;
    }
    start = comma + 1;
  }
}

/// One fully validated data line, in either dialect's terms: the receiving
/// rank, the instrumentation level, and the record itself.
struct Row {
  int rank = 0;
  trace::Level level = trace::Level::Logical;
  trace::Record rec;
};

/// Parses and validates one data line (CR already stripped, not a comment
/// or blank); throws IngestError with the exact field and reason on any
/// malformed content.
[[nodiscard]] inline Row parse_row(std::string_view line, const HeaderInfo& header,
                                   const std::optional<int>& declared_nranks, const Cursor& at) {
  Row row;
  Fields fields;
  const std::size_t count = split(line, fields);
  if (count != expected_fields(header)) {
    at.reject("", "has " + std::to_string(count) + " fields, expected " +
                      std::to_string(expected_fields(header)));
  }
  if (header.dialect == Dialect::Native) {
    row.rank = parse_rank(fields[0], "rank", 0, declared_nranks, at);
    row.level = static_cast<trace::Level>(
        parse_in_range<int>(fields[1], "level", 0, trace::kNumLevels, at));
    row.rec.time = sim::SimTime{parse_int<std::int64_t>(fields[2], "time_ns", at)};
    row.rec.sender =
        parse_rank(fields[3], "sender", trace::kUnresolvedSender, declared_nranks, at);
    row.rec.bytes = parse_int<std::int64_t>(fields[4], "bytes", at);
    if (row.rec.bytes < 0) {
      at.reject("bytes", "negative byte count " + std::to_string(row.rec.bytes));
    }
    row.rec.kind = static_cast<trace::OpKind>(parse_in_range<int>(fields[5], "kind", 0, 2, at));
    row.rec.op =
        static_cast<trace::Op>(parse_in_range<int>(fields[6], "op", 0, trace::kNumOps, at));
  } else {
    row.rec.time = sim::SimTime{parse_int<std::int64_t>(fields[0], "time_ns", at)};
    row.rec.sender = parse_rank(fields[1], "sender", 0, declared_nranks, at);
    row.rank = parse_rank(fields[2], "receiver", 0, declared_nranks, at);
    row.level = trace::Level::Physical;
    row.rec.bytes = parse_int<std::int64_t>(fields[3], "bytes", at);
    if (row.rec.bytes < 0) {
      at.reject("bytes", "negative byte count " + std::to_string(row.rec.bytes));
    }
    if (header.flat_has_kind) {
      row.rec.kind = static_cast<trace::OpKind>(parse_in_range<int>(fields[4], "kind", 0, 2, at));
    }
    row.rec.op = trace::Op::Recv;
  }
  return row;
}

}  // namespace mpipred::ingest::csv_line
