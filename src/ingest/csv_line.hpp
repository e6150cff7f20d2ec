#pragma once

// Line-level reading and grammar of the two ingest CSV dialects (see
// source.hpp), and scan_file, the one preamble/header/row loop that both
// the materializing parser (source.cpp) and the incremental streaming
// reader (streaming.cpp) run, so the two paths can never drift on how a
// file splits into lines or on what a valid preamble directive, header,
// or data line is. Internal to src/ingest/; consumers outside the ingest
// boundary go through TraceSource or EventStream instead.

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>
#include <istream>
#include <limits>
#include <optional>
#include <span>
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

enum class Dialect { Native, Flat };  // declared opaquely in source.hpp

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

/// The one integer lexer of the ingest grammar: `-?[0-9]+` at `p`, up to
/// the first byte that is not part of it. Any number of leading zeros is
/// allowed; no `+` and no whitespace. The value must fit int64 exactly, so
/// the lexer accepts what std::from_chars<std::int64_t> accepts. On
/// success `p` moves past the integer and `out` holds it.
[[nodiscard]] inline bool lex_int(const char*& p, const char* end, std::int64_t& out) noexcept {
  const char* s = p;
  const bool negative = s != end && *s == '-';
  s += negative ? 1 : 0;
  const char* const digits = s;
  std::uint64_t magnitude = 0;
  while (s != end && static_cast<unsigned char>(*s - '0') < 10) {
    magnitude = magnitude * 10 + static_cast<unsigned char>(*s - '0');
    ++s;
  }
  if (s == digits) {
    return false;
  }
  // Leading zeros leave the magnitude at 0, so it is exact while there are
  // at most 19 significant digits; 20 or more are out of range.
  if (s - digits > 19 && s - std::find_if(digits, s, [](char c) { return c != '0'; }) > 19) {
    return false;
  }
  if (magnitude > (std::uint64_t{1} << 63) - (negative ? 0 : 1)) {
    return false;
  }
  out = static_cast<std::int64_t>(negative ? 0 - magnitude : magnitude);
  p = s;
  return true;
}

/// The whole of `text` as one integer, or nullopt.
[[nodiscard]] inline std::optional<std::int64_t> decode_int(std::string_view text) noexcept {
  const char* p = text.data();
  const char* const end = p + text.size();
  std::int64_t value = 0;
  if (!lex_int(p, end, value) || p != end) {
    return std::nullopt;
  }
  return value;
}

[[nodiscard]] inline bool fits_int32(std::int64_t v) noexcept {
  return v >= std::numeric_limits<std::int32_t>::min() &&
         v <= std::numeric_limits<std::int32_t>::max();
}

[[nodiscard]] inline std::string malformed(std::string_view text) {
  return "malformed integer '" + std::string(text) + "'";
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
    const auto decoded = decode_int(value);
    if (!decoded || !fits_int32(*decoded)) {
      at.reject("nranks", malformed(value));
    }
    const auto n = static_cast<int>(*decoded);
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

/// One fully validated data line, in either dialect's terms: the receiving
/// rank, the instrumentation level, and the record itself.
struct Row {
  int rank = 0;
  trace::Level level = trace::Level::Logical;
  trace::Record rec;
};

/// What a decoded field must satisfy, beyond being an integer.
enum class FieldCheck : std::uint8_t {
  Int64,  // any int64
  Bytes,  // int64, not negative
  Enum,   // int32 in [lo, hi)
  Rank,   // int32, at least lo, below kMaxRanks and any declared rank count
};

struct FieldSpec {
  std::string_view name;
  FieldCheck check = FieldCheck::Int64;
  std::int32_t lo = 0;
  std::int32_t hi = 0;
};

/// The row grammar of both dialects: each data line is exactly these
/// comma-separated integers, in this order. Sender fields take -1
/// (kUnresolvedSender) only in native files.
inline constexpr std::array<FieldSpec, 7> kNativeFields = {{
    {.name = "rank", .check = FieldCheck::Rank},
    {.name = "level", .check = FieldCheck::Enum, .hi = trace::kNumLevels},
    {.name = "time_ns"},
    {.name = "sender", .check = FieldCheck::Rank, .lo = trace::kUnresolvedSender},
    {.name = "bytes", .check = FieldCheck::Bytes},
    {.name = "kind", .check = FieldCheck::Enum, .hi = 2},
    {.name = "op", .check = FieldCheck::Enum, .hi = trace::kNumOps},
}};
/// Flat rows are the first four of these, or all five with a kind column.
inline constexpr std::array<FieldSpec, 5> kFlatFields = {{
    {.name = "time_ns"},
    {.name = "sender", .check = FieldCheck::Rank},
    {.name = "receiver", .check = FieldCheck::Rank},
    {.name = "bytes", .check = FieldCheck::Bytes},
    {.name = "kind", .check = FieldCheck::Enum, .hi = 2},
}};
inline constexpr std::size_t kMaxFields = kNativeFields.size();

[[nodiscard]] inline std::span<const FieldSpec> fields_of(const HeaderInfo& header) {
  if (header.dialect == Dialect::Native) {
    return kNativeFields;
  }
  return std::span(kFlatFields).first(header.flat_has_kind ? 5 : 4);
}

/// The first check a decoded field fails, in diagnostic order.
enum class Fault : std::uint8_t {
  None,
  Malformed,       // not an integer of the field's width
  Negative,        // Bytes below 0
  OutOfRange,      // Enum outside [lo, hi)
  RankBelow,       // Rank below lo
  RankAboveMax,    // Rank at or above kMaxRanks
  RankUndeclared,  // Rank at or above the declared rank count
};

[[nodiscard]] inline Fault check_field(const FieldSpec& spec, std::int64_t v,
                                       const std::optional<int>& declared_nranks) noexcept {
  switch (spec.check) {
    case FieldCheck::Int64:
      return Fault::None;
    case FieldCheck::Bytes:
      return v < 0 ? Fault::Negative : Fault::None;
    case FieldCheck::Enum:
      if (!fits_int32(v)) {
        return Fault::Malformed;
      }
      return v < spec.lo || v >= spec.hi ? Fault::OutOfRange : Fault::None;
    case FieldCheck::Rank:
      if (!fits_int32(v)) {
        return Fault::Malformed;
      }
      if (v < spec.lo) {
        return Fault::RankBelow;
      }
      if (v >= kMaxRanks) {
        return Fault::RankAboveMax;
      }
      return declared_nranks && v >= *declared_nranks ? Fault::RankUndeclared : Fault::None;
  }
  return Fault::None;
}

/// The hot path of parse_row: one walk over the line that decodes the
/// first N fields of `specs` into `v` and checks them. False if anything is wrong; which
/// fault comes first is reject_row's business.
template <std::size_t N, std::size_t M>
[[nodiscard, gnu::always_inline]] inline bool scan_fields(
    std::string_view line, const std::array<FieldSpec, M>& specs,
    const std::optional<int>& declared_nranks, std::array<std::int64_t, kMaxFields>& v) noexcept {
  const char* p = line.data();
  const char* const end = p + line.size();
  for (std::size_t i = 0; i < N; ++i) {
    if (!lex_int(p, end, v[i])) {
      return false;
    }
    if (i + 1 < N) {
      if (p == end || *p != ',') {
        return false;
      }
      ++p;
    }
  }
  bool ok = p == end;
  for (std::size_t i = 0; i < N; ++i) {
    ok &= check_field(specs[i], v[i], declared_nranks) == Fault::None;
  }
  return ok;
}

/// The cold path of parse_row: re-walks a line the scan refused and throws
/// its first fault. A wrong field count comes before any field; then the
/// fields in file order, each one's checks in check_field's order.
[[noreturn, gnu::cold, gnu::noinline]] inline void reject_row(
    std::string_view line, const HeaderInfo& header, const std::optional<int>& declared_nranks,
    const Cursor& at) {
  const std::span<const FieldSpec> specs = fields_of(header);
  const auto count = static_cast<std::size_t>(std::count(line.begin(), line.end(), ',')) + 1;
  if (count != specs.size()) {
    at.reject("", "has " + std::to_string(count) + " fields, expected " +
                      std::to_string(specs.size()));
  }
  std::size_t start = 0;
  for (const FieldSpec& spec : specs) {
    const std::size_t comma = std::min(line.find(',', start), line.size());
    const std::string_view text = line.substr(start, comma - start);
    start = comma + 1;
    const auto decoded = decode_int(text);
    const std::int64_t v = decoded.value_or(0);
    const std::string field(spec.name);
    const std::string value = std::to_string(v);
    switch (decoded ? check_field(spec, v, declared_nranks) : Fault::Malformed) {
      case Fault::None:
        continue;
      case Fault::Malformed:
        at.reject(field, malformed(text));
      case Fault::Negative:
        at.reject(field, "negative byte count " + value);
      case Fault::OutOfRange:
        at.reject(field, "value " + value + " outside [" + std::to_string(spec.lo) + ", " +
                             std::to_string(spec.hi) + ")");
      case Fault::RankBelow:
        at.reject(field, "rank " + value + " below " + std::to_string(spec.lo));
      case Fault::RankAboveMax:
        at.reject(field, "rank " + value + " above the supported maximum " +
                             std::to_string(kMaxRanks - 1));
      case Fault::RankUndeclared:
        at.reject(field, "rank " + value + " outside declared nranks " +
                             std::to_string(*declared_nranks));
    }
  }
  // scan_fields refuses a line only for a fault found above.
  at.reject("", "row refused without a fault (grammar bug)");
}

/// Parses and validates one data line (CR already stripped, not a comment
/// or blank); throws IngestError with the exact field and reason on any
/// malformed content.
[[nodiscard]] inline Row parse_row(std::string_view line, const HeaderInfo& header,
                                   const std::optional<int>& declared_nranks, const Cursor& at) {
  std::array<std::int64_t, kMaxFields> v;
  Row row;
  if (header.dialect == Dialect::Native) {
    if (!scan_fields<kNativeFields.size()>(line, kNativeFields, declared_nranks, v)) {
      reject_row(line, header, declared_nranks, at);
    }
    row.rank = static_cast<int>(v[0]);
    row.level = static_cast<trace::Level>(v[1]);
    row.rec.time = sim::SimTime{v[2]};
    row.rec.sender = static_cast<std::int32_t>(v[3]);
    row.rec.bytes = v[4];
    row.rec.kind = static_cast<trace::OpKind>(v[5]);
    row.rec.op = static_cast<trace::Op>(v[6]);
    return row;
  }
  const bool ok = header.flat_has_kind ? scan_fields<5>(line, kFlatFields, declared_nranks, v)
                                       : scan_fields<4>(line, kFlatFields, declared_nranks, v);
  if (!ok) {
    reject_row(line, header, declared_nranks, at);
  }
  row.rec.time = sim::SimTime{v[0]};
  row.rec.sender = static_cast<std::int32_t>(v[1]);
  row.rank = static_cast<int>(v[2]);
  row.level = trace::Level::Physical;
  row.rec.bytes = v[3];
  if (header.flat_has_kind) {
    row.rec.kind = static_cast<trace::OpKind>(v[4]);
  }
  row.rec.op = trace::Op::Recv;
  return row;
}

/// What scan_file learned about a file besides its rows.
struct FileScan {
  HeaderInfo header{};
  std::optional<int> declared_nranks;
  /// Declared, or inferred as max rank (receiver or sender) + 1.
  int nranks = 1;
  /// Byte offset just past the header line, and the header's line number.
  std::uint64_t data_start = 0;
  std::size_t header_line = 0;
};

/// The one loop over a CSV trace: directives and comments up to the
/// header, the header itself, then every data line validated by parse_row
/// and handed to `on_row(const Row&, const Line&, Dialect)` in file order
/// (blanks and comments between data lines skipped). Throws IngestError
/// on the first malformed line, and at line 0 when there is no header.
template <typename OnRow>
FileScan scan_file(LineReader& lines, const std::string& file, OnRow&& on_row) {
  Cursor at{.file = file};
  FileScan out;
  std::optional<HeaderInfo> header;
  Line line;
  while (!header && lines.next(line)) {
    at.line = line.number;
    if (line.text.empty()) {
      continue;
    }
    if (line.text.front() == '#') {
      handle_directive(trim(line.text.substr(1)), out.declared_nranks, at);
      continue;
    }
    header = match_header(line.text);
    if (!header) {
      reject_header(line.text, at);
    }
    out.header = *header;
    out.data_start = lines.position();
    out.header_line = line.number;
  }
  if (!header) {
    throw IngestError({.file = file, .line = 0, .field = {}, .reason = "no header line found"});
  }
  std::int32_t max_rank = -1;
  while (lines.next(line)) {
    if (line.text.empty() || line.text.front() == '#') {
      continue;
    }
    at.line = line.number;
    const Row row = parse_row(line.text, out.header, out.declared_nranks, at);
    max_rank = std::max({max_rank, static_cast<std::int32_t>(row.rank), row.rec.sender});
    on_row(row, line, out.header.dialect);
  }
  out.nranks = out.declared_nranks.value_or(std::max(max_rank + 1, 1));
  return out;
}

}  // namespace mpipred::ingest::csv_line
