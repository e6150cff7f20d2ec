// The trace-ingestion boundary: dialect parsing, per-line diagnostics,
// the format registry, and the round-trip determinism gate — a simulator
// trace exported via write_csv and re-ingested must drive the engine to a
// byte-identical report for every registry predictor and shard count.

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <tuple>

#include "apps/app.hpp"
#include "engine/engine.hpp"
#include "engine/registry.hpp"
#include "ingest/csv_source.hpp"
#include "ingest/replay.hpp"
#include "ingest/source.hpp"
#include "ingest/streaming.hpp"
#include "ingest/transform.hpp"
#include "ingest/verify.hpp"
#include "mpi/world.hpp"
#include "trace/csv.hpp"

namespace mpipred::ingest {
namespace {

std::unique_ptr<TraceSource> parse(const std::string& text) {
  std::stringstream ss(text);
  return open_trace_stream(ss, "<test>");
}

Diagnostic reject(const std::string& text) {
  std::stringstream ss(text);
  try {
    (void)open_trace_stream(ss, "<test>");
  } catch (const IngestError& e) {
    return e.where();
  }
  ADD_FAILURE() << "expected IngestError for:\n" << text;
  return {};
}

constexpr const char* kNative = "rank,level,time_ns,sender,bytes,kind,op\n";
constexpr const char* kFlat = "time_ns,sender,receiver,bytes\n";

TEST(CsvSource, NativeDialectMatchesStoreAndEngineEvents) {
  trace::TraceStore store(3);
  store.append(0, trace::Level::Logical,
               {.time = sim::SimTime{5}, .sender = 1, .bytes = 100});
  store.append(0, trace::Level::Physical,
               {.time = sim::SimTime{9}, .sender = 2, .bytes = 200});
  store.append(2, trace::Level::Logical,
               {.time = sim::SimTime{1},
                .sender = 0,
                .bytes = 50,
                .kind = trace::OpKind::Collective,
                .op = trace::Op::Allreduce});
  std::stringstream csv;
  trace::write_csv(csv, store);

  const auto source = open_trace_stream(csv, "<test>");
  EXPECT_EQ(source->format(), "csv");
  EXPECT_EQ(source->nranks(), 3);  // declared by write_csv's preamble
  ASSERT_NE(source->store(), nullptr);
  for (int r = 0; r < 3; ++r) {
    for (const auto level : {trace::Level::Logical, trace::Level::Physical}) {
      const auto a = store.records(r, level);
      const auto b = source->store()->records(r, level);
      ASSERT_EQ(a.size(), b.size());
      for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i], b[i]);
      }
      EXPECT_EQ(source->events(level), engine::events_from_trace(store, level));
    }
  }
}

TEST(CsvSource, DiagnosticsNameFileLineFieldAndReason) {
  // One malformed line per validated field; every rejection must carry the
  // exact location instead of asserting or producing a bogus record.
  const struct {
    const char* line;
    const char* field;
  } corpus[] = {
      {"0,0,1,2,3,0,99", "op"},       // out-of-range enum (csv.cpp:103 bug)
      {"0,0,1,2,3,0,-1", "op"},       //
      {"0,0,1,2,3,7,0", "kind"},      //
      {"0,9,1,2,3,0,0", "level"},     //
      {"-1,0,1,2,3,0,0", "rank"},     // negative receiver rank
      {"0,0,1,-2,3,0,0", "sender"},   // below kUnresolvedSender
      {"0,0,xx,2,3,0,0", "time_ns"},  // malformed integer
      {"0,0,1,2,-3,0,0", "bytes"},    // negative byte count
  };
  for (const auto& c : corpus) {
    const Diagnostic d = reject(std::string(kNative) + c.line + "\n");
    EXPECT_EQ(d.file, "<test>");
    EXPECT_EQ(d.line, 2u) << c.line;
    EXPECT_EQ(d.field, c.field) << c.line;
    EXPECT_FALSE(d.reason.empty());
  }
  const Diagnostic short_line = reject(std::string(kNative) + "0,0,1,2\n");
  EXPECT_EQ(short_line.line, 2u);
  EXPECT_NE(short_line.reason.find("expected 7"), std::string::npos);
}

TEST(CsvSource, ToStringFormatsEditorFriendlyLocation) {
  const Diagnostic d = reject(std::string(kNative) + "0,0,1,2,3,0,99\n");
  EXPECT_EQ(to_string(d).rfind("<test>:2: field 'op': ", 0), 0u) << to_string(d);
}

TEST(CsvSource, CrlfAndCommentsAccepted) {
  const auto source = parse("# exported by some windows tool\r\n"
                            "rank,level,time_ns,sender,bytes,kind,op\r\n"
                            "0,0,1,1,64,0,0\r\n"
                            "# a comment between data lines\r\n"
                            "1,1,2,0,128,1,4\r\n");
  ASSERT_NE(source->store(), nullptr);
  EXPECT_EQ(source->store()->total_records(trace::Level::Logical), 1u);
  EXPECT_EQ(source->store()->total_records(trace::Level::Physical), 1u);
  EXPECT_EQ(source->store()->records(1, trace::Level::Physical)[0].op, trace::Op::Allreduce);
}

TEST(CsvSource, VersionDirectiveGatesUnsupportedSchemas) {
  EXPECT_NO_THROW(parse(std::string("# mpipred-trace: v1\n") + kNative));
  const Diagnostic d = reject(std::string("# mpipred-trace: v7\n") + kNative);
  EXPECT_EQ(d.line, 1u);
  EXPECT_NE(d.reason.find("v7"), std::string::npos);
}

TEST(CsvSource, NranksDirectiveDeclaresAndBounds) {
  const auto source = parse(std::string("# nranks: 6\n") + kNative + "0,0,1,1,64,0,0\n");
  EXPECT_EQ(source->nranks(), 6);  // declared beats inference (max rank 1)

  const Diagnostic rank_over = reject(std::string("# nranks: 2\n") + kNative + "5,0,1,1,64,0,0\n");
  EXPECT_EQ(rank_over.field, "rank");
  EXPECT_EQ(rank_over.line, 3u);
  const Diagnostic sender_over =
      reject(std::string("# nranks: 2\n") + kNative + "0,0,1,5,64,0,0\n");
  EXPECT_EQ(sender_over.field, "sender");
  const Diagnostic bad_count = reject(std::string("# nranks: 0\n") + kNative);
  EXPECT_EQ(bad_count.field, "nranks");
}

// write_csv's `# nranks` preamble keeps the rank count faithful even when
// the top ranks logged nothing — without it, re-ingestion would shrink a
// 5-rank world to 1 and skew every per-process figure downstream.
TEST(CsvSource, IdleTopRanksSurviveTheRoundTrip) {
  trace::TraceStore store(5);
  store.append(0, trace::Level::Physical, {.time = sim::SimTime{1}, .sender = 1, .bytes = 8});
  std::stringstream csv;
  trace::write_csv(csv, store);
  const auto source = open_trace_stream(csv, "<test>");
  EXPECT_EQ(source->nranks(), 5);
}

// Hostile rank values must become diagnostics, not aborts: the rank count
// sizes the TraceStore, so an unchecked INT32_MAX would mean signed
// overflow, and a merely huge value an allocation failure or store assert.
TEST(CsvSource, AstronomicalRanksAreRejectedNotAllocated) {
  EXPECT_EQ(reject(std::string(kFlat) + "1,0,2147483647,64\n").field, "receiver");
  EXPECT_EQ(reject(std::string(kFlat) + "1,2147483647,0,64\n").field, "sender");
  EXPECT_EQ(reject(std::string(kNative) + "2000000000,0,1,0,8,0,0\n").field, "rank");
  EXPECT_EQ(reject(std::string("# nranks: 2000000000\n") + kFlat).field, "nranks");
}

TEST(CsvSource, FlatDialectOrdersByTimeAndInfersRanks) {
  const auto source = parse(std::string(kFlat) + "10,1,0,100\n5,2,0,200\n20,0,3,50\n");
  EXPECT_EQ(source->format(), "csv-flat");
  EXPECT_EQ(source->nranks(), 4);  // receiver 3 + 1
  EXPECT_EQ(source->levels(), std::vector<trace::Level>{trace::Level::Physical});
  EXPECT_TRUE(source->events(trace::Level::Logical).empty());

  const auto events = source->events(trace::Level::Physical);
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0], (engine::Event{.source = 2, .destination = 0, .tag = 0, .bytes = 200}));
  EXPECT_EQ(events[1], (engine::Event{.source = 1, .destination = 0, .tag = 0, .bytes = 100}));
  EXPECT_EQ(events[2], (engine::Event{.source = 0, .destination = 3, .tag = 0, .bytes = 50}));
}

TEST(CsvSource, FlatDialectKindColumnAndValidation) {
  const auto source =
      parse("time_ns,sender,receiver,bytes,kind\n1,0,1,64,1\n2,1,0,32,0\n");
  const auto events = source->events(trace::Level::Physical);
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].tag, 1);  // OpKind rides in the tag dimension
  EXPECT_EQ(events[1].tag, 0);

  EXPECT_EQ(reject(std::string(kFlat) + "1,-1,0,64\n").field, "sender");  // no wildcards in flat
  EXPECT_EQ(reject(std::string(kFlat) + "1,0,-1,64\n").field, "receiver");
  EXPECT_EQ(reject("time_ns,sender,receiver,bytes,kind\n1,0,1,64,9\n").field, "kind");
}

TEST(CsvSource, UnknownHeaderListsKnownFormats) {
  const Diagnostic d = reject("who,knows,what\n1,2,3\n");
  EXPECT_NE(d.reason.find("csv"), std::string::npos);
  EXPECT_NE(d.reason.find("csv-flat"), std::string::npos);
}

TEST(CsvSource, EmptyFileNeedsHeader) {
  const Diagnostic d = reject("# just a comment\n");
  EXPECT_EQ(d.line, 0u);
  EXPECT_NE(d.reason.find("header"), std::string::npos);
}

TEST(FormatRegistry, PluggableFormatsDispatchByProbe) {
  struct NullSource final : TraceSource {
    [[nodiscard]] std::string_view format() const noexcept override { return "null"; }
    [[nodiscard]] int nranks() const noexcept override { return 1; }
    [[nodiscard]] std::vector<trace::Level> levels() const override { return {}; }
    [[nodiscard]] std::vector<engine::Event> events(trace::Level) const override { return {}; }
  };
  auto& registry = TraceFormatRegistry::instance();
  const auto names = registry.names();
  if (std::find(names.begin(), names.end(), "null") == names.end()) {
    registry.add({.name = "null",
                  .matches = [](std::string_view header) { return header == "nullfmt"; },
                  .open = [](std::istream&, const std::string&) -> std::unique_ptr<TraceSource> {
                    return std::make_unique<NullSource>();
                  },
                  .open_stream = {}});
  }
  EXPECT_THROW(registry.add({.name = "null", .matches = {}, .open = {}, .open_stream = {}}),
               UsageError);
  const auto source = parse("nullfmt\n");
  EXPECT_EQ(source->format(), "null");
  EXPECT_EQ(source->store(), nullptr);
}

// The full shard × batch product grid, run here on small captures (the
// tools' runtime gates check one axis at a time): a StreamingReplay over
// make_stream() at every shard count {1,2,4} × gate batch size must report
// exactly what observe_all over `reference` reports on one shard.
void expect_grid_matches(const StreamFactory& make_stream,
                         std::span<const engine::Event> reference,
                         const engine::EngineConfig& cfg) {
  engine::EngineConfig one_shard = cfg;
  one_shard.shards = 1;
  engine::PredictionEngine eng(one_shard);
  eng.observe_all(reference);
  const auto expected = eng.report();
  for (const std::size_t shards : {1, 2, 4}) {
    for (const std::size_t batch : kGateBatchEvents) {
      engine::EngineConfig run = cfg;
      run.shards = shards;
      const auto stream = make_stream();
      const StreamedRun got = StreamingReplay{.engine = run, .batch_events = batch}.run(*stream);
      EXPECT_TRUE(got.report == expected)
          << cfg.predictor << " at shards=" << shards << " batch-events=" << batch;
    }
  }
}

// The acceptance gate: a simulated run exported with write_csv and
// replayed through src/ingest/ yields the store's events, and drives a
// byte-identical EngineReport for every registry predictor across shard
// counts {1, 2, 4} × gate batch sizes.
TEST(RoundTrip, GateHoldsForEveryRegistryPredictorAcrossShards) {
  mpi::World world(8, apps::paper_world_config(/*seed=*/7));
  const auto outcome =
      apps::run_is(world, apps::AppConfig{.problem_class = apps::ProblemClass::S});
  ASSERT_TRUE(outcome.verified);

  const auto gate = verify_csv_round_trip(world.traces());
  ASSERT_TRUE(gate.ok) << gate.detail;
  std::stringstream csv;
  trace::write_csv(csv, world.traces());
  const auto source = open_trace_stream(csv, "<round-trip>");
  for (const std::string& predictor : engine::builtin_predictor_names()) {
    for (const auto level : {trace::Level::Logical, trace::Level::Physical}) {
      expect_grid_matches([&source, level] { return source->stream_events(level); },
                          engine::events_from_trace(world.traces(), level),
                          engine::EngineConfig{.predictor = predictor});
    }
  }
}

TEST(RoundTrip, EmptyStoreAndEmptyShardListHandled) {
  const trace::TraceStore empty(3);
  const std::size_t shard_counts[] = {1, 2};
  EXPECT_TRUE(verify_csv_round_trip(empty).ok);
  EXPECT_TRUE(verify_engine_invariance({}, {}, shard_counts).gate.ok);
  EXPECT_FALSE(verify_engine_invariance({}, {}, {}).gate.ok);
}

TEST(AdaptiveReplay, SummaryDeterministicAcrossShardCounts) {
  mpi::World world(8, apps::paper_world_config(/*seed=*/11));
  (void)apps::run_is(world, apps::AppConfig{.problem_class = apps::ProblemClass::S});
  const auto events = engine::events_from_trace(world.traces(), trace::Level::Physical);

  const std::size_t shard_counts[] = {1, 2, 4};
  const SweptReplay swept = replay_adaptive_swept(events, adaptive::RuntimeConfig{}, shard_counts);
  EXPECT_TRUE(swept.deterministic) << swept.mismatch;
  EXPECT_TRUE(swept.mismatch.empty());
  EXPECT_NE(swept.replay.summary().find("messages="), std::string::npos);
  EXPECT_GT(swept.replay.stats.messages, 0);

  // The swept reference is the plain replay at its first shard count.
  adaptive::RuntimeConfig cfg;
  cfg.service.engine.shards = 1;
  EXPECT_EQ(replay_adaptive(events, cfg).summary(), swept.replay.summary());
}

// ---------------------------------------------------------------------------
// Streaming ingest: the pull-based batch path must reproduce the
// materialized event order exactly, at any batch size, with bounded
// buffering — and fall back (still byte-identical) on layouts it cannot
// merge incrementally.

std::string write_temp_file(const std::string& name, const std::string& text) {
  const std::string path = ::testing::TempDir() + name;
  std::ofstream os(path);
  os << text;
  return path;
}

/// Monotone per-rank times with frequent cross-rank ties, occasional
/// unresolved senders, both levels populated.
trace::TraceStore random_store(std::uint32_t seed, int nranks, int records_per_rank) {
  std::mt19937 rng(seed);
  trace::TraceStore store(nranks);
  for (int rank = 0; rank < nranks; ++rank) {
    for (const auto level : {trace::Level::Logical, trace::Level::Physical}) {
      std::int64_t t = static_cast<std::int64_t>(rng() % 3);
      for (int i = 0; i < records_per_rank; ++i) {
        t += static_cast<std::int64_t>(rng() % 2);  // ties within and across ranks
        const bool unresolved = level == trace::Level::Logical && rng() % 13 == 0;
        store.append(rank, level,
                     {.time = sim::SimTime{t},
                      .sender = unresolved ? trace::kUnresolvedSender
                                           : static_cast<std::int32_t>(rng() % nranks),
                      .bytes = static_cast<std::int64_t>(8 << (rng() % 4)),
                      .kind = rng() % 5 == 0 ? trace::OpKind::Collective
                                             : trace::OpKind::PointToPoint});
      }
    }
  }
  return store;
}

std::vector<TimedEvent> pull_all(EventStream& stream, std::size_t batch) {
  std::vector<TimedEvent> out;
  while (stream.next_batch(batch, out) != 0) {
  }
  return out;
}

TEST(Streaming, NativeFileMatchesMaterializedAcrossBatchSizes) {
  const auto store = random_store(/*seed=*/101, /*nranks=*/5, /*records_per_rank=*/120);
  const std::string path = ::testing::TempDir() + "stream_native.csv";
  trace::write_csv_file(path, store);
  for (const auto level : {trace::Level::Logical, trace::Level::Physical}) {
    const auto expect = engine::events_from_trace(store, level);
    for (const std::size_t batch : {std::size_t{1}, std::size_t{3}, std::size_t{64},
                                    std::size_t{1 << 20}}) {
      auto reader = CsvStreamReader::open(path, level);
      EXPECT_TRUE(reader->streaming());
      EXPECT_EQ(reader->nranks(), 5);
      const auto got = pull_all(*reader, batch);
      EXPECT_EQ(strip_times(got), expect) << "batch = " << batch;
      // Bounded buffering: one lookahead per requested-level section (5
      // ranks -> 5 cursors), independent of trace length or batch size.
      EXPECT_LE(reader->peak_buffered_events(), 5u);
      // Times are the merge keys and must come out non-decreasing.
      for (std::size_t i = 1; i < got.size(); ++i) {
        EXPECT_LE(got[i - 1].time.count(), got[i].time.count());
      }
    }
  }
}

// A hand-interleaved native file: one rank's records split across two
// sections with overlapping times. The merge must reproduce the
// materialized order — stable by time over rank-major concatenation —
// not file order.
TEST(Streaming, NativeInterleavedSectionsMergeLikeMaterialized) {
  const std::string text = std::string(kNative) +
                           "0,1,10,1,111,0,0\n"   // rank 0, section A
                           "1,1,5,0,222,0,0\n"    // rank 1
                           "0,1,5,1,333,0,0\n"    // rank 0, section B
                           "0,1,10,1,444,0,0\n";  // tie with section A's 10
  const std::string path = write_temp_file("stream_sections.csv", text);
  const auto source = parse(text);
  const auto expect = source->events(trace::Level::Physical);

  auto reader = CsvStreamReader::open(path, trace::Level::Physical);
  EXPECT_TRUE(reader->streaming());
  const auto got = strip_times(pull_all(*reader, 2));
  ASSERT_EQ(got, expect);
  // Spot-check the order: both 5s (rank 0 then rank 1), then rank 0's
  // earlier-section 10 before its later-section 10.
  ASSERT_EQ(got.size(), 4u);
  EXPECT_EQ(got[0].bytes, 333);
  EXPECT_EQ(got[1].bytes, 222);
  EXPECT_EQ(got[2].bytes, 111);
  EXPECT_EQ(got[3].bytes, 444);
}

TEST(Streaming, FlatSortedStreamsUnsortedFallsBack) {
  const std::string sorted = std::string(kFlat) + "5,1,0,100\n5,2,1,200\n5,3,0,300\n7,0,1,50\n";
  const std::string sorted_path = write_temp_file("stream_flat_sorted.csv", sorted);
  const auto sorted_expect = parse(sorted)->events(trace::Level::Physical);
  auto sorted_reader = CsvStreamReader::open(sorted_path, trace::Level::Physical);
  EXPECT_TRUE(sorted_reader->streaming());
  EXPECT_EQ(strip_times(pull_all(*sorted_reader, 1)), sorted_expect);

  // Ties at t=5 come out rank-major (receiver 0's two records first) even
  // though the file interleaves receivers.
  ASSERT_EQ(sorted_expect.size(), 4u);
  EXPECT_EQ(sorted_expect[0].bytes, 100);
  EXPECT_EQ(sorted_expect[1].bytes, 300);
  EXPECT_EQ(sorted_expect[2].bytes, 200);

  const std::string unsorted = std::string(kFlat) + "9,1,0,100\n5,2,1,200\n7,0,1,50\n";
  const std::string unsorted_path = write_temp_file("stream_flat_unsorted.csv", unsorted);
  auto unsorted_reader = CsvStreamReader::open(unsorted_path, trace::Level::Physical);
  EXPECT_FALSE(unsorted_reader->streaming());  // decreasing time: materialized fallback
  EXPECT_EQ(strip_times(pull_all(*unsorted_reader, 2)),
            parse(unsorted)->events(trace::Level::Physical));

  // Flat traces carry the physical level only; the logical stream is empty.
  auto logical = CsvStreamReader::open(sorted_path, trace::Level::Logical);
  EXPECT_TRUE(pull_all(*logical, 16).empty());
}

// The bounded-memory property of the streaming reader: while streaming,
// it never holds more than the per-section lookahead (plus one
// timestamp-tie group for flat files) — in particular never `max_events`
// parsed events — nor more than one line-buffer block per section,
// however long the trace is.
TEST(Streaming, BoundedBufferingIndependentOfTraceLength) {
  constexpr std::size_t kBlock = CsvStreamReader::kBlockBytes;
  std::vector<std::size_t> flat_bytes;
  for (const int rows : {10000, 40000}) {
    std::string flat = std::string(kFlat);
    for (int i = 0; i < rows; ++i) {
      flat += std::to_string(i) + "," + std::to_string(i % 3) + "," + std::to_string(i % 4) +
              ",64\n";
    }
    const std::string flat_path = write_temp_file("stream_flat_long.csv", flat);
    auto flat_reader = CsvStreamReader::open(flat_path, trace::Level::Physical);
    const auto got = pull_all(*flat_reader, 64);
    EXPECT_EQ(got.size(), static_cast<std::size_t>(rows));
    EXPECT_TRUE(flat_reader->streaming());
    EXPECT_LE(flat_reader->peak_buffered_events(), 2u);  // distinct times: tie groups of 1
    // One block: open()'s scan, then the single forward reader.
    EXPECT_LE(flat_reader->peak_buffered_bytes(), kBlock);
    flat_bytes.push_back(flat_reader->peak_buffered_bytes());
  }
  EXPECT_EQ(flat_bytes[0], flat_bytes[1]);

  std::vector<std::size_t> native_bytes;
  for (const int records_per_rank : {2000, 8000}) {
    const auto store = random_store(/*seed=*/7, /*nranks=*/4, records_per_rank);
    const std::string native_path = ::testing::TempDir() + "stream_native_long.csv";
    trace::write_csv_file(native_path, store);
    auto native_reader = CsvStreamReader::open(native_path, trace::Level::Physical);
    EXPECT_EQ(pull_all(*native_reader, 64).size(),
              engine::events_from_trace(store, trace::Level::Physical).size());
    EXPECT_LE(native_reader->peak_buffered_events(), 4u);  // one lookahead per rank section
    // One block per rank section, each section being longer than a block.
    EXPECT_LE(native_reader->peak_buffered_bytes(), 4 * kBlock);
    native_bytes.push_back(native_reader->peak_buffered_bytes());
  }
  EXPECT_EQ(native_bytes[0], native_bytes[1]);

  // Many sections: 4,096 rank sections of ~1.4 KiB each would need ~5.6 MiB
  // of blocks of their own size; the budget splits instead.
  const auto wide = random_store(/*seed=*/11, /*nranks=*/4096, /*records_per_rank=*/64);
  const std::string wide_path = ::testing::TempDir() + "stream_native_wide.csv";
  trace::write_csv_file(wide_path, wide);
  auto wide_reader = CsvStreamReader::open(wide_path, trace::Level::Physical);
  EXPECT_TRUE(wide_reader->streaming());
  EXPECT_EQ(strip_times(pull_all(*wide_reader, 8192)),
            engine::events_from_trace(wide, trace::Level::Physical));
  EXPECT_LE(wide_reader->peak_buffered_events(), 4096u);
  EXPECT_LE(wide_reader->peak_buffered_bytes(), CsvStreamReader::kBufferBudgetBytes);
}

// ---------------------------------------------------------------------------
// Block boundaries. The CSV line reader pulls CsvStreamReader::kBlockBytes
// at a time, so the corpus below has sections several blocks long, lines
// straddling block edges, single lines longer than a block, CRLF endings,
// comments and blank lines inside sections, and files without a final
// newline. The streamed, materialized and CsvTraceSource paths must agree
// on every variant at every batch size.

constexpr std::size_t kBlock = CsvStreamReader::kBlockBytes;

std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream is(text);
  for (std::string line; std::getline(is, line);) {
    lines.push_back(line);
  }
  return lines;
}

/// Rebuilds a file from `lines`, each ending in `eol` except, when
/// `final_newline` is false, the last.
std::string join_lines(const std::vector<std::string>& lines, const std::string& eol,
                       bool final_newline) {
  std::string text;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    text += lines[i];
    if (i + 1 < lines.size() || final_newline) {
      text += eol;
    }
  }
  return text;
}

/// The boundary variants of an LF file whose data lines start after line
/// `header`: every variant carries the same events. `bytes_field` is the
/// column padded with leading zeros into a line longer than a block.
std::vector<std::pair<std::string, std::string>> boundary_variants(const std::string& text,
                                                                   std::size_t header,
                                                                   std::size_t bytes_field) {
  const std::vector<std::string> lines = lines_of(text);
  std::vector<std::string> noted;  // a comment and a blank every 50 data lines
  for (std::size_t i = 0; i < lines.size(); ++i) {
    noted.push_back(lines[i]);
    if (i > header && i % 50 == 0) {
      noted.push_back("# note inside a section");
      noted.push_back("");
    }
  }
  std::vector<std::string> long_lines = lines;
  const std::size_t mid = header + (lines.size() - header) / 2;
  long_lines.insert(long_lines.begin() + static_cast<std::ptrdiff_t>(mid),
                    "#" + std::string(3 * kBlock, 'c'));
  std::vector<std::string> fields;
  std::istringstream row(long_lines[mid + 1]);
  for (std::string f; std::getline(row, f, ',');) {
    fields.push_back(f);
  }
  fields.at(bytes_field).insert(0, 2 * kBlock, '0');
  std::string padded;
  for (const std::string& f : fields) {
    padded += (padded.empty() ? "" : ",") + f;
  }
  long_lines[mid + 1] = padded;
  std::vector<std::string> everything = long_lines;
  everything.insert(everything.begin() + static_cast<std::ptrdiff_t>(header) + 7, "");
  everything.insert(everything.begin() + static_cast<std::ptrdiff_t>(header) + 3,
                    "# and one comment more");
  return {{"lf", text},
          {"crlf", join_lines(lines, "\r\n", true)},
          {"no-final-newline", join_lines(lines, "\n", false)},
          {"crlf-no-final-newline", join_lines(lines, "\r\n", false)},
          {"comments-and-blanks", join_lines(noted, "\n", true)},
          {"long-lines", join_lines(long_lines, "\n", true)},
          {"everything", join_lines(everything, "\r\n", false)}};
}

/// Checks one corpus file on every path and batch size against `expect`.
void expect_paths_agree(const std::string& name, const std::string& text,
                        trace::Level level, const std::vector<engine::Event>& expect) {
  const std::string path = write_temp_file("boundary_" + name + ".csv", text);
  const auto source = open_trace(path);  // CsvTraceSource::parse
  ASSERT_EQ(source->events(level), expect) << name;
  for (const std::size_t batch : {std::size_t{1}, std::size_t{7}, std::size_t{8192},
                                  std::size_t{0}}) {
    auto reader = CsvStreamReader::open(path, level);
    EXPECT_TRUE(reader->streaming()) << name;
    const auto streamed = drain(*reader, batch);
    const auto materialized = drain(*source->stream_events(level), batch);
    EXPECT_EQ(streamed, materialized) << name << " batch " << batch;
    EXPECT_EQ(strip_times(streamed), expect) << name << " batch " << batch;
  }
}

TEST(BlockBoundaries, NativeVariantsAgreeOnEveryPath) {
  const auto store = random_store(/*seed=*/404, /*nranks=*/4, /*records_per_rank=*/2500);
  std::stringstream csv;
  trace::write_csv(csv, store);
  ASSERT_GT(csv.str().size() / 8, 2 * kBlock);  // each of the 8 sections spans blocks
  for (const auto& [name, text] : boundary_variants(csv.str(), /*header=*/2, /*bytes_field=*/4)) {
    for (const auto level : {trace::Level::Logical, trace::Level::Physical}) {
      expect_paths_agree("native_" + name, text, level, engine::events_from_trace(store, level));
    }
  }
}

TEST(BlockBoundaries, FlatVariantsAgreeOnEveryPath) {
  std::mt19937 rng(505);
  std::string text = kFlat;
  std::int64_t t = 0;
  for (int i = 0; i < 20000; ++i) {
    t += static_cast<std::int64_t>(rng() % 3);  // frequent ties across receivers
    text += std::to_string(t) + "," + std::to_string(rng() % 6) + "," +
            std::to_string(rng() % 6) + "," + std::to_string(8 << (rng() % 6)) + "\n";
  }
  ASSERT_GT(text.size(), 8 * kBlock);
  const auto expect = parse(text)->events(trace::Level::Physical);
  ASSERT_EQ(expect.size(), 20000u);
  for (const auto& [name, variant] : boundary_variants(text, /*header=*/0, /*bytes_field=*/3)) {
    expect_paths_agree("flat_" + name, variant, trace::Level::Physical, expect);
  }
}

/// The diagnostic both readers give for `path`; fails the test when the
/// file is accepted or the two disagree.
Diagnostic diagnostic_of(const std::string& path) {
  Diagnostic streamed;
  Diagnostic parsed;
  try {
    (void)CsvStreamReader::open(path, trace::Level::Physical);
    ADD_FAILURE() << "CsvStreamReader accepted " << path;
  } catch (const IngestError& e) {
    streamed = e.where();
  }
  std::ifstream is(path);
  try {
    (void)CsvTraceSource::parse(is, path);
    ADD_FAILURE() << "CsvTraceSource accepted " << path;
  } catch (const IngestError& e) {
    parsed = e.where();
  }
  EXPECT_EQ(to_string(streamed), to_string(parsed));
  return streamed;
}

// A malformed row deep in a multi-block file, placed across a block edge:
// both readers name the same file:line, field and reason as for a short
// file.
TEST(BlockBoundaries, MalformedRowDeepInFileKeepsItsDiagnostic) {
  const auto store = random_store(/*seed=*/606, /*nranks=*/4, /*records_per_rank=*/2500);
  std::stringstream csv;
  trace::write_csv(csv, store);
  std::vector<std::string> lines = lines_of(csv.str());
  // The data line that straddles the third block edge, with room to grow.
  std::size_t victim = 0;
  for (std::size_t i = 0, offset = 0; i < lines.size(); offset += lines[i].size() + 1, ++i) {
    if (i > 2 && offset + 2 < 3 * kBlock && 3 * kBlock < offset + lines[i].size() - 2) {
      victim = i;
      break;
    }
  }
  ASSERT_NE(victim, 0u);
  const std::string good = lines[victim];

  lines[victim] = good.substr(0, good.rfind(',')) + ",99";
  Diagnostic d =
      diagnostic_of(write_temp_file("boundary_bad_op.csv", join_lines(lines, "\n", true)));
  EXPECT_EQ(d.line, victim + 1);
  EXPECT_EQ(d.field, "op");
  EXPECT_EQ(d.reason, "value 99 outside [0, " + std::to_string(trace::kNumOps) + ")");

  lines[victim] = good + ",1,2";  // more fields than the splitter stores
  d = diagnostic_of(write_temp_file("boundary_wide.csv", join_lines(lines, "\r\n", true)));
  EXPECT_EQ(d.line, victim + 1);
  EXPECT_EQ(d.field, "");
  EXPECT_EQ(d.reason, "has 9 fields, expected 7");

  lines[victim] = good.substr(0, good.find(',')) + ",0,12x,1,8,0,0";
  d = diagnostic_of(write_temp_file("boundary_bad_int.csv", join_lines(lines, "\n", false)));
  EXPECT_EQ(d.line, victim + 1);
  EXPECT_EQ(d.field, "time_ns");
  EXPECT_EQ(d.reason, "malformed integer '12x'");
}

TEST(Streaming, NonMonotoneNativeSectionFallsBackByteIdentical) {
  const std::string text = std::string(kNative) + "0,1,10,1,64,0,0\n0,1,5,1,32,0,0\n";
  const std::string path = write_temp_file("stream_nonmono.csv", text);
  auto reader = CsvStreamReader::open(path, trace::Level::Physical);
  EXPECT_FALSE(reader->streaming());
  EXPECT_EQ(strip_times(pull_all(*reader, 1)), parse(text)->events(trace::Level::Physical));
}

TEST(Streaming, OpenValidatesTheWholeFileUpFront) {
  const std::string path =
      write_temp_file("stream_bad.csv", std::string(kNative) + "0,0,1,2,3,0,99\n");
  try {
    (void)CsvStreamReader::open(path, trace::Level::Logical);
    ADD_FAILURE() << "expected IngestError";
  } catch (const IngestError& e) {
    EXPECT_EQ(e.where().field, "op");
    EXPECT_EQ(e.where().line, 2u);
    EXPECT_EQ(e.where().file, path);
  }
}

TEST(Streaming, SourceStreamEventsMatchesEvents) {
  const auto store = random_store(/*seed=*/33, /*nranks=*/3, /*records_per_rank=*/50);
  std::stringstream csv;
  trace::write_csv(csv, store);
  const auto source = open_trace_stream(csv, "<test>");
  for (const auto level : {trace::Level::Logical, trace::Level::Physical}) {
    const auto stream = source->stream_events(level);
    EXPECT_TRUE(stream->time_ordered());
    EXPECT_EQ(strip_times(drain(*stream)), source->events(level));
  }
}

TEST(Streaming, StreamingReplayMatchesObserveAllReport) {
  const auto store = random_store(/*seed=*/55, /*nranks=*/4, /*records_per_rank=*/100);
  const std::string path = ::testing::TempDir() + "stream_replay.csv";
  trace::write_csv_file(path, store);
  expect_grid_matches([&path] { return open_event_stream(path, trace::Level::Physical); },
                      engine::events_from_trace(store, trace::Level::Physical),
                      engine::EngineConfig{});
}

// ---------------------------------------------------------------------------
// Source transforms: window slicing, rank remapping, and their composition
// over the streaming pipeline.

TEST(Transform, WindowSpecParsing) {
  const TimeWindow w = TimeWindow::parse("5000:90000");
  EXPECT_EQ(w.begin_ns, 5000);
  EXPECT_EQ(w.end_ns, 90000);
  EXPECT_TRUE(w.contains(5000));
  EXPECT_FALSE(w.contains(90000));  // half-open
  EXPECT_EQ(w.to_string(), "[5000:90000)");

  EXPECT_FALSE(TimeWindow::parse("5000:").bounded_end());
  EXPECT_FALSE(TimeWindow::parse(":90000").bounded_begin());
  EXPECT_THROW((void)TimeWindow::parse("123"), UsageError);     // no colon
  EXPECT_THROW((void)TimeWindow::parse(":"), UsageError);       // no bound
  EXPECT_THROW((void)TimeWindow::parse("9:5"), UsageError);     // empty window
  EXPECT_THROW((void)TimeWindow::parse("a:b"), UsageError);     // not integers
  EXPECT_THROW((void)TimeWindow::parse("1:2:3"), UsageError);   // extra colon
}

TEST(Transform, RemapSpecParsing) {
  const RankRemapConfig mod = RankRemapConfig::parse("mod:64");
  EXPECT_EQ(mod.mode, RankRemapConfig::Mode::Modulo);
  EXPECT_EQ(mod.modulo, 64);
  EXPECT_EQ(mod.collisions, RankRemapConfig::Collisions::Fold);
  EXPECT_EQ(mod.to_string(), "mod:64");

  const RankRemapConfig strict = RankRemapConfig::parse("mod:8:strict");
  EXPECT_EQ(strict.collisions, RankRemapConfig::Collisions::Reject);
  EXPECT_EQ(strict.to_string(), "mod:8:strict");

  // Ranges normalize: sorted and merged, whatever the spec order.
  const RankRemapConfig keep = RankRemapConfig::parse("keep:5,0-2,1-3");
  EXPECT_EQ(keep.mode, RankRemapConfig::Mode::Keep);
  EXPECT_EQ(keep.to_string(), "keep:0-3,5");
  EXPECT_EQ(keep.kept_count(), 5);

  EXPECT_THROW((void)RankRemapConfig::parse("mod:0"), UsageError);
  EXPECT_THROW((void)RankRemapConfig::parse("mod:x"), UsageError);
  EXPECT_THROW((void)RankRemapConfig::parse("keep:"), UsageError);
  EXPECT_THROW((void)RankRemapConfig::parse("keep:3-1"), UsageError);
  EXPECT_THROW((void)RankRemapConfig::parse("drop:1"), UsageError);
}

std::vector<TimedEvent> timed(std::initializer_list<std::tuple<int, int, int, int>> rows) {
  // (time, src, dst, bytes)
  std::vector<TimedEvent> out;
  for (const auto& [t, src, dst, bytes] : rows) {
    out.push_back({.time = sim::SimTime{t},
                   .event = {.source = src, .destination = dst, .bytes = bytes}});
  }
  return out;
}

TEST(Transform, WindowSlicesHalfOpenAndStopsEarlyWhenOrdered) {
  auto inner = std::make_unique<VectorEventStream>(
      timed({{1, 0, 1, 8}, {3, 0, 1, 8}, {5, 0, 1, 8}, {7, 0, 1, 8}, {9, 0, 1, 8}}),
      /*time_ordered=*/true);
  TimeWindowSource window(std::move(inner), TimeWindow::parse("3:7"));
  const auto got = drain(window);
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0].time.count(), 3);
  EXPECT_EQ(got[1].time.count(), 5);
  // Ordered inner: the source stops at the first event past the end (the
  // tail at 7 and 9 is never inspected or counted).
  EXPECT_EQ(window.summary(), "window [3:7): kept 2 of 3 events");
}

TEST(Transform, RemapModuloFoldsBothEndpoints) {
  auto inner = std::make_unique<VectorEventStream>(
      timed({{1, 5, 2, 8}, {2, 6, 3, 8}, {3, 1, 0, 8}}));
  RankRemapSource remap(std::move(inner), RankRemapConfig::parse("mod:4"));
  const auto got = drain(remap);
  ASSERT_EQ(got.size(), 3u);
  EXPECT_EQ(got[0].event.source, 1);       // 5 % 4
  EXPECT_EQ(got[0].event.destination, 2);  // 2 % 4
  EXPECT_EQ(got[1].event.source, 2);       // 6 % 4
  EXPECT_EQ(got[1].event.destination, 3);
  const auto report = remap.report();
  EXPECT_EQ(report.ranks_observed, 6);  // 5, 2, 6, 3, 1, 0
  EXPECT_EQ(report.new_ranks, 4);
  EXPECT_EQ(report.folded, 2);  // 5->1 and 6->2 collide with 1 and 2
  EXPECT_EQ(report.nranks(), 4);
  EXPECT_EQ(report.events_kept, 3);
}

TEST(Transform, RemapKeepSubsetsDenselyWithExternalSenders) {
  // Keep receivers {2, 3, 5}: dense ids 0, 1, 2; external senders -> 3.
  auto inner = std::make_unique<VectorEventStream>(timed({
      {1, 3, 2, 8},   // kept: src 3 -> 1, dst 2 -> 0
      {2, 9, 5, 8},   // kept: foreign sender 9 -> external 3, dst 5 -> 2
      {3, 2, 7, 8},   // dropped: receiver 7 outside the set
      {4, 8, 3, 8},   // kept: foreign sender 8 -> external 3, dst 3 -> 1
  }));
  RankRemapSource remap(std::move(inner), RankRemapConfig::parse("keep:2-3,5"));
  const auto got = drain(remap);
  ASSERT_EQ(got.size(), 3u);
  EXPECT_EQ(got[0].event.destination, 0);
  EXPECT_EQ(got[0].event.source, 1);
  EXPECT_EQ(got[1].event.destination, 2);
  EXPECT_EQ(got[1].event.source, 3);
  EXPECT_EQ(got[2].event.destination, 1);
  EXPECT_EQ(got[2].event.source, 3);
  const auto report = remap.report();
  EXPECT_EQ(report.events_dropped, 1);
  EXPECT_EQ(report.external_senders, 2);  // 9 and 8
  EXPECT_EQ(report.nranks(), 4);          // dense 0..2 plus external 3
  const std::vector<std::pair<std::int32_t, std::int32_t>> want_mapping = {
      {2, 0}, {3, 1}, {5, 2}, {8, 3}, {9, 3}};
  EXPECT_EQ(report.mapping, want_mapping);
}

TEST(Transform, StrictCollisionPolicyRejects) {
  auto inner = std::make_unique<VectorEventStream>(timed({{1, 0, 1, 8}, {2, 4, 1, 8}}));
  RankRemapSource remap(std::move(inner), RankRemapConfig::parse("mod:4:strict"));
  try {
    (void)drain(remap);
    ADD_FAILURE() << "expected IngestError on 0 and 4 folding onto rank 0";
  } catch (const IngestError& e) {
    EXPECT_NE(std::string(e.what()).find("both map to new rank 0"), std::string::npos)
        << e.what();
  }
  // The same fold without :strict is the documented behavior.
  auto fold_inner = std::make_unique<VectorEventStream>(timed({{1, 0, 1, 8}, {2, 4, 1, 8}}));
  RankRemapSource fold(std::move(fold_inner), RankRemapConfig::parse("mod:4"));
  EXPECT_EQ(drain(fold).size(), 2u);
  EXPECT_EQ(fold.report().folded, 1);

  // Keep mode's external-sender rank merges foreign senders by design:
  // :strict must not reject it (and kept ranks cannot collide at all).
  auto keep_inner = std::make_unique<VectorEventStream>(
      timed({{1, 8, 0, 8}, {2, 9, 1, 8}, {3, 0, 1, 8}}));
  RankRemapSource keep(std::move(keep_inner), RankRemapConfig::parse("keep:0-1:strict"));
  EXPECT_EQ(drain(keep).size(), 3u);
  EXPECT_EQ(keep.report().external_senders, 2);
}

// The composition property of the tentpole: remap ∘ window ∘ stream over a
// randomized trace equals the materialized, pre-transformed reference —
// an oracle computed eagerly and independently here — for every batch
// size, and the engine report over the chain matches across shard counts
// and batch sizes.
TEST(Transform, CompositionMatchesEagerReferenceOnRandomizedTrace) {
  std::mt19937 rng(2003);
  std::vector<TimedEvent> events;
  for (int i = 0; i < 4000; ++i) {
    events.push_back({.time = sim::SimTime{static_cast<std::int64_t>(i / 2)},  // frequent ties
                      .event = {.source = static_cast<std::int32_t>(rng() % 24),
                                .destination = static_cast<std::int32_t>(rng() % 24),
                                .tag = static_cast<std::int32_t>(rng() % 2),
                                .bytes = static_cast<std::int64_t>(8 << (rng() % 6))}});
  }
  const TransformSpec spec =
      TransformSpec::parse(/*window=*/"200:1500", /*remap=*/"mod:5");

  // Independent oracle: eager filter-then-map over the same vector.
  std::vector<TimedEvent> oracle;
  for (TimedEvent te : events) {
    if (te.time.count() < 200 || te.time.count() >= 1500) {
      continue;
    }
    te.event.source %= 5;
    te.event.destination %= 5;
    oracle.push_back(te);
  }
  ASSERT_FALSE(oracle.empty());

  for (const std::size_t batch : {std::size_t{1}, std::size_t{7}, std::size_t{512},
                                  std::size_t{1 << 20}}) {
    auto chain = apply_transforms(
        std::make_unique<VectorEventStream>(events, /*time_ordered=*/true), spec);
    EXPECT_EQ(pull_all(*chain.stream, batch), oracle) << "batch = " << batch;
  }

  // Engine equality across shard counts × gate batch sizes, against the
  // oracle's report.
  expect_grid_matches(
      [&events, &spec] {
        return apply_transforms(
                   std::make_unique<VectorEventStream>(events, /*time_ordered=*/true), spec)
            .stream;
      },
      strip_times(oracle), engine::EngineConfig{});

  // Mapping reports are a pure function of the streamed events: identical
  // for any batch size.
  auto chain_a = apply_transforms(
      std::make_unique<VectorEventStream>(events, /*time_ordered=*/true), spec);
  auto chain_b = apply_transforms(
      std::make_unique<VectorEventStream>(events, /*time_ordered=*/true), spec);
  (void)pull_all(*chain_a.stream, 3);
  (void)pull_all(*chain_b.stream, 999);
  EXPECT_EQ(chain_a.remap->report().summary(), chain_b.remap->report().summary());
  EXPECT_EQ(chain_a.remap->report().mapping, chain_b.remap->report().mapping);
}

// End-to-end over a real file, with both transforms active: the
// file-backed streamed chain yields the materialized transformed
// reference (the tools' ingest gate), and drives the engine to its report
// across the whole shard × batch grid.
TEST(Transform, StreamedSourceGateHoldsOverTransformedFile) {
  const auto store = random_store(/*seed=*/77, /*nranks=*/6, /*records_per_rank=*/80);
  const std::string path = ::testing::TempDir() + "stream_transformed.csv";
  trace::write_csv_file(path, store);
  const auto source = open_trace(path);
  const TransformSpec spec = TransformSpec::parse("10:120", "keep:0-2");
  for (const trace::Level level : source->levels()) {
    const auto reference = drain(*apply_transforms(source->stream_events(level), spec).stream);
    ASSERT_FALSE(reference.empty());
    const auto file_chain = [&path, &spec, level] {
      return apply_transforms(open_event_stream(path, level), spec).stream;
    };
    const auto gate = verify_stream_events(file_chain, reference);
    EXPECT_TRUE(gate.ok) << gate.detail;
    expect_grid_matches(file_chain, strip_times(reference), engine::EngineConfig{});
  }
}

}  // namespace
}  // namespace mpipred::ingest
