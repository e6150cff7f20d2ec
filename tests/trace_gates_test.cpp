// The tools' self-audit gates (bench/trace_gates.hpp) against mutants. A
// stream that drops one event at a batch boundary, a stream that swaps two
// events across a batch boundary, a session that reports differently, and
// an exported file with one byte changed after writing must each fail a
// gate; the unmutated input passes.

#include <gtest/gtest.h>

#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "apps/app.hpp"
#include "bench/trace_gates.hpp"
#include "mpi/world.hpp"
#include "trace/csv.hpp"

namespace mpipred::bench {
namespace {

/// Drops the first event of the second non-empty batch.
class DropAtBoundary final : public ingest::EventStream {
 public:
  explicit DropAtBoundary(std::unique_ptr<ingest::EventStream> inner)
      : inner_(std::move(inner)) {}

  std::size_t next_batch(std::size_t max_events, std::vector<ingest::TimedEvent>& out) override {
    const std::size_t before = out.size();
    const std::size_t got = inner_->next_batch(max_events, out);
    if (got > 1 && ++batches_ == 2) {
      out.erase(out.begin() + static_cast<std::ptrdiff_t>(before));
      return got - 1;
    }
    return got;
  }
  [[nodiscard]] bool time_ordered() const noexcept override { return inner_->time_ordered(); }

 private:
  std::unique_ptr<ingest::EventStream> inner_;
  int batches_ = 0;
};

/// Swaps the last event of the first batch with the first event after it.
class SwapAcrossBoundary final : public ingest::EventStream {
 public:
  explicit SwapAcrossBoundary(std::unique_ptr<ingest::EventStream> inner)
      : inner_(std::move(inner)) {}

  std::size_t next_batch(std::size_t max_events, std::vector<ingest::TimedEvent>& out) override {
    if (!started_) {
      started_ = true;
      const std::size_t got = inner_->next_batch(max_events, out);
      if (got != 0 && inner_->next_batch(1, held_) != 0) {
        std::swap(out.back(), held_.front());
      }
      return got;
    }
    if (held_.empty()) {
      return inner_->next_batch(max_events, out);
    }
    out.push_back(held_.front());
    held_.clear();
    return 1 + (max_events > 1 ? inner_->next_batch(max_events - 1, out) : 0);
  }
  [[nodiscard]] bool time_ordered() const noexcept override { return false; }

 private:
  std::unique_ptr<ingest::EventStream> inner_;
  std::vector<ingest::TimedEvent> held_;
  bool started_ = false;
};

class TraceGates : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    world_ = new mpi::World(8, apps::paper_world_config(/*seed=*/7));
    ASSERT_TRUE(
        apps::run_is(*world_, apps::AppConfig{.problem_class = apps::ProblemClass::S}).verified);
    trace::write_csv_file(path(), world_->traces());
  }
  static void TearDownTestSuite() {
    delete world_;
    world_ = nullptr;
  }

  static std::string path() { return ::testing::TempDir() + "trace_gates_is8.csv"; }

  /// The file-backed chains of `flags`, each stream wrapped in `Mutant`.
  template <typename Mutant>
  static LevelChainFactory mutated(const TraceFlags& flags) {
    return [inner = file_chains(flags)](trace::Level level) {
      auto chain = inner(level);
      chain.stream = std::make_unique<Mutant>(std::move(chain.stream));
      return chain;
    };
  }

  static ingest::GateResult gates(const TraceFlags& flags, const LevelChainFactory& make_chain) {
    const auto source = ingest::open_trace(flags.path);
    serve::PredictionServer server;
    return replay_trace_gated(*source, flags, server, engine::EngineConfig{}, make_chain).gates;
  }

  static mpi::World* world_;
};

mpi::World* TraceGates::world_ = nullptr;

TEST_F(TraceGates, UnmutatedInputPasses) {
  for (const auto& transforms :
       {ingest::TransformSpec{}, ingest::TransformSpec::parse(":400000", "mod:4")}) {
    const TraceFlags flags{.path = path(), .batch_events = 64, .transforms = transforms};
    const auto source = ingest::open_trace(flags.path);
    serve::PredictionServer server;
    const TraceReplay replay = replay_trace_gated(*source, flags, server, {}, file_chains(flags));
    EXPECT_TRUE(replay.gates.ok) << replay.gates.detail;
    ASSERT_EQ(replay.levels.size(), 2u);
    EXPECT_FALSE(replay.levels.back().events.empty());
  }
}

TEST_F(TraceGates, DroppedEventAtBatchBoundaryFails) {
  const TraceFlags flags{.path = path(), .batch_events = 64, .transforms = {}};
  const auto gate = gates(flags, mutated<DropAtBoundary>(flags));
  EXPECT_FALSE(gate.ok);
  EXPECT_NE(gate.detail.find("ingest gate"), std::string::npos) << gate.detail;
}

TEST_F(TraceGates, SwappedEventsAcrossBatchBoundaryFail) {
  const TraceFlags flags{.path = path(), .batch_events = 64, .transforms = {}};
  const auto gate = gates(flags, mutated<SwapAcrossBoundary>(flags));
  EXPECT_FALSE(gate.ok);
  EXPECT_NE(gate.detail.find("ingest gate"), std::string::npos) << gate.detail;
}

// A session whose engine differs from the gates' reference (here: another
// predictor) must fail the serve gate.
TEST_F(TraceGates, SessionThatDiffersFromReferenceFails) {
  const TraceFlags flags{.path = path(), .batch_events = 64, .transforms = {}};
  const auto source = ingest::open_trace(flags.path);
  serve::PredictionServer server({.engine = {.predictor = "last-value"}});
  const auto gate =
      replay_trace_gated(*source, flags, server, {.predictor = "dpd"}, file_chains(flags)).gates;
  EXPECT_FALSE(gate.ok);
  EXPECT_NE(gate.detail.find("serve gate"), std::string::npos) << gate.detail;
}

TEST_F(TraceGates, ExportCheckRejectsOneChangedByte) {
  const std::string copy = ::testing::TempDir() + "trace_gates_export.csv";
  trace::write_csv_file(copy, world_->traces());
  const auto ok = verify_export(copy, world_->traces(), engine::EngineConfig{});
  EXPECT_TRUE(ok.ok) << ok.detail;

  // Bump the leading digit of the bytes column (rank,level,time_ns,sender,
  // bytes,...) of the middle data row whose sender is resolved: the file
  // still parses, but one message now has another size.
  std::stringstream text;
  text << std::ifstream(copy).rdbuf();
  std::string csv = text.str();
  std::vector<std::size_t> bytes_fields;
  std::istringstream lines(csv);
  std::size_t line_start = 0;
  for (std::string line; std::getline(lines, line); line_start += line.size() + 1) {
    if (line.empty() || line[0] < '0' || line[0] > '9') {
      continue;  // comment or column header
    }
    std::size_t at = 0;
    for (int comma = 0; comma < 3; ++comma) {
      at = line.find(',', at) + 1;
    }
    if (line[at] != '-') {
      bytes_fields.push_back(line_start + line.find(',', at) + 1);
    }
  }
  ASSERT_FALSE(bytes_fields.empty());
  const std::size_t field = bytes_fields[bytes_fields.size() / 2];
  csv[field] = csv[field] == '9' ? '1' : static_cast<char>(csv[field] + 1);
  std::ofstream(copy, std::ios::binary) << csv;

  const auto corrupted = verify_export(copy, world_->traces(), engine::EngineConfig{});
  EXPECT_FALSE(corrupted.ok);
  EXPECT_NE(corrupted.detail.find("differ from the run's"), std::string::npos)
      << corrupted.detail;
}

}  // namespace
}  // namespace mpipred::bench
