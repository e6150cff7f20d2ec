#include "ingest/verify.hpp"

#include <algorithm>
#include <sstream>
#include <vector>

#include "ingest/source.hpp"
#include "trace/csv.hpp"

namespace mpipred::ingest {

GateResult verify_stream_events(const StreamFactory& make_stream,
                                std::span<const TimedEvent> reference) {
  for (const std::size_t batch : kGateBatchEvents) {
    const auto stream = make_stream();
    const std::vector<TimedEvent> got = drain(*stream, batch);
    if (std::ranges::equal(got, reference)) {
      continue;
    }
    const auto first = std::ranges::mismatch(got, reference);
    return {.ok = false,
            .detail = "streamed events at batch-events=" + std::to_string(batch) +
                      " differ from the materialized reference at event " +
                      std::to_string(first.in1 - got.begin()) + " (" +
                      std::to_string(got.size()) + " vs " + std::to_string(reference.size()) +
                      " events)"};
  }
  return {};
}

GateResult verify_csv_round_trip(const trace::TraceStore& store) {
  std::stringstream csv;
  trace::write_csv(csv, store);
  std::unique_ptr<TraceSource> source;
  try {
    source = open_trace_stream(csv, "<round-trip>");
  } catch (const IngestError& e) {
    return {.ok = false, .detail = std::string("re-ingest failed: ") + e.what()};
  }
  for (const auto level : {trace::Level::Logical, trace::Level::Physical}) {
    const auto direct = engine::events_from_trace(store, level);
    const auto ingested = source->events(level);
    if (direct != ingested) {
      return {.ok = false,
              .detail = std::string(trace::to_string(level)) +
                        " level: ingested event stream differs from the store's (" +
                        std::to_string(ingested.size()) + " vs " + std::to_string(direct.size()) +
                        " events)"};
    }
  }
  return {};
}

InvarianceResult verify_engine_invariance(std::span<const engine::Event> events,
                                          const engine::EngineConfig& cfg,
                                          std::span<const std::size_t> shard_counts) {
  InvarianceResult out;
  if (shard_counts.empty()) {
    out.gate = {.ok = false, .detail = "no shard counts requested"};
    return out;
  }
  const auto report_at = [&](std::size_t shards) {
    engine::EngineConfig run = cfg;
    run.shards = shards;
    engine::PredictionEngine eng(run);
    eng.observe_all(events);
    return eng.report();
  };
  const auto mismatch = [&](const std::string& where) {
    return GateResult{.ok = false,
                      .detail = "engine report at " + where +
                                " differs from the reference at shards=" +
                                std::to_string(shard_counts.front()) + " (predictor " +
                                cfg.predictor + ", " + std::to_string(events.size()) +
                                " events)"};
  };
  out.reference = report_at(shard_counts.front());
  for (const std::size_t shards : shard_counts.subspan(1)) {
    if (report_at(shards) != out.reference) {
      out.gate = mismatch("shards=" + std::to_string(shards));
      return out;
    }
  }
  std::vector<TimedEvent> timed;
  timed.reserve(events.size());
  for (const engine::Event& event : events) {
    timed.push_back({.event = event});
  }
  engine::EngineConfig run = cfg;
  run.shards = shard_counts.back();
  for (const std::size_t batch : kGateBatchEvents) {
    VectorEventStream stream(timed);
    if (StreamingReplay{.engine = run, .batch_events = batch}.run(stream).report !=
        out.reference) {
      out.gate = mismatch("shards=" + std::to_string(run.shards) +
                          " batch-events=" + std::to_string(batch));
      return out;
    }
  }
  return out;
}

}  // namespace mpipred::ingest
