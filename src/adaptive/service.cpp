#include "adaptive/service.hpp"

#include <algorithm>

namespace mpipred::adaptive {

namespace {

engine::EngineConfig view_config(const ServiceConfig& cfg, bool by_source) {
  engine::EngineConfig out = cfg.engine;
  out.key = {.by_source = by_source, .by_destination = true, .by_tag = cfg.by_tag};
  // Both views share one registry (when the caller passed one); the view
  // label keeps their engine.* instruments distinct.
  out.metric_labels.set("view", by_source ? "stream" : "arrival");
  return out;
}

}  // namespace

PredictionService::PredictionService(ServiceConfig cfg)
    : cfg_(std::move(cfg)),
      arrival_(view_config(cfg_, /*by_source=*/false)),
      stream_(view_config(cfg_, /*by_source=*/true)),
      horizon_(arrival_.horizon()) {}

void PredictionService::observe(const engine::Event& event) {
  arrival_.observe(event);
  stream_.observe(event);
  ++events_;
  auto it = std::find_if(sources_.begin(), sources_.end(), [&](const DestinationSources& d) {
    return d.destination == event.destination;
  });
  if (it == sources_.end()) {
    sources_.push_back({.destination = event.destination, .sources = {event.source}});
    return;
  }
  if (std::find(it->sources.begin(), it->sources.end(), event.source) == it->sources.end()) {
    it->sources.push_back(event.source);
  }
}

void PredictionService::observe_all(std::span<const engine::Event> events) {
  for (const engine::Event& event : events) {
    observe(event);
  }
}

engine::StreamKey PredictionService::arrival_key(std::int32_t destination,
                                                 std::int32_t tag) const {
  return {.source = engine::kAnyKey,
          .destination = destination,
          .tag = cfg_.by_tag ? tag : engine::kAnyKey};
}

engine::StreamKey PredictionService::stream_key(std::int32_t source, std::int32_t destination,
                                                std::int32_t tag) const {
  return {.source = source,
          .destination = destination,
          .tag = cfg_.by_tag ? tag : engine::kAnyKey};
}

namespace {

/// One horizon slot read off an already-resolved stream (no per-call
/// table lookups — this sits on the simulator's per-message path).
std::optional<Prediction> prediction_at(const engine::StreamRef& ref,
                                        const engine::StreamSnapshot& snap, std::size_t h) {
  const auto sender = ref.predict_sender(h);
  if (!sender) {
    return std::nullopt;
  }
  Prediction out;
  out.sender = static_cast<std::int32_t>(*sender);
  out.bytes = ref.predict_size(h);
  out.confidence =
      out.bytes ? std::min(snap.sender_accuracy, snap.size_accuracy) : snap.sender_accuracy;
  return out;
}

}  // namespace

std::optional<Prediction> PredictionService::predict_next(std::int32_t destination, std::size_t h,
                                                          std::int32_t tag) const {
  const engine::StreamRef ref = arrival_.stream(arrival_key(destination, tag));
  return prediction_at(ref, ref.snapshot(), h);
}

std::vector<Prediction> PredictionService::predicted_window(std::int32_t destination,
                                                            std::int32_t tag) const {
  const engine::StreamRef ref = arrival_.stream(arrival_key(destination, tag));
  const engine::StreamSnapshot snap = ref.snapshot();
  std::vector<Prediction> out;
  out.reserve(horizon_);
  for (std::size_t h = 1; h <= horizon_; ++h) {
    if (auto p = prediction_at(ref, snap, h)) {
      out.push_back(*p);
    }
  }
  return out;
}

bool PredictionService::window_anticipates(std::int32_t destination, std::int32_t tag,
                                           std::int32_t sender, std::int64_t bytes,
                                           double min_confidence) const {
  const engine::StreamRef ref = arrival_.stream(arrival_key(destination, tag));
  const engine::StreamSnapshot snap = ref.snapshot();
  for (std::size_t h = 1; h <= horizon_; ++h) {
    const auto p = prediction_at(ref, snap, h);
    if (p && p->sender == sender && p->bytes && *p->bytes >= bytes &&
        p->confidence >= min_confidence) {
      return true;
    }
  }
  return false;
}

std::vector<std::int32_t> PredictionService::predicted_senders(std::int32_t destination,
                                                               double min_confidence,
                                                               std::int32_t tag) const {
  std::vector<std::int32_t> out;
  predicted_senders(out, destination, min_confidence, tag);
  return out;
}

void PredictionService::predicted_senders(std::vector<std::int32_t>& out,
                                          std::int32_t destination, double min_confidence,
                                          std::int32_t tag) const {
  out.clear();
  const engine::StreamRef ref = arrival_.stream(arrival_key(destination, tag));
  // Gate on the sender dimension alone: a missing size prediction must not
  // block buffer pre-posting (the buffer has a fixed size anyway).
  if (ref.snapshot().sender_accuracy < min_confidence) {
    return;
  }
  for (std::size_t h = 1; h <= horizon_; ++h) {
    const auto sender = ref.predict_sender(h);
    if (sender && std::find(out.begin(), out.end(), static_cast<std::int32_t>(*sender)) ==
                      out.end()) {
      out.push_back(static_cast<std::int32_t>(*sender));
    }
  }
}

std::optional<std::int64_t> PredictionService::predict_stream_size(std::int32_t source,
                                                                   std::int32_t destination,
                                                                   std::size_t h,
                                                                   std::int32_t tag) const {
  return stream_view(source, destination, tag).predict_size(h);
}

double PredictionService::stream_confidence(std::int32_t source, std::int32_t destination,
                                            std::int32_t tag) const {
  return stream_view(source, destination, tag).snapshot().size_accuracy;
}

double PredictionService::arrival_confidence(std::int32_t destination, std::int32_t tag) const {
  return arrival_.stream(arrival_key(destination, tag)).snapshot().sender_accuracy;
}

engine::StreamRef PredictionService::stream_view(std::int32_t source, std::int32_t destination,
                                                 std::int32_t tag) const {
  return stream_.stream(stream_key(source, destination, tag));
}

std::span<const std::int32_t> PredictionService::sources_of(std::int32_t destination) const {
  const auto it = std::find_if(sources_.begin(), sources_.end(), [&](const DestinationSources& d) {
    return d.destination == destination;
  });
  return it == sources_.end() ? std::span<const std::int32_t>{}
                              : std::span<const std::int32_t>(it->sources);
}

}  // namespace mpipred::adaptive
