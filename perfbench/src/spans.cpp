#include "spans.hpp"

#include <chrono>
#include <cstdio>

namespace perfbench {

std::int64_t now_ns() {
  // mpipred-lint: allow(wall-clock) -- this benchmark measures host time; the library never sees it
  const auto t = std::chrono::steady_clock::now().time_since_epoch();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t).count();
}

int Tracer::begin(std::string_view name) {
  if (!enabled_) {
    return -1;
  }
  const int parent = open_.empty() ? -1 : open_.back();
  spans_.push_back(Span{std::string(name), now_ns(), 0, parent, run_});
  const int index = static_cast<int>(spans_.size()) - 1;
  open_.push_back(index);
  return index;
}

void Tracer::end(int index) {
  if (index < 0) {
    return;
  }
  spans_[static_cast<std::size_t>(index)].end_ns = now_ns();
  open_.pop_back();
}

double Tracer::self_seconds(std::size_t index) const {
  const Span& span = spans_[index];
  double self = seconds_between(span.start_ns, span.end_ns);
  // Children follow their parent in recording order.
  for (std::size_t i = index + 1; i < spans_.size(); ++i) {
    if (spans_[i].parent == static_cast<int>(index)) {
      self -= seconds_between(spans_[i].start_ns, spans_[i].end_ns);
    }
  }
  return self;
}

double Tracer::total_seconds(std::string_view name, int run) const {
  double total = 0.0;
  for (const Span& span : spans_) {
    if (span.run == run && span.name == name) {
      total += seconds_between(span.start_ns, span.end_ns);
    }
  }
  return total;
}

std::size_t Tracer::count(std::string_view name, int run) const {
  std::size_t n = 0;
  for (const Span& span : spans_) {
    n += static_cast<std::size_t>(span.run == run && span.name == name);
  }
  return n;
}

bool Tracer::write_chrome_trace(const std::string& path, std::string_view process) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    return false;
  }
  const std::int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  std::fprintf(out, "{\"traceEvents\":[\n");
  std::fprintf(out,
               "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,"
               "\"args\":{\"name\":\"%.*s\"}}",
               static_cast<int>(process.size()), process.data());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(out,
                 ",\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,"
                 "\"dur\":%.3f,\"args\":{\"id\":%zu,\"parent\":%d,\"run\":%d,\"self_us\":%.3f}}",
                 s.name.c_str(), static_cast<double>(s.start_ns - origin) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3, i, s.parent, s.run,
                 self_seconds(i) * 1e6);
  }
  std::fprintf(out, "\n]}\n");
  return std::fclose(out) == 0;
}

}  // namespace perfbench
