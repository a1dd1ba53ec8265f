#include "src/tracer.hpp"

#include <cstdio>
#include <string_view>

namespace perfbench {

Tracer::Tracer() : base_(std::chrono::steady_clock::now()) {}

SpanTrack& Tracer::track(std::string name) {
  tracks_.push_back(SpanTrack{std::move(name), {}});
  return tracks_.back();
}

double Tracer::nowUs() const {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - base_)
      .count();
}

uint64_t Tracer::record(SpanTrack& t, const char* name, double startUs,
                        double endUs, uint64_t parent, uint64_t id) {
  if (id == 0) id = nextId();
  t.spans.push_back(Span{name, startUs, endUs, id, parent});
  return id;
}

std::vector<double> Tracer::durations(const char* name) const {
  std::vector<double> out;
  for (const SpanTrack& t : tracks_) {
    for (const Span& s : t.spans) {
      if (std::string_view(s.name) == name) out.push_back(s.endUs - s.startUs);
    }
  }
  return out;
}

size_t Tracer::spanCount() const {
  size_t n = 0;
  for (const SpanTrack& t : tracks_) n += t.spans.size();
  return n;
}

bool Tracer::writeChromeJson(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n", f);
  bool first = true;
  int tid = 0;
  for (const SpanTrack& t : tracks_) {
    ++tid;
    std::fprintf(f,
                 "%s{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,"
                 "\"tid\":%d,\"args\":{\"name\":\"%s\"}}",
                 first ? "" : ",\n", tid, t.name.c_str());
    first = false;
    for (const Span& s : t.spans) {
      std::fprintf(f,
                   ",\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
                   "\"parent\":%llu}}",
                   s.name, tid, s.startUs, s.endUs - s.startUs,
                   static_cast<unsigned long long>(s.id),
                   static_cast<unsigned long long>(s.parent));
    }
  }
  std::fputs("\n]}\n", f);
  return std::fclose(f) == 0;
}

}  // namespace perfbench
