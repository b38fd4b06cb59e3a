#include "trace.h"

#include <cstdio>
#include <unordered_map>

namespace perfbench {

uint32_t Tracer::Begin(std::string_view name, uint32_t parent,
                       uint64_t request_id) {
  if (!enabled_) return 0;
  Span span;
  span.id = static_cast<uint32_t>(spans_.size() + 1);
  span.parent = parent;
  span.request_id = request_id;
  span.start_ns = NowNs();
  span.name = std::string(name);
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

void Tracer::End(uint32_t id) {
  if (id == 0 || id > spans_.size()) return;
  spans_[id - 1].end_ns = NowNs();
}

uint32_t Tracer::Record(std::string_view name, int64_t start_ns,
                        int64_t end_ns, uint32_t parent,
                        uint64_t request_id) {
  if (!enabled_) return 0;
  Span span;
  span.id = static_cast<uint32_t>(spans_.size() + 1);
  span.parent = parent;
  span.request_id = request_id;
  span.start_ns = start_ns;
  span.end_ns = end_ns;
  span.name = std::string(name);
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

double Tracer::Seconds(uint32_t id) const {
  if (id == 0 || id > spans_.size()) return 0.0;
  const Span& s = spans_[id - 1];
  return static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
}

std::map<std::string, double> Tracer::SelfSecondsByName() const {
  std::unordered_map<uint32_t, int64_t> child_ns;
  for (const Span& s : spans_) {
    if (s.parent != 0) child_ns[s.parent] += s.end_ns - s.start_ns;
  }
  std::map<std::string, double> out;
  for (const Span& s : spans_) {
    int64_t self = s.end_ns - s.start_ns;
    if (auto it = child_ns.find(s.id); it != child_ns.end()) {
      self -= it->second;
    }
    out[s.name] += static_cast<double>(self) * 1e-9;
  }
  return out;
}

bool Tracer::WriteJsonl(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const Span& s : spans_) {
    std::fprintf(f, "[%u,%u,%llu,%lld,%lld,\"%s\"]\n", s.id, s.parent,
                 static_cast<unsigned long long>(s.request_id),
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns), s.name.c_str());
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
