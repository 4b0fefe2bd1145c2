#include "perfbench/src/trace.h"

#include <cstdio>
#include <cstring>

namespace perfbench {

Tracer::Scope::Scope(Tracer* tracer, const char* name, const char* layer,
                     uint64_t request)
    : tracer_(tracer), start_ns_(NowNs()) {
  if (tracer_ == nullptr || !tracer_->enabled_) return;
  Span span;
  span.name = name;
  span.layer = layer;
  span.start_ns = start_ns_;
  span.parent = tracer_->open_.empty() ? -1 : tracer_->open_.back();
  span.request = request;
  index_ = static_cast<int>(tracer_->spans_.size());
  tracer_->spans_.push_back(span);
  tracer_->open_.push_back(index_);
}

int64_t Tracer::Scope::End() {
  if (end_ns_ != 0) return end_ns_ - start_ns_;
  end_ns_ = NowNs();
  if (index_ >= 0) {
    tracer_->spans_[static_cast<size_t>(index_)].end_ns = end_ns_;
    tracer_->open_.pop_back();
  }
  return end_ns_ - start_ns_;
}

void Tracer::Add(const char* name, const char* layer, int64_t start_ns,
                 int64_t end_ns, uint64_t request) {
  if (!enabled_) return;
  Span span;
  span.name = name;
  span.layer = layer;
  span.start_ns = start_ns;
  span.end_ns = end_ns;
  span.parent = open_.empty() ? -1 : open_.back();
  span.request = request;
  spans_.push_back(span);
}

std::map<std::string, int64_t> Tracer::SelfTimeByLayer() const {
  // Children run sequentially inside their parent (single thread), so the
  // time they cover is the sum of their durations.
  std::vector<int64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_ns[static_cast<size_t>(s.parent)] += s.end_ns - s.start_ns;
    }
  }
  std::map<std::string, int64_t> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.layer[0] == '\0') continue;
    int64_t self = s.end_ns - s.start_ns - child_ns[i];
    out[s.layer] += self > 0 ? self : 0;
  }
  return out;
}

std::vector<int64_t> Tracer::Durations(const char* name) const {
  std::vector<int64_t> out;
  for (const Span& s : spans_) {
    if (std::strcmp(s.name, name) == 0) out.push_back(s.end_ns - s.start_ns);
  }
  return out;
}

bool Tracer::WriteJsonLines(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"span\":%zu,\"name\":\"%s\",\"layer\":\"%s\",\"start_ns\":"
                 "%lld,\"end_ns\":%lld,\"parent\":%d,\"request\":%llu}\n",
                 i, s.name, s.layer, static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns), s.parent,
                 static_cast<unsigned long long>(s.request));
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
