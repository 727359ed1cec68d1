#include "trace.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <utility>

namespace perfbench {

std::vector<std::uint64_t> self_times(const Spans& spans) {
  std::vector<std::vector<std::uint32_t>> children(spans.size());
  for (std::uint32_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent != kNoParent) {
      children[spans[i].parent].push_back(i);
    }
  }
  std::vector<std::uint64_t> self(spans.size(), 0);
  std::vector<std::pair<std::uint64_t, std::uint64_t>> cover;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& span = spans[i];
    cover.clear();
    for (const std::uint32_t c : children[i]) {
      const std::uint64_t lo = std::max(spans[c].start, span.start);
      const std::uint64_t hi = std::min(spans[c].end, span.end);
      if (lo < hi) {
        cover.emplace_back(lo, hi);
      }
    }
    std::sort(cover.begin(), cover.end());
    std::uint64_t covered = 0;
    std::uint64_t reach = span.start;
    for (const auto& [lo, hi] : cover) {
      const std::uint64_t from = std::max(lo, reach);
      if (hi > from) {
        covered += hi - from;
        reach = hi;
      }
    }
    self[i] = span.duration() - covered;
  }
  return self;
}

std::map<std::string, std::uint64_t> layer_self_times(const Spans& spans) {
  const std::vector<std::uint64_t> self = self_times(spans);
  std::map<std::string, std::uint64_t> layers;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    layers[spans[i].layer] += self[i];
  }
  return layers;
}

std::vector<double> durations_of(const Spans& spans, const char* name) {
  std::vector<double> out;
  for (const Span& span : spans) {
    if (std::strcmp(span.name, name) == 0) {
      out.push_back(static_cast<double>(span.duration()));
    }
  }
  return out;
}

bool write_chrome_trace(const std::string& path, const Spans& spans,
                        std::size_t max_events) {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) {
    return false;
  }
  const std::uint64_t origin = spans.empty() ? 0 : spans.front().start;
  const std::size_t count = std::min(max_events, spans.size());
  std::fprintf(file, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
  for (std::size_t i = 0; i < count; ++i) {
    const Span& s = spans[i];
    std::fprintf(file,
                 "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                 "\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span\":%zu,"
                 "\"parent\":%lld,\"request\":%llu}}\n",
                 i == 0 ? "" : ",", s.name, s.layer,
                 static_cast<double>(s.start - origin) / 1000.0,
                 static_cast<double>(s.duration()) / 1000.0, i,
                 s.parent == kNoParent ? -1LL : static_cast<long long>(s.parent),
                 static_cast<unsigned long long>(s.request));
  }
  std::fprintf(file, "],\"otherData\":{\"spans_total\":%zu,\"spans_written\":%zu}}\n",
               spans.size(), count);
  return std::fclose(file) == 0;
}

}  // namespace perfbench
