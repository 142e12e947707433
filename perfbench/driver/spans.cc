#include "driver/spans.h"

#include <algorithm>
#include <cstdio>
#include <utility>

namespace perfbench {

int32_t SpanRecorder::Layer(const std::string& name) {
  for (size_t i = 0; i < layers_.size(); ++i) {
    if (layers_[i] == name) return static_cast<int32_t>(i);
  }
  layers_.push_back(name);
  return static_cast<int32_t>(layers_.size() - 1);
}

int32_t SpanRecorder::Begin(int32_t layer, int64_t op) {
  SpanRecord span;
  span.layer = layer;
  span.parent = open_.empty() ? -1 : open_.back();
  span.op = op;
  span.start_ns = NowNs();
  spans_.push_back(span);
  const int32_t index = static_cast<int32_t>(spans_.size() - 1);
  open_.push_back(index);
  return index;
}

void SpanRecorder::End(int32_t span) {
  spans_[static_cast<size_t>(span)].end_ns = NowNs();
  if (!open_.empty() && open_.back() == span) open_.pop_back();
}

void SpanRecorder::Add(int32_t layer, int64_t op, int64_t start_ns,
                       int64_t end_ns) {
  SpanRecord span;
  span.layer = layer;
  span.parent = open_.empty() ? -1 : open_.back();
  span.op = op;
  span.start_ns = start_ns;
  span.end_ns = end_ns;
  spans_.push_back(span);
}

bool SpanRecorder::WriteCsv(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fprintf(out, "layer,parent,op,start_ns,end_ns\n");
  for (const SpanRecord& s : spans_) {
    std::fprintf(out, "%s,%d,%lld,%lld,%lld\n",
                 layers_[static_cast<size_t>(s.layer)].c_str(), s.parent,
                 static_cast<long long>(s.op),
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
  }
  return std::fclose(out) == 0;
}

std::vector<int64_t> SelfTimesNs(const std::vector<SpanRecord>& spans) {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(
      spans.size());
  for (const SpanRecord& s : spans) {
    if (s.parent >= 0) {
      children[static_cast<size_t>(s.parent)].emplace_back(s.start_ns,
                                                           s.end_ns);
    }
  }
  std::vector<int64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    int64_t covered = 0;
    int64_t cursor = s.start_ns;  // end of the union covered so far
    for (const auto& [start, end] : kids) {
      const int64_t lo = std::max(start, cursor);
      const int64_t hi = std::min(end, s.end_ns);
      if (hi > lo) {
        covered += hi - lo;
        cursor = hi;
      }
    }
    self[i] = (s.end_ns - s.start_ns) - covered;
  }
  return self;
}

std::vector<int64_t> SelfNsByLayer(const std::vector<SpanRecord>& spans,
                                   size_t layer_count) {
  std::vector<int64_t> by_layer(layer_count, 0);
  const std::vector<int64_t> self = SelfTimesNs(spans);
  for (size_t i = 0; i < spans.size(); ++i) {
    by_layer[static_cast<size_t>(spans[i].layer)] += self[i];
  }
  return by_layer;
}

int64_t RootNs(const std::vector<SpanRecord>& spans) {
  int64_t total = 0;
  for (const SpanRecord& s : spans) {
    if (s.parent < 0) total += s.end_ns - s.start_ns;
  }
  return total;
}

std::vector<double> DurationsNs(const std::vector<SpanRecord>& spans,
                                int32_t layer) {
  std::vector<double> out;
  for (const SpanRecord& s : spans) {
    if (s.layer == layer) {
      out.push_back(static_cast<double>(s.end_ns - s.start_ns));
    }
  }
  return out;
}

}  // namespace perfbench
