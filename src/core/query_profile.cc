#include "src/core/query_profile.h"

#include <algorithm>
#include <cstdio>

#include "src/common/log.h"

namespace indoorflow {

namespace {

std::string JsonNumber(double value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

// "12.3 ms" / "45.6 us" — for the human-readable report.
std::string HumanNs(int64_t ns) {
  char buf[32];
  if (ns >= 1'000'000'000) {
    std::snprintf(buf, sizeof(buf), "%.2f s",
                  static_cast<double>(ns) / 1e9);
  } else if (ns >= 1'000'000) {
    std::snprintf(buf, sizeof(buf), "%.2f ms",
                  static_cast<double>(ns) / 1e6);
  } else if (ns >= 1'000) {
    std::snprintf(buf, sizeof(buf), "%.2f us",
                  static_cast<double>(ns) / 1e3);
  } else {
    std::snprintf(buf, sizeof(buf), "%lld ns",
                  static_cast<long long>(ns));
  }
  return buf;
}

std::string Percent(int64_t part, int64_t whole) {
  char buf[16];
  const double pct =
      whole > 0 ? 100.0 * static_cast<double>(part) /
                      static_cast<double>(whole)
                : 0.0;
  std::snprintf(buf, sizeof(buf), "%5.1f%%", pct);
  return buf;
}

}  // namespace

const char* QueryProfile::VerdictName(Verdict verdict) {
  switch (verdict) {
    case Verdict::kPrunedMbr:
      return "pruned_mbr";
    case Verdict::kPrunedBound:
      return "pruned_bound";
    case Verdict::kEvaluated:
      return "evaluated";
  }
  return "pruned_mbr";
}

void QueryProfile::BeginPois(const std::vector<PoiId>& ids) {
  pois.clear();
  index_.clear();
  pois.reserve(ids.size());
  index_.reserve(ids.size());
  for (PoiId id : ids) {
    index_.emplace(id, pois.size());
    PoiEntry entry;
    entry.poi = id;
    pois.push_back(entry);
  }
}

void QueryProfile::Finalize() {
  for (PoiEntry& entry : pois) {
    if (entry.verdict == Verdict::kEvaluated) continue;
    entry.verdict =
        entry.bound_seen ? Verdict::kPrunedBound : Verdict::kPrunedMbr;
  }
}

int64_t QueryProfile::CountVerdict(Verdict verdict) const {
  int64_t count = 0;
  for (const PoiEntry& entry : pois) {
    if (entry.verdict == verdict) ++count;
  }
  return count;
}

std::string QueryProfile::ToJson() const {
  std::string out = "{\"kind\":\"";
  AppendJsonEscaped(kind, &out);
  out.append("\",\"algorithm\":\"");
  AppendJsonEscaped(algorithm, &out);
  if (!trace_id.empty()) {
    out.append("\",\"trace_id\":\"");
    AppendJsonEscaped(trace_id, &out);
  }
  out.append("\",\"params\":{\"ts\":");
  out.append(JsonNumber(ts));
  out.append(",\"te\":");
  out.append(JsonNumber(te));
  out.append(",\"k\":");
  out.append(std::to_string(k));
  out.append(",\"tau\":");
  out.append(JsonNumber(tau));
  out.append("},\"total_ns\":");
  out.append(std::to_string(total_ns));
  if (!approx_mode.empty()) {
    out.append(",\"sampled\":{\"mode\":\"");
    AppendJsonEscaped(approx_mode, &out);
    out.append("\",\"active\":");
    out.append(sampled ? "true" : "false");
    out.append(",\"budget\":");
    out.append(std::to_string(sample_budget));
    out.append(",\"population\":");
    out.append(std::to_string(sample_population));
    out.append(",\"evaluated\":");
    out.append(std::to_string(sample_size));
    out.append(",\"max_std_err\":");
    out.append(JsonNumber(max_std_err));
    out.push_back('}');
  }
  out.append(",\"stats\":");
  out.append(stats.ToJson());
  out.append(",\"verdicts\":{\"evaluated\":");
  out.append(std::to_string(CountVerdict(Verdict::kEvaluated)));
  out.append(",\"pruned_bound\":");
  out.append(std::to_string(CountVerdict(Verdict::kPrunedBound)));
  out.append(",\"pruned_mbr\":");
  out.append(std::to_string(CountVerdict(Verdict::kPrunedMbr)));
  out.append(",\"total\":");
  out.append(std::to_string(pois.size()));
  out.append("},\"detail\":");
  out.append(detail ? "true" : "false");
  if (detail) {
    out.append(",\"pois\":[");
    bool first = true;
    for (const PoiEntry& entry : pois) {
      if (!first) out.push_back(',');
      first = false;
      out.append("{\"poi\":");
      out.append(std::to_string(entry.poi));
      out.append(",\"verdict\":\"");
      out.append(VerdictName(entry.verdict));
      out.append("\",\"bound\":");
      out.append(JsonNumber(entry.bound));
      out.append(",\"flow\":");
      out.append(JsonNumber(entry.flow));
      out.append(",\"presence_evals\":");
      out.append(std::to_string(entry.presence_evals));
      out.push_back('}');
    }
    out.append("],\"object_costs\":[");
    first = true;
    for (const ObjectCost& cost : object_costs) {
      if (!first) out.push_back(',');
      first = false;
      out.append("{\"object\":");
      out.append(std::to_string(cost.object));
      out.append(",\"derive_ns\":");
      out.append(std::to_string(cost.derive_ns));
      out.push_back('}');
    }
    out.append("],\"join_trace\":{\"events\":[");
    first = true;
    for (const JoinEvent& event : join_events) {
      if (!first) out.push_back(',');
      first = false;
      out.append("{\"kind\":\"");
      out.append(event.kind);
      out.append("\",\"priority\":");
      out.append(JsonNumber(event.priority));
      out.append(",\"poi\":");
      out.append(std::to_string(event.poi));
      out.append(",\"list_size\":");
      out.append(std::to_string(event.list_size));
      out.push_back('}');
    }
    out.append("],\"dropped\":");
    out.append(std::to_string(join_events_dropped));
    out.push_back('}');
  }
  out.push_back('}');
  return out;
}

std::string QueryProfile::ToText() const {
  std::string out;
  out.append("query: ");
  out.append(kind);
  out.append(" (");
  out.append(algorithm);
  out.append(")\n");
  if (!trace_id.empty()) {
    out.append("trace: ");
    out.append(trace_id);
    out.push_back('\n');
  }
  char line[160];
  if (te != ts) {
    std::snprintf(line, sizeof(line), "window: [%g, %g]\n", ts, te);
  } else {
    std::snprintf(line, sizeof(line), "time: %g\n", ts);
  }
  out.append(line);
  if (k > 0) {
    std::snprintf(line, sizeof(line), "k: %d\n", k);
    out.append(line);
  }
  if (tau > 0.0) {
    std::snprintf(line, sizeof(line), "tau: %g\n", tau);
    out.append(line);
  }
  out.append("total: ");
  out.append(HumanNs(total_ns));
  out.push_back('\n');

  // Phase breakdown against the measured total. The phases cover the
  // algorithm's inner work; the remainder is engine dispatch, R-tree
  // selection, and result assembly.
  const int64_t phases[4] = {stats.retrieve_ns, stats.derive_ns,
                             stats.presence_ns, stats.topk_ns};
  const char* phase_names[4] = {"retrieve", "derive", "presence", "topk"};
  out.append("phases:\n");
  int64_t booked = 0;
  for (int i = 0; i < 4; ++i) {
    booked += phases[i];
    std::snprintf(line, sizeof(line), "  %-9s %10s  %s\n", phase_names[i],
                  HumanNs(phases[i]).c_str(),
                  Percent(phases[i], total_ns).c_str());
    out.append(line);
  }
  std::snprintf(line, sizeof(line), "  %-9s %10s  %s\n", "other",
                HumanNs(total_ns > booked ? total_ns - booked : 0).c_str(),
                Percent(total_ns > booked ? total_ns - booked : 0,
                        total_ns)
                    .c_str());
  out.append(line);

  // Pruning funnel: how the query POI set was dispatched.
  const int64_t evaluated = CountVerdict(Verdict::kEvaluated);
  const int64_t pruned_bound = CountVerdict(Verdict::kPrunedBound);
  const int64_t pruned_mbr = CountVerdict(Verdict::kPrunedMbr);
  const int64_t total_pois = static_cast<int64_t>(pois.size());
  out.append("pois:\n");
  std::snprintf(line, sizeof(line), "  evaluated    %6lld  %s\n",
                static_cast<long long>(evaluated),
                Percent(evaluated, total_pois).c_str());
  out.append(line);
  std::snprintf(line, sizeof(line), "  pruned_bound %6lld  %s\n",
                static_cast<long long>(pruned_bound),
                Percent(pruned_bound, total_pois).c_str());
  out.append(line);
  std::snprintf(line, sizeof(line), "  pruned_mbr   %6lld  %s\n",
                static_cast<long long>(pruned_mbr),
                Percent(pruned_mbr, total_pois).c_str());
  out.append(line);

  std::snprintf(
      line, sizeof(line),
      "work: objects=%lld regions=%lld presences=%lld pois=%lld "
      "cache_hits=%lld cells=%lld leaf_tests=%lld cell_caps=%lld\n",
      static_cast<long long>(stats.objects_retrieved),
      static_cast<long long>(stats.regions_derived),
      static_cast<long long>(stats.presence_evaluations),
      static_cast<long long>(stats.pois_evaluated),
      static_cast<long long>(stats.ur_cache_hits),
      static_cast<long long>(stats.cells_classified),
      static_cast<long long>(stats.leaf_tests),
      static_cast<long long>(stats.presence_cell_cap));
  out.append(line);

  // Sampling decision, on estimate queries only. `evaluated < population`
  // iff the sampler actually fired; adaptive queries that stayed exact show
  // the switch decision here too.
  if (!approx_mode.empty()) {
    std::snprintf(line, sizeof(line),
                  "sampled: mode=%s %s budget=%lld population=%lld "
                  "evaluated=%lld max_stderr=%g\n",
                  approx_mode.c_str(),
                  sampled ? "(sampling)" : "(exact: under budget/threshold)",
                  static_cast<long long>(sample_budget),
                  static_cast<long long>(sample_population),
                  static_cast<long long>(sample_size), max_std_err);
    out.append(line);
  }

  // Parallel fan-out, if the query ran any. parallel_ns is wall time of
  // the fanned sections, while the phase timers above sum per-worker time —
  // so with lanes > 1 the phases can legitimately exceed the total.
  if (stats.parallel_tasks > 0) {
    std::snprintf(line, sizeof(line),
                  "parallel: lanes=%lld wall=%s (phase times are per-worker "
                  "sums)\n",
                  static_cast<long long>(stats.parallel_tasks),
                  HumanNs(stats.parallel_ns).c_str());
    out.append(line);
  }

  if (detail && !object_costs.empty()) {
    std::vector<ObjectCost> sorted = object_costs;
    std::sort(sorted.begin(), sorted.end(),
              [](const ObjectCost& a, const ObjectCost& b) {
                return a.derive_ns > b.derive_ns;
              });
    const size_t show = std::min<size_t>(sorted.size(), 5);
    std::snprintf(line, sizeof(line),
                  "object derive costs (top %zu of %zu):\n", show,
                  sorted.size());
    out.append(line);
    for (size_t i = 0; i < show; ++i) {
      std::snprintf(line, sizeof(line), "  object %-6d %10s\n",
                    sorted[i].object, HumanNs(sorted[i].derive_ns).c_str());
      out.append(line);
    }
  }

  if (detail && !join_events.empty()) {
    std::snprintf(line, sizeof(line),
                  "join trace (%zu events%s):\n", join_events.size(),
                  join_events_dropped > 0 ? ", truncated" : "");
    out.append(line);
    // Condensed: the first and last few pops show the bound collapsing
    // toward the cutoff without pages of output.
    const size_t n = join_events.size();
    const size_t head = std::min<size_t>(n, 8);
    for (size_t i = 0; i < head; ++i) {
      const JoinEvent& e = join_events[i];
      std::snprintf(line, sizeof(line),
                    "  %-9s priority=%-12g poi=%-6d list=%d\n", e.kind,
                    e.priority, e.poi, e.list_size);
      out.append(line);
    }
    if (n > head + 4) {
      std::snprintf(line, sizeof(line), "  ... %zu more ...\n",
                    n - head - 4);
      out.append(line);
    }
    for (size_t i = std::max(head, n >= 4 ? n - 4 : 0); i < n; ++i) {
      const JoinEvent& e = join_events[i];
      std::snprintf(line, sizeof(line),
                    "  %-9s priority=%-12g poi=%-6d list=%d\n", e.kind,
                    e.priority, e.poi, e.list_size);
      out.append(line);
    }
  }
  return out;
}

void ProfileRecorder::Record(const QueryProfile& profile) {
  MutexLock lock(mu_);
  const int64_t seq = next_seq_++;
  // Age out profiles that fell off the recency window, so a burst of slow
  // queries an hour ago doesn't pin the buffer forever.
  const int64_t min_seq = seq - window_;
  slots_.erase(std::remove_if(slots_.begin(), slots_.end(),
                              [min_seq](const Slot& slot) {
                                return slot.seq < min_seq;
                              }),
               slots_.end());
  if (slots_.size() < capacity_) {
    slots_.push_back(Slot{seq, profile});
    return;
  }
  // Full: keep the N slowest — replace the fastest retained profile if the
  // new one is slower.
  auto fastest = std::min_element(
      slots_.begin(), slots_.end(), [](const Slot& a, const Slot& b) {
        return a.profile.total_ns < b.profile.total_ns;
      });
  if (profile.total_ns > fastest->profile.total_ns) {
    *fastest = Slot{seq, profile};
  }
}

std::string ProfileRecorder::ToJson() const {
  MutexLock lock(mu_);
  std::vector<const Slot*> ordered;
  ordered.reserve(slots_.size());
  for (const Slot& slot : slots_) ordered.push_back(&slot);
  std::sort(ordered.begin(), ordered.end(),
            [](const Slot* a, const Slot* b) {
              return a->profile.total_ns > b->profile.total_ns;
            });
  std::string out = "{\"capacity\":";
  out.append(std::to_string(capacity_));
  out.append(",\"window\":");
  out.append(std::to_string(window_));
  out.append(",\"recorded\":");
  out.append(std::to_string(next_seq_));
  out.append(",\"profiles\":[");
  bool first = true;
  for (const Slot* slot : ordered) {
    if (!first) out.push_back(',');
    first = false;
    out.append(slot->profile.ToJson());
  }
  out.append("]}");
  return out;
}

size_t ProfileRecorder::size() const {
  MutexLock lock(mu_);
  return slots_.size();
}

int64_t ProfileRecorder::recorded() const {
  MutexLock lock(mu_);
  return next_seq_;
}

}  // namespace indoorflow
