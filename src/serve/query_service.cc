#include "src/serve/query_service.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <utility>
#include <vector>

#include "src/common/deadline.h"
#include "src/common/executor.h"
#include "src/common/log.h"
#include "src/core/approx.h"
#include "src/core/flow.h"
#include "src/core/query_stats.h"
#include "src/core/streaming.h"
#include "src/serve/json.h"

namespace indoorflow {

namespace {

// Shortest-faithful double rendering: "%.17g" round-trips but prints
// 0.30000000000000004-style noise for most values; try increasing
// precision until the parse round-trips.
std::string NumberJson(double value) {
  if (!std::isfinite(value)) return "0";
  char buf[64];
  for (int precision = 6; precision <= 17; ++precision) {
    std::snprintf(buf, sizeof(buf), "%.*g", precision, value);
    if (std::strtod(buf, nullptr) == value) break;
  }
  return buf;
}

HttpResponse ErrorResponse(const std::string& message) {
  HttpResponse response;
  response.code = 400;
  response.body = "{\"status\":\"error\",\"message\":\"" +
                  JsonEscape(message) + "\"}\n";
  return response;
}

// One request's parameters, whichever wire form they arrived in: a POST
// body parses as flat JSON, a GET (or body-less POST) as a query string
// whose values become kString and get converted on lookup.
class Params {
 public:
  static Result<Params> FromRequest(const HttpRequest& request) {
    Params params;
    if (!request.body.empty()) {
      auto parsed = ParseFlatJsonObject(request.body);
      INDOORFLOW_RETURN_IF_ERROR(parsed.status());
      params.values_ = std::move(parsed).value();
    } else {
      for (const auto& [key, value] : DecodeQueryString(request.query)) {
        JsonValue json;
        json.type = JsonValue::Type::kString;
        json.string = value;
        params.values_[key] = std::move(json);
      }
    }
    return params;
  }

  bool Has(const std::string& key) const {
    return values_.count(key) != 0;
  }

  /// Reads `key` as a double. OK whether present or not (`*found` says
  /// which); InvalidArgument when present but not numeric.
  Status GetDouble(const std::string& key, double* out,
                   bool* found) const {
    *found = false;
    const auto it = values_.find(key);
    if (it == values_.end()) return Status::OK();
    const JsonValue& value = it->second;
    if (value.type == JsonValue::Type::kNumber) {
      *out = value.number;
    } else if (value.type == JsonValue::Type::kString &&
               !value.string.empty()) {
      char* end = nullptr;
      *out = std::strtod(value.string.c_str(), &end);
      if (end != value.string.c_str() + value.string.size()) {
        return Status::InvalidArgument("parameter '" + key +
                                       "' is not a number");
      }
    } else {
      return Status::InvalidArgument("parameter '" + key +
                                     "' is not a number");
    }
    if (!std::isfinite(*out)) {
      return Status::InvalidArgument("parameter '" + key +
                                     "' is not finite");
    }
    *found = true;
    return Status::OK();
  }

  /// GetDouble, then requires an exact integer value.
  Status GetInt(const std::string& key, int64_t* out, bool* found) const {
    double value = 0.0;
    INDOORFLOW_RETURN_IF_ERROR(GetDouble(key, &value, found));
    if (!*found) return Status::OK();
    if (value != std::floor(value)) {
      return Status::InvalidArgument("parameter '" + key +
                                     "' is not an integer");
    }
    *out = static_cast<int64_t>(value);
    return Status::OK();
  }

  Status GetString(const std::string& key, std::string* out,
                   bool* found) const {
    *found = false;
    const auto it = values_.find(key);
    if (it == values_.end()) return Status::OK();
    if (it->second.type != JsonValue::Type::kString) {
      return Status::InvalidArgument("parameter '" + key +
                                     "' is not a string");
    }
    *out = it->second.string;
    *found = true;
    return Status::OK();
  }

  /// Rejects any key outside `known` — a typoed "deadline_m" should be a
  /// 400, not a silently applied default.
  Status CheckKnown(const std::vector<std::string>& known) const {
    for (const auto& [key, value] : values_) {
      bool ok = false;
      for (const std::string& name : known) ok = ok || name == key;
      if (!ok) {
        return Status::InvalidArgument("unknown parameter '" + key + "'");
      }
    }
    return Status::OK();
  }

 private:
  JsonObject values_;
};

enum class QueryKind { kSnapshot, kInterval, kLive };

// One fully validated /query/* request, defaults and clamps applied.
struct ParsedQuery {
  QueryKind kind = QueryKind::kSnapshot;
  /// Live queries: whether the client named `t` (when not, the stream
  /// clock at evaluation time is substituted and echoed back).
  bool has_t = false;
  /// The query itself; live queries use its t (= ts = te), k and approx.
  /// The evaluation mode is the service default, overridden by the
  /// request's `approx=` / `sample_budget=` when present.
  QuerySpec spec{.algorithm = Algorithm::kJoin};
  int64_t deadline_ms = 0;
  /// Whether the client named `approx=` itself — an explicit approx=exact
  /// is never downgraded under pressure.
  bool approx_requested = false;
  /// Set during evaluation when degraded admission forced sampling.
  bool degraded = false;
};

/// Whether the query answers with estimates: live continuous top-k under
/// a non-exact mode, or a spec the engine samples (IsEstimate). Join and
/// density queries stay exact whatever the mode.
bool Approximate(const ParsedQuery& query) {
  return query.kind == QueryKind::kLive
             ? query.spec.approx.mode != ApproxMode::kExact
             : IsEstimate(query.spec);
}

Status ParseQuery(const HttpRequest& request,
                  const QueryServiceOptions& options, ParsedQuery* out) {
  auto params_or = Params::FromRequest(request);
  INDOORFLOW_RETURN_IF_ERROR(params_or.status());
  const Params& params = params_or.value();
  const bool is_live_endpoint = request.path == "/query/live";
  // Live queries run the monitor's continuous top-k: no algorithm or
  // metric choice, and `t` is optional (defaults to the stream clock).
  INDOORFLOW_RETURN_IF_ERROR(params.CheckKnown(
      is_live_endpoint
          ? std::vector<std::string>{"t", "k", "deadline_ms", "approx",
                                     "sample_budget"}
          : std::vector<std::string>{"t", "ts", "te", "k", "algo", "metric",
                                     "deadline_ms", "approx",
                                     "sample_budget"}));

  const bool is_join_endpoint = request.path == "/query/join";
  QuerySpec& spec = out->spec;
  bool found = false;
  if (is_live_endpoint) {
    out->kind = QueryKind::kLive;
    INDOORFLOW_RETURN_IF_ERROR(params.GetDouble("t", &spec.ts, &out->has_t));
  } else if (request.path == "/query/snapshot" || is_join_endpoint) {
    INDOORFLOW_RETURN_IF_ERROR(params.GetDouble("t", &spec.ts, &found));
  }
  if (found) {
    out->kind = QueryKind::kSnapshot;
    if (params.Has("ts") || params.Has("te")) {
      return Status::InvalidArgument("pass either t or ts/te, not both");
    }
  } else if (request.path == "/query/interval" || is_join_endpoint) {
    out->kind = QueryKind::kInterval;
    spec.interval = true;
    bool found_ts = false;
    bool found_te = false;
    INDOORFLOW_RETURN_IF_ERROR(params.GetDouble("ts", &spec.ts, &found_ts));
    INDOORFLOW_RETURN_IF_ERROR(params.GetDouble("te", &spec.te, &found_te));
    if (!found_ts || !found_te) {
      return Status::InvalidArgument(
          is_join_endpoint ? "missing parameter: t (or ts and te)"
                           : "missing parameter: ts and te are required");
    }
  } else if (!is_live_endpoint) {
    return Status::InvalidArgument("missing parameter: t is required");
  }
  if (!spec.interval) spec.te = spec.ts;

  int64_t k = options.default_k;
  INDOORFLOW_RETURN_IF_ERROR(params.GetInt("k", &k, &found));
  // Out-of-int values clamp into ValidateQuerySpec's rejected range.
  spec.k = static_cast<int>(
      std::clamp<int64_t>(k, 0, std::numeric_limits<int>::max()));

  if (!is_live_endpoint) {
    std::string algo = "join";
    INDOORFLOW_RETURN_IF_ERROR(params.GetString("algo", &algo, &found));
    if (algo == "join") {
      spec.algorithm = Algorithm::kJoin;
    } else if (algo == "iterative") {
      if (is_join_endpoint) {
        return Status::InvalidArgument(
            "/query/join always runs algo=join; use /query/snapshot or "
            "/query/interval for algo=iterative");
      }
      spec.algorithm = Algorithm::kIterative;
    } else {
      return Status::InvalidArgument("algo must be 'join' or 'iterative'");
    }

    std::string metric = "flow";
    INDOORFLOW_RETURN_IF_ERROR(
        params.GetString("metric", &metric, &found));
    if (metric == "density") {
      spec.objective = Objective::kDensity;
    } else if (metric != "flow") {
      return Status::InvalidArgument("metric must be 'flow' or 'density'");
    }
  }

  // Approximate evaluation (docs/APPROXIMATION.md): the service default,
  // overridable per request. A request naming approx=sampled|adaptive for
  // a shape with no sampled path is a 400, not a silent exact answer; a
  // service-wide sampled default simply doesn't apply to such shapes.
  spec.approx = options.approx;
  std::string approx_name;
  INDOORFLOW_RETURN_IF_ERROR(
      params.GetString("approx", &approx_name, &found));
  if (found) {
    out->approx_requested = true;
    if (!ApproxModeFromName(approx_name, &spec.approx.mode)) {
      return Status::InvalidArgument(
          "approx must be 'exact', 'sampled', or 'adaptive'");
    }
  }
  INDOORFLOW_RETURN_IF_ERROR(params.GetInt(
      "sample_budget", &spec.approx.sample_budget, &found));
  if (out->approx_requested && spec.approx.mode != ApproxMode::kExact &&
      !Approximate(*out)) {
    return Status::InvalidArgument(
        "approx=sampled|adaptive requires algo=iterative and metric=flow "
        "(join and density queries always evaluate exactly)");
  }
  INDOORFLOW_RETURN_IF_ERROR(ValidateQuerySpec(spec));

  int64_t deadline_ms = options.default_deadline_ms;
  INDOORFLOW_RETURN_IF_ERROR(
      params.GetInt("deadline_ms", &deadline_ms, &found));
  if (deadline_ms <= 0) {
    return Status::InvalidArgument("deadline_ms must be > 0");
  }
  if (deadline_ms > options.max_deadline_ms) {
    deadline_ms = options.max_deadline_ms;  // clamp, don't reject
  }
  out->deadline_ms = deadline_ms;
  return Status::OK();
}

// The request-echo half of every response body: what ran, under what
// deadline, for correlating responses with client-side settings.
void AppendQueryEcho(const ParsedQuery& query, std::string* body) {
  const QuerySpec& spec = query.spec;
  if (query.kind == QueryKind::kInterval) {
    body->append(",\"ts\":" + NumberJson(spec.ts) +
                 ",\"te\":" + NumberJson(spec.te));
  } else {
    // Snapshot and live both echo one timestamp — for live it is the
    // stream-clock default when the client named none.
    body->append(",\"t\":" + NumberJson(spec.ts));
  }
  body->append(",\"k\":" + std::to_string(spec.k));
  if (query.kind == QueryKind::kLive) {
    body->append(",\"live\":true");
  } else {
    body->append(spec.algorithm == Algorithm::kJoin
                     ? ",\"algo\":\"join\""
                     : ",\"algo\":\"iterative\"");
    body->append(spec.objective == Objective::kDensity
                     ? ",\"metric\":\"density\""
                     : ",\"metric\":\"flow\"");
  }
  body->append(",\"deadline_ms\":" + std::to_string(query.deadline_ms));
  // Approximation is only echoed when it can actually apply, so exact
  // responses keep their pre-approximation shape byte for byte.
  if (Approximate(query)) {
    body->append(",\"approx\":\"" +
                 std::string(ApproxModeName(spec.approx.mode)) + "\"");
    body->append(",\"sample_budget\":" +
                 std::to_string(spec.approx.sample_budget));
    if (query.degraded) body->append(",\"degraded\":true");
  }
}

HttpResponse DeadlineResponse(const ParsedQuery& query, int64_t arrival_ns,
                              const std::string& trace_id) {
  HttpResponse response;
  response.code = 504;
  response.body =
      "{\"status\":\"deadline_exceeded\",\"trace_id\":\"" + trace_id + "\"";
  AppendQueryEcho(query, &response.body);
  response.body.append(
      ",\"elapsed_ms\":" +
      NumberJson(static_cast<double>(MonotonicNowNs() - arrival_ns) /
                 1e6) +
      "}\n");
  return response;
}

}  // namespace

QueryService::QueryService(const QueryEngine* engine,
                           QueryServiceOptions options,
                           const StreamingMonitor* monitor)
    : engine_(engine),
      monitor_(monitor),
      options_(options),
      requests_(MetricsRegistry::Default().counter("serve.requests")),
      admitted_(MetricsRegistry::Default().counter("serve.admitted")),
      shed_(MetricsRegistry::Default().counter("serve.shed")),
      degraded_(MetricsRegistry::Default().counter("serve.degraded")),
      deadline_exceeded_(
          MetricsRegistry::Default().counter("serve.deadline_exceeded")),
      queue_depth_(MetricsRegistry::Default().gauge("serve.queue_depth")),
      latency_us_(
          MetricsRegistry::Default().histogram("serve.latency_us")),
      queue_wait_us_(
          MetricsRegistry::Default().histogram("serve.queue_wait_us")) {}

QueryService::~QueryService() { Stop(); }

void QueryService::RegisterRoutes(ExpoServer* server) {
  std::vector<const char*> paths = {"/query/snapshot", "/query/interval",
                                    "/query/join"};
  // No monitor, no live route: an unrouted path 404s at the server, which
  // beats a route that can only ever 400.
  if (monitor_ != nullptr) paths.push_back("/query/live");
  for (const char* path : paths) {
    server->HandleRequest(
        path, [this](const HttpRequest& request,
                     ExpoServer::ExchangePtr exchange) {
          Submit(request, [exchange](const HttpResponse& response) {
            exchange->Respond(response);
          });
        });
  }
  server->Handle("/traces/recent", "application/json",
                 []() { return TraceRing::Default().ToJson(); });
}

QueryService::RequestTrace QueryService::StartRequestTrace(
    const HttpRequest& request) const {
  RequestTrace rt;
  TraceContext incoming;
  if (!request.traceparent.empty() &&
      TraceContext::FromTraceparent(request.traceparent, &incoming)) {
    // Join the caller's trace: same trace id, the caller's span becomes
    // the remote parent of our root span, and the caller's sampling
    // decision is honored over the local rate.
    rt.context = incoming;
    rt.context.span_id = NextSpanId();
    rt.remote_parent_id = incoming.span_id;
  } else {
    rt.context = NewTraceContext(options_.trace_sample);
  }
  if (rt.context.sampled) {
    rt.trace = std::make_shared<Trace>(rt.context, rt.remote_parent_id);
  }
  return rt;
}

void QueryService::FinishRequest(const std::string& endpoint,
                                 const RequestTrace& rt,
                                 const RequestOutcome& outcome,
                                 int64_t arrival_ns) {
  if (rt.trace != nullptr) {
    rt.trace->Finish();
    TraceRing::Default().Push(rt.trace);
  }
  if (!LogEnabled(LogLevel::kInfo)) return;
  // The canonical query log: one wide record per request, whatever its
  // fate, with the trace id as the join key across /traces/recent,
  // /profiles/recent, and the metrics in the response body.
  LogRecord record = Log(LogLevel::kInfo, "query_log", "request");
  record.Field("trace_id", rt.context.trace_id_hex());
  record.Field("endpoint", endpoint);
  record.Field("admission", outcome.admission);
  record.Field("outcome", outcome.status);
  record.Field("code", static_cast<int64_t>(outcome.code));
  record.Field("sampled", rt.context.sampled);
  record.Field("deadline_ms", outcome.deadline_ms);
  record.Field("queue_wait_us", outcome.queue_wait_us);
  record.Field("latency_us", (MonotonicNowNs() - arrival_ns) / 1000);
  for (const QueryStatsField& field : kQueryStatsFields) {
    record.Field(field.json_name, outcome.stats.*field.member);
  }
}

void QueryService::Submit(const HttpRequest& request, Responder respond) {
  requests_.Add();
  const int64_t enqueue_ns = MonotonicNowNs();
  const RequestTrace rt = StartRequestTrace(request);
  enum class Decision { kAdmit, kShedStopping, kShedFull };
  Decision decision = Decision::kAdmit;
  int depth = 0;
  {
    MutexLock lock(mu_);
    if (stopping_) {
      decision = Decision::kShedStopping;
      depth = inflight_;
    } else if (inflight_ >= options_.queue_limit) {
      decision = Decision::kShedFull;
      depth = inflight_;
    } else {
      depth = ++inflight_;
    }
  }
  // Degraded admission: past degrade_depth the request still runs, but
  // sampled (EvaluateTraced applies it; explicit approx=exact wins).
  const bool degrade =
      decision == Decision::kAdmit && options_.degrade_depth > 0 &&
      depth >= options_.degrade_depth;
  // Respond outside the lock: the responder does socket IO.
  if (decision != Decision::kAdmit) {
    shed_.Add();
    HttpResponse response;
    response.code = 503;
    response.body =
        std::string("{\"status\":\"shed\",\"reason\":") +
        (decision == Decision::kShedStopping ? "\"stopping\""
                                             : "\"queue_full\"") +
        ",\"trace_id\":\"" + rt.context.trace_id_hex() +
        "\",\"queue_depth\":" + std::to_string(depth) +
        ",\"queue_limit\":" + std::to_string(options_.queue_limit) +
        "}\n";
    RequestOutcome outcome;
    outcome.admission = decision == Decision::kShedStopping
                            ? "shed_stopping"
                            : "shed_queue_full";
    outcome.status = "shed";
    outcome.code = 503;
    FinishRequest(request.path, rt, outcome, enqueue_ns);
    respond(response);
    return;
  }
  admitted_.Add();
  queue_depth_.Set(depth);
  // std::function requires copyable captures, so the request is copied
  // into the task; it is small (capped body) and the accept thread must
  // not block on the executor anyway.
  Executor::Default().Submit(
      [this, request, respond = std::move(respond), enqueue_ns, rt,
       degrade]() {
        RunAdmitted(request, respond, enqueue_ns, rt, degrade);
      });
}

void QueryService::RunAdmitted(const HttpRequest& request,
                               const Responder& respond,
                               int64_t enqueue_ns,
                               const RequestTrace& rt, bool degrade) {
  const int64_t waited_ns = MonotonicNowNs() - enqueue_ns;
  const int64_t waited_ms = waited_ns / 1'000'000;
  queue_wait_us_.Record(static_cast<double>(waited_ns) / 1e3);
  RequestOutcome outcome;
  outcome.queue_wait_us = waited_ns / 1000;
  HttpResponse response;
  {
    // The request's root span. It opens at dequeue; the wait the request
    // already served in the queue is recorded as a pre-measured child so
    // the tree still accounts for it.
    Span root(rt.trace.get(), "request");
    root.RecordChild("queue_wait", enqueue_ns, waited_ns);
    if (options_.max_queue_wait_ms > 0 &&
        waited_ms > options_.max_queue_wait_ms) {
      // Shed before computing: this request already sat in the queue past
      // the wait cap, so serving it would only push every later request
      // further past its own deadline.
      shed_.Add();
      outcome.admission = "shed_queue_wait";
      outcome.status = "shed";
      outcome.code = 503;
      response.code = 503;
      response.body =
          "{\"status\":\"shed\",\"reason\":\"queue_wait\",\"trace_id\":\"" +
          rt.context.trace_id_hex() + "\",\"waited_ms\":" +
          std::to_string(waited_ms) + ",\"max_queue_wait_ms\":" +
          std::to_string(options_.max_queue_wait_ms) + "}\n";
    } else {
      response =
          EvaluateTraced(request, enqueue_ns, rt, &root, &outcome, degrade);
    }
  }
  // Publish before responding so a client that immediately polls
  // /traces/recent after its response already sees this trace.
  FinishRequest(request.path, rt, outcome, enqueue_ns);
  respond(response);
  latency_us_.Record(
      static_cast<double>(MonotonicNowNs() - enqueue_ns) / 1e3);
  // The final decrement below is what releases Stop(), and Stop()'s caller
  // may destroy this service immediately after — so nothing may touch
  // *this* past the unlock. The gauge is owned by the process-wide
  // registry and outlives any service, so it is bound before the
  // decrement and updated after.
  Gauge& queue_depth = queue_depth_;
  int remaining = 0;
  {
    MutexLock lock(mu_);
    remaining = --inflight_;
    if (remaining == 0) idle_cv_.NotifyAll();
  }
  queue_depth.Set(remaining);
}

HttpResponse QueryService::Evaluate(const HttpRequest& request,
                                    int64_t arrival_ns) {
  // The synchronous path (tests, tools) mints its own trace the same way
  // Submit does, so direct evaluations land in /traces/recent and the
  // query log too.
  const RequestTrace rt = StartRequestTrace(request);
  RequestOutcome outcome;
  HttpResponse response;
  {
    Span root(rt.trace.get(), "request");
    response = EvaluateTraced(request, arrival_ns, rt, &root, &outcome,
                              /*degrade=*/false);
  }
  FinishRequest(request.path, rt, outcome, arrival_ns);
  return response;
}

HttpResponse QueryService::EvaluateTraced(const HttpRequest& request,
                                          int64_t arrival_ns,
                                          const RequestTrace& rt, Span* root,
                                          RequestOutcome* outcome,
                                          bool degrade) {
  ParsedQuery query;
  const Status parse = ParseQuery(request, options_, &query);
  if (!parse.ok()) {
    outcome->status = "bad_request";
    outcome->code = 400;
    return ErrorResponse(parse.message());
  }
  outcome->deadline_ms = query.deadline_ms;

  // Degraded mode: under queue pressure an exact sampleable query runs
  // sampled instead — a bounded-error answer instead of a 503 later in
  // the overload curve. A client that pinned approx=exact keeps exact, and
  // a spec that would not validate sampled (a budget below 2) stays exact.
  if (degrade && query.spec.approx.mode == ApproxMode::kExact &&
      !query.approx_requested) {
    query.spec.approx.mode = ApproxMode::kSampled;
    query.degraded = Approximate(query) && ValidateQuerySpec(query.spec).ok();
    if (query.degraded) {
      degraded_.Add();
    } else {
      query.spec.approx.mode = ApproxMode::kExact;
    }
  }
  const bool approximate = Approximate(query);

  if (query.kind == QueryKind::kLive) {
    if (monitor_ == nullptr) {
      // Only reachable through direct Evaluate() calls — RegisterRoutes
      // never exposes the path without a monitor.
      outcome->status = "bad_request";
      outcome->code = 400;
      return ErrorResponse(
          "live queries are not enabled (no streaming monitor attached)");
    }
    // Resolve the stream-clock default before the deadline check so even
    // a 504 echoes the timestamp the query would have run at.
    if (!query.has_t) query.spec.ts = query.spec.te = monitor_->now();
  }

  // The deadline is anchored at *arrival*: time spent queued counts
  // against it, so a request that aged out while waiting fails fast here
  // instead of computing an answer its client stopped waiting for.
  const Deadline deadline =
      Deadline::AtNanos(arrival_ns + query.deadline_ms * 1'000'000);
  QueryControl control(deadline);
  control.set_span(root);
  std::vector<FlowEstimate> rows;
  QueryStats stats;
  if (!control.ShouldAbort()) {
    // The spec carries its own mode, so an approx=exact pin stays exact
    // on a sampled-default server.
    if (query.kind == QueryKind::kLive) {
      // The monitor has its own stats surface (streaming.* metrics);
      // outcome->stats stays zeroed, like a shed request's.
      rows = monitor_->CurrentTopKEstimate(query.spec.ts, query.spec.k,
                                           query.spec.approx, &control);
    } else {
      rows = engine_->Run(query.spec, {&stats, nullptr, &control});
    }
  }
  outcome->stats = stats;
  if (control.Aborted()) {
    // Partial results are garbage by contract; never ship them.
    deadline_exceeded_.Add();
    outcome->status = "deadline_exceeded";
    outcome->code = 504;
    return DeadlineResponse(query, arrival_ns, rt.context.trace_id_hex());
  }

  const PoiSet& pois = engine_->pois();
  HttpResponse response;
  response.body =
      "{\"status\":\"ok\",\"trace_id\":\"" + rt.context.trace_id_hex() + "\"";
  AppendQueryEcho(query, &response.body);
  response.body.append(
      ",\"elapsed_ms\":" +
      NumberJson(static_cast<double>(MonotonicNowNs() - arrival_ns) /
                 1e6));
  response.body.append(",\"results\":[");
  for (size_t i = 0; i < rows.size(); ++i) {
    if (i > 0) response.body.push_back(',');
    const FlowEstimate& row = rows[i];
    response.body.append("{\"poi\":" + std::to_string(row.poi));
    if (row.poi >= 0 && static_cast<size_t>(row.poi) < pois.size()) {
      response.body.append(
          ",\"name\":\"" +
          JsonEscape(pois[static_cast<size_t>(row.poi)].name) + "\"");
    }
    response.body.append(",\"flow\":" + NumberJson(row.value));
    if (approximate) {
      // Estimated rows carry the approximation contract: the flow value
      // is an unbiased estimate with its standard error and 95% interval,
      // and `exact` marks rows the sampler actually evaluated in full.
      response.body.append(row.exact ? ",\"exact\":true"
                                     : ",\"exact\":false");
      if (!row.exact && std::isfinite(row.std_err)) {
        // A NaN std_err marks a degenerate (sub-two-sample) estimate whose
        // error is undefined; omit the fields rather than render NaN as 0
        // and dress a maximally uncertain answer up as a confident one.
        response.body.append(",\"stderr\":" + NumberJson(row.std_err));
        response.body.append(",\"ci95\":[" + NumberJson(row.ci_low) + "," +
                             NumberJson(row.ci_high) + "]");
      }
    }
    response.body.push_back('}');
  }
  response.body.append("]}\n");
  return response;
}

void QueryService::Stop() {
  MutexLock lock(mu_);
  stopping_ = true;
  while (inflight_ > 0) idle_cv_.Wait(mu_);
}

}  // namespace indoorflow
