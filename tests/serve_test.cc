// Tests for the query-serving path (src/serve/): request-parameter
// parsing (flat JSON + query strings), QueryService's Evaluate contract
// (200/400/504 with structured JSON), admission control and the
// shed-vs-admitted metrics accounting, end-to-end HTTP through ExpoServer,
// and a ServeConcurrencyTest suite — cancellation races and concurrent
// overload — that runs under the TSan CI job (suite name matches its
// -R "Concurrency" test filter).

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/deadline.h"
#include "src/common/expo_server.h"
#include "src/common/log.h"
#include "src/common/metrics.h"
#include "src/common/trace.h"
#include "src/core/engine.h"
#include "src/core/streaming.h"
#include "src/serve/json.h"
#include "src/serve/query_service.h"
#include "src/sim/generators.h"

namespace indoorflow {
namespace {

// ---------------------------------------------------------------------------
// Request-parameter parsing (src/serve/json.h).

TEST(ServeJsonTest, ParsesFlatObject) {
  const auto result =
      ParseFlatJsonObject("{\"t\": 300, \"algo\": \"join\", \"x\": true, "
                          "\"y\": null}");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const JsonObject& object = *result;
  EXPECT_EQ(object.at("t").type, JsonValue::Type::kNumber);
  EXPECT_EQ(object.at("t").number, 300.0);
  EXPECT_EQ(object.at("algo").type, JsonValue::Type::kString);
  EXPECT_EQ(object.at("algo").string, "join");
  EXPECT_EQ(object.at("x").type, JsonValue::Type::kBool);
  EXPECT_TRUE(object.at("x").boolean);
  EXPECT_EQ(object.at("y").type, JsonValue::Type::kNull);
}

TEST(ServeJsonTest, ParsesEmptyObjectAndEscapes) {
  EXPECT_TRUE(ParseFlatJsonObject("{}").ok());
  const auto result =
      ParseFlatJsonObject("{\"s\": \"a\\\"b\\n\\u0041\"}");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->at("s").string, "a\"b\nA");
}

TEST(ServeJsonTest, RejectsNestedAndMalformed) {
  EXPECT_FALSE(ParseFlatJsonObject("{\"a\": {\"b\": 1}}").ok());
  EXPECT_FALSE(ParseFlatJsonObject("{\"a\": [1, 2]}").ok());
  EXPECT_FALSE(ParseFlatJsonObject("not json").ok());
  EXPECT_FALSE(ParseFlatJsonObject("{\"a\": 1} trailing").ok());
  EXPECT_FALSE(ParseFlatJsonObject("{\"a\": }").ok());
  EXPECT_FALSE(ParseFlatJsonObject("{\"a\"").ok());
}

TEST(ServeJsonTest, ParsesQueryString) {
  const auto params = DecodeQueryString("t=300&algo=join&x=a%3Ab&y=1+2&z");
  EXPECT_EQ(params.at("t"), "300");
  EXPECT_EQ(params.at("algo"), "join");
  EXPECT_EQ(params.at("x"), "a:b");
  EXPECT_EQ(params.at("y"), "1 2");
  EXPECT_EQ(params.at("z"), "");
  EXPECT_TRUE(DecodeQueryString("").empty());
}

TEST(ServeJsonTest, EscapesJsonStrings) {
  EXPECT_EQ(JsonEscape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
  EXPECT_EQ(JsonEscape(std::string(1, '\x01')), "\\u0001");
}

// ---------------------------------------------------------------------------
// QueryService fixtures.

class ServeFixture : public ::testing::Test {
 protected:
  ServeFixture() {
    OfficeDatasetConfig config;
    config.num_objects = 20;
    config.duration = 600.0;
    config.seed = 99;
    dataset_ = GenerateOfficeDataset(config);
    engine_ = std::make_unique<QueryEngine>(dataset_, EngineConfig{});
  }

  static HttpRequest Post(const std::string& path,
                          const std::string& body) {
    HttpRequest request;
    request.method = "POST";
    request.path = path;
    request.body = body;
    return request;
  }

  static HttpRequest Get(const std::string& path,
                         const std::string& query) {
    HttpRequest request;
    request.method = "GET";
    request.path = path;
    request.query = query;
    return request;
  }

  /// A StreamingMonitor warmed with the dataset's tracking history (each
  /// record replayed as its boundary readings), for the /query/live route.
  std::unique_ptr<StreamingMonitor> MakeLiveMonitor() {
    StreamingOptions options;
    options.vmax = dataset_.vmax;
    options.expiry_seconds = 1e9;  // replayed history never expires
    auto monitor = std::make_unique<StreamingMonitor>(dataset_.deployment,
                                                      dataset_.pois, options);
    std::vector<RawReading> replay;
    for (const ObjectId o : dataset_.ott.objects()) {
      for (const auto index : dataset_.ott.ChainOf(o)) {
        const TrackingRecord& record = dataset_.ott.record(index);
        replay.push_back({o, record.device_id, record.ts});
        replay.push_back({o, record.device_id, record.te});
      }
    }
    EXPECT_TRUE(monitor->IngestBatch(replay).ok());
    return monitor;
  }

  Dataset dataset_;
  std::unique_ptr<QueryEngine> engine_;
};

TEST_F(ServeFixture, EvaluateAnswersSnapshotPost) {
  QueryService service(engine_.get(), QueryServiceOptions{});
  const HttpResponse response = service.Evaluate(
      Post("/query/snapshot", "{\"t\": 300, \"k\": 3}"), MonotonicNowNs());
  EXPECT_EQ(response.code, 200) << response.body;
  EXPECT_NE(response.body.find("\"status\":\"ok\""), std::string::npos);
  EXPECT_NE(response.body.find("\"t\":300"), std::string::npos);
  EXPECT_NE(response.body.find("\"results\":[{\"poi\":"),
            std::string::npos);
}

TEST_F(ServeFixture, EvaluateAnswersGetQueryString) {
  QueryService service(engine_.get(), QueryServiceOptions{});
  const HttpResponse response = service.Evaluate(
      Get("/query/interval", "ts=200&te=400&k=2&metric=density"),
      MonotonicNowNs());
  EXPECT_EQ(response.code, 200) << response.body;
  EXPECT_NE(response.body.find("\"metric\":\"density\""),
            std::string::npos);
}

TEST_F(ServeFixture, EvaluateJoinEndpointTakesEitherForm) {
  QueryService service(engine_.get(), QueryServiceOptions{});
  EXPECT_EQ(service.Evaluate(Post("/query/join", "{\"t\": 300}"),
                             MonotonicNowNs())
                .code,
            200);
  EXPECT_EQ(service.Evaluate(
                    Post("/query/join", "{\"ts\": 200, \"te\": 400}"),
                    MonotonicNowNs())
                .code,
            200);
}

TEST_F(ServeFixture, EvaluateRejectsBadRequests) {
  QueryService service(engine_.get(), QueryServiceOptions{});
  const int64_t now = MonotonicNowNs();
  const struct {
    const char* path;
    const char* body;
  } bad[] = {
      {"/query/snapshot", "{\"k\": 3}"},                 // missing t
      {"/query/snapshot", "not json"},                   // malformed
      {"/query/snapshot", "{\"t\": 300, \"bogus\": 1}"}, // unknown key
      {"/query/snapshot", "{\"t\": 300, \"k\": 0}"},     // bad k
      {"/query/snapshot", "{\"t\": 300, \"algo\": \"x\"}"},
      {"/query/snapshot", "{\"t\": 300, \"metric\": \"x\"}"},
      {"/query/snapshot", "{\"t\": 300, \"deadline_ms\": 0}"},
      {"/query/snapshot", "{\"t\": 300, \"ts\": 1}"},    // both forms
      {"/query/interval", "{\"ts\": 400, \"te\": 200}"}, // reversed
      {"/query/interval", "{\"ts\": 200}"},              // missing te
      {"/query/join", "{\"k\": 3}"},                     // no t, no ts/te
      {"/query/join", "{\"t\": 300, \"algo\": \"iterative\"}"},
  };
  for (const auto& request : bad) {
    const HttpResponse response =
        service.Evaluate(Post(request.path, request.body), now);
    EXPECT_EQ(response.code, 400)
        << request.path << " " << request.body << " -> " << response.body;
    EXPECT_NE(response.body.find("\"status\":\"error\""),
              std::string::npos);
  }
}

TEST_F(ServeFixture, EvaluateExpiredArrivalReturnsStructured504) {
  QueryService service(engine_.get(), QueryServiceOptions{});
  Counter& exceeded =
      MetricsRegistry::Default().counter("serve.deadline_exceeded");
  const int64_t before = exceeded.value();
  // Arrival two seconds ago with the default 1000 ms deadline: expired
  // before any engine work starts.
  const HttpResponse response =
      service.Evaluate(Post("/query/snapshot", "{\"t\": 300}"),
                       MonotonicNowNs() - 2'000'000'000);
  EXPECT_EQ(response.code, 504) << response.body;
  EXPECT_NE(response.body.find("\"status\":\"deadline_exceeded\""),
            std::string::npos);
  EXPECT_EQ(exceeded.value(), before + 1);
}

TEST_F(ServeFixture, LiveEndpointAnswersFromStreamingMonitor) {
  const auto monitor = MakeLiveMonitor();
  QueryService service(engine_.get(), QueryServiceOptions{}, monitor.get());
  // No t: defaults to the stream clock, echoed back.
  const HttpResponse at_now = service.Evaluate(
      Post("/query/live", "{\"k\": 3}"), MonotonicNowNs());
  EXPECT_EQ(at_now.code, 200) << at_now.body;
  EXPECT_NE(at_now.body.find("\"status\":\"ok\""), std::string::npos);
  EXPECT_NE(at_now.body.find("\"live\":true"), std::string::npos);
  EXPECT_NE(at_now.body.find("\"results\":[{\"poi\":"), std::string::npos);
  // Explicit t (>= the stream clock is the documented domain, but any t
  // parses) is echoed instead.
  const HttpResponse at_t = service.Evaluate(
      Post("/query/live", "{\"t\": 300, \"k\": 2}"), MonotonicNowNs());
  EXPECT_EQ(at_t.code, 200) << at_t.body;
  EXPECT_NE(at_t.body.find("\"t\":300"), std::string::npos);
  // GET with a query string works like the historical endpoints.
  EXPECT_EQ(service.Evaluate(Get("/query/live", "k=2"), MonotonicNowNs())
                .code,
            200);
}

TEST_F(ServeFixture, LiveEndpointRejectsBadRequests) {
  const auto monitor = MakeLiveMonitor();
  QueryService service(engine_.get(), QueryServiceOptions{}, monitor.get());
  const int64_t now = MonotonicNowNs();
  // Historical-only parameters are unknown keys on the live endpoint.
  const char* bad[] = {
      "{\"t\": 300, \"algo\": \"join\"}",
      "{\"t\": 300, \"metric\": \"density\"}",
      "{\"ts\": 200, \"te\": 400}",
      "{\"k\": 0}",
  };
  for (const char* body : bad) {
    const HttpResponse response =
        service.Evaluate(Post("/query/live", body), now);
    EXPECT_EQ(response.code, 400) << body << " -> " << response.body;
  }
  // Without an attached monitor the route is not registered; a direct
  // Evaluate must still fail clean.
  QueryService no_monitor(engine_.get(), QueryServiceOptions{});
  const HttpResponse off =
      no_monitor.Evaluate(Post("/query/live", "{\"k\": 3}"), now);
  EXPECT_EQ(off.code, 400) << off.body;
  EXPECT_NE(off.body.find("not enabled"), std::string::npos) << off.body;
}

TEST_F(ServeFixture, LiveEndpointHonorsDeadline) {
  const auto monitor = MakeLiveMonitor();
  QueryService service(engine_.get(), QueryServiceOptions{}, monitor.get());
  const HttpResponse response =
      service.Evaluate(Post("/query/live", "{\"k\": 3}"),
                       MonotonicNowNs() - 2'000'000'000);
  EXPECT_EQ(response.code, 504) << response.body;
  EXPECT_NE(response.body.find("\"status\":\"deadline_exceeded\""),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// Approximate evaluation (docs/APPROXIMATION.md): the approx= request knob
// and the degraded-admission downgrade.

TEST_F(ServeFixture, ApproxKnobReturnsEstimatesWithErrorBounds) {
  QueryService service(engine_.get(), QueryServiceOptions{});
  const HttpResponse response = service.Evaluate(
      Post("/query/snapshot",
           "{\"t\": 300, \"k\": 3, \"algo\": \"iterative\", "
           "\"approx\": \"sampled\", \"sample_budget\": 8}"),
      MonotonicNowNs());
  EXPECT_EQ(response.code, 200) << response.body;
  EXPECT_NE(response.body.find("\"approx\":\"sampled\""), std::string::npos)
      << response.body;
  EXPECT_NE(response.body.find("\"sample_budget\":8"), std::string::npos);
  // 20 objects against a budget of 8: the answer is estimated, and
  // estimated rows carry the error contract.
  EXPECT_NE(response.body.find("\"exact\":false"), std::string::npos)
      << response.body;
  EXPECT_NE(response.body.find("\"stderr\":"), std::string::npos);
  EXPECT_NE(response.body.find("\"ci95\":["), std::string::npos);
  // Interval and live take the same knob.
  const auto monitor = MakeLiveMonitor();
  QueryService live_service(engine_.get(), QueryServiceOptions{},
                            monitor.get());
  const HttpResponse live = live_service.Evaluate(
      Get("/query/live", "t=300&k=3&approx=sampled&sample_budget=8"),
      MonotonicNowNs());
  EXPECT_EQ(live.code, 200) << live.body;
  EXPECT_NE(live.body.find("\"approx\":\"sampled\""), std::string::npos);
}

TEST_F(ServeFixture, ExplicitExactApproxKeepsResponseShape) {
  QueryService service(engine_.get(), QueryServiceOptions{});
  const std::string plain =
      service
          .Evaluate(Post("/query/snapshot",
                         "{\"t\": 300, \"k\": 3, \"algo\": \"iterative\"}"),
                    MonotonicNowNs())
          .body;
  const std::string pinned =
      service
          .Evaluate(Post("/query/snapshot",
                         "{\"t\": 300, \"k\": 3, \"algo\": \"iterative\", "
                         "\"approx\": \"exact\"}"),
                    MonotonicNowNs())
          .body;
  // approx=exact answers are bit-identical to pre-approximation
  // responses: same results array, no approx echo.
  EXPECT_EQ(plain.find("\"approx\""), std::string::npos);
  EXPECT_EQ(pinned.find("\"approx\""), std::string::npos);
  const auto results_of = [](const std::string& body) {
    return body.substr(body.find("\"results\""));
  };
  EXPECT_EQ(results_of(plain), results_of(pinned));
}

TEST_F(ServeFixture, ExactPinBypassesSampledServiceDefault) {
  // A server whose service default is mode=kSampled. A client pinning
  // approx=exact must still get the exact answer in the exact response
  // shape — never a sampled estimate re-routed by the default.
  ApproxConfig sampled;
  sampled.mode = ApproxMode::kSampled;
  sampled.sample_budget = 8;
  EngineConfig engine_config;
  QueryEngine sampled_engine(dataset_, engine_config);
  const auto sampled_monitor = MakeLiveMonitor();
  QueryServiceOptions options;
  options.approx = sampled;
  QueryService service(&sampled_engine, options, sampled_monitor.get());

  // Exact-default reference service over the same dataset.
  const auto exact_monitor = MakeLiveMonitor();
  QueryService exact_service(engine_.get(), QueryServiceOptions{},
                             exact_monitor.get());

  const int64_t now = MonotonicNowNs();
  // Sanity: without a pin the sampled default really applies (20 objects
  // against a budget of 8), so the exact-pin assertions below bite.
  const HttpResponse defaulted = service.Evaluate(
      Post("/query/snapshot",
           "{\"t\": 300, \"k\": 3, \"algo\": \"iterative\"}"),
      now);
  ASSERT_EQ(defaulted.code, 200) << defaulted.body;
  EXPECT_NE(defaulted.body.find("\"approx\":\"sampled\""),
            std::string::npos)
      << defaulted.body;
  EXPECT_NE(defaulted.body.find("\"exact\":false"), std::string::npos)
      << defaulted.body;

  const auto results_of = [](const std::string& body) {
    return body.substr(body.find("\"results\""));
  };
  const struct {
    const char* path;
    const char* body;
  } pinned[] = {
      {"/query/snapshot",
       "{\"t\": 300, \"k\": 3, \"algo\": \"iterative\", "
       "\"approx\": \"exact\"}"},
      {"/query/interval",
       "{\"ts\": 200, \"te\": 400, \"k\": 3, \"algo\": \"iterative\", "
       "\"approx\": \"exact\"}"},
      {"/query/live", "{\"t\": 300, \"k\": 3, \"approx\": \"exact\"}"},
  };
  for (const auto& request : pinned) {
    const HttpResponse response =
        service.Evaluate(Post(request.path, request.body), now);
    const HttpResponse reference =
        exact_service.Evaluate(Post(request.path, request.body), now);
    ASSERT_EQ(response.code, 200)
        << request.path << " -> " << response.body;
    // Exact responses keep the pre-approximation shape: no approx echo,
    // no per-row estimate fields.
    EXPECT_EQ(response.body.find("\"approx\""), std::string::npos)
        << response.body;
    EXPECT_EQ(response.body.find("\"stderr\""), std::string::npos)
        << response.body;
    EXPECT_EQ(response.body.find("\"exact\":"), std::string::npos)
        << response.body;
    EXPECT_EQ(results_of(response.body), results_of(reference.body))
        << request.path;
  }
}

TEST_F(ServeFixture, ApproxKnobRejectsUnsampleableShapes) {
  QueryService service(engine_.get(), QueryServiceOptions{});
  const int64_t now = MonotonicNowNs();
  const struct {
    const char* path;
    const char* body;
  } bad[] = {
      // The join algorithm (the default) always evaluates exactly.
      {"/query/snapshot", "{\"t\": 300, \"approx\": \"sampled\"}"},
      {"/query/join", "{\"t\": 300, \"approx\": \"adaptive\"}"},
      {"/query/snapshot",
       "{\"t\": 300, \"algo\": \"iterative\", \"metric\": \"density\", "
       "\"approx\": \"sampled\"}"},
      {"/query/snapshot", "{\"t\": 300, \"approx\": \"bogus\"}"},
      {"/query/snapshot",
       "{\"t\": 300, \"algo\": \"iterative\", \"approx\": \"sampled\", "
       "\"sample_budget\": 0}"},
      // A single draw has no within-sample variance, so its error bounds
      // would be undefined: budgets below 2 are rejected up front.
      {"/query/snapshot",
       "{\"t\": 300, \"algo\": \"iterative\", \"approx\": \"sampled\", "
       "\"sample_budget\": 1}"},
  };
  for (const auto& request : bad) {
    const HttpResponse response =
        service.Evaluate(Post(request.path, request.body), now);
    EXPECT_EQ(response.code, 400)
        << request.path << " " << request.body << " -> " << response.body;
  }
}

TEST_F(ServeFixture, DegradedAdmissionDowngradesToSampled) {
  QueryServiceOptions options;
  options.degrade_depth = 1;  // every admitted request runs degraded
  options.max_queue_wait_ms = 0;
  Counter& degraded = MetricsRegistry::Default().counter("serve.degraded");
  const int64_t before = degraded.value();

  HttpResponse captured;
  std::atomic<bool> responded{false};
  {
    QueryService service(engine_.get(), options);
    service.Submit(Post("/query/snapshot",
                        "{\"t\": 300, \"k\": 3, \"algo\": \"iterative\", "
                        "\"sample_budget\": 8}"),
                   [&](const HttpResponse& response) {
                     captured = response;
                     responded = true;
                   });
    service.Stop();  // drains the admitted request
  }
  ASSERT_TRUE(responded.load());
  EXPECT_EQ(captured.code, 200) << captured.body;
  EXPECT_NE(captured.body.find("\"approx\":\"sampled\""), std::string::npos)
      << captured.body;
  EXPECT_NE(captured.body.find("\"degraded\":true"), std::string::npos);
  EXPECT_EQ(degraded.value(), before + 1);

  // A client that pinned approx=exact is never downgraded.
  HttpResponse exact_response;
  std::atomic<bool> exact_responded{false};
  {
    QueryService service(engine_.get(), options);
    service.Submit(Post("/query/snapshot",
                        "{\"t\": 300, \"k\": 3, \"algo\": \"iterative\", "
                        "\"approx\": \"exact\"}"),
                   [&](const HttpResponse& response) {
                     exact_response = response;
                     exact_responded = true;
                   });
    service.Stop();
  }
  ASSERT_TRUE(exact_responded.load());
  EXPECT_EQ(exact_response.code, 200) << exact_response.body;
  EXPECT_EQ(exact_response.body.find("\"degraded\""), std::string::npos);
  EXPECT_EQ(exact_response.body.find("\"approx\""), std::string::npos);
  EXPECT_EQ(degraded.value(), before + 1);
}

TEST_F(ServeFixture, SubmitShedsInlineWhenQueueFull) {
  QueryServiceOptions options;
  options.queue_limit = 0;  // everything sheds at the door
  QueryService service(engine_.get(), options);
  Counter& requests = MetricsRegistry::Default().counter("serve.requests");
  Counter& admitted = MetricsRegistry::Default().counter("serve.admitted");
  Counter& shed = MetricsRegistry::Default().counter("serve.shed");
  const int64_t requests_before = requests.value();
  const int64_t admitted_before = admitted.value();
  const int64_t shed_before = shed.value();

  HttpResponse captured;
  bool responded = false;
  service.Submit(Post("/query/snapshot", "{\"t\": 300}"),
                 [&](const HttpResponse& response) {
                   captured = response;
                   responded = true;
                 });
  // queue_limit 0 sheds synchronously on the submitting thread.
  ASSERT_TRUE(responded);
  EXPECT_EQ(captured.code, 503);
  EXPECT_NE(captured.body.find("\"status\":\"shed\""), std::string::npos);
  EXPECT_NE(captured.body.find("\"reason\":\"queue_full\""),
            std::string::npos);
  EXPECT_EQ(requests.value(), requests_before + 1);
  EXPECT_EQ(admitted.value(), admitted_before);
  EXPECT_EQ(shed.value(), shed_before + 1);
}

TEST_F(ServeFixture, SubmitAfterStopShedsWithStoppingReason) {
  QueryService service(engine_.get(), QueryServiceOptions{});
  service.Stop();
  HttpResponse captured;
  service.Submit(Post("/query/snapshot", "{\"t\": 300}"),
                 [&](const HttpResponse& response) { captured = response; });
  EXPECT_EQ(captured.code, 503);
  EXPECT_NE(captured.body.find("\"reason\":\"stopping\""),
            std::string::npos);
}

TEST_F(ServeFixture, AdmittedRequestsRunOnExecutorAndDrainOnStop) {
  QueryServiceOptions options;
  options.max_queue_wait_ms = 0;  // disable wait shedding: exact counts
  QueryService service(engine_.get(), options);
  Counter& requests = MetricsRegistry::Default().counter("serve.requests");
  Counter& admitted = MetricsRegistry::Default().counter("serve.admitted");
  Counter& shed = MetricsRegistry::Default().counter("serve.shed");
  const int64_t requests_before = requests.value();
  const int64_t admitted_before = admitted.value();
  const int64_t shed_before = shed.value();

  constexpr int kRequests = 8;
  std::atomic<int> ok{0};
  std::atomic<int> other{0};
  for (int i = 0; i < kRequests; ++i) {
    service.Submit(Post("/query/snapshot", "{\"t\": 300, \"k\": 3}"),
                   [&](const HttpResponse& response) {
                     (response.code == 200 ? ok : other)
                         .fetch_add(1, std::memory_order_relaxed);
                   });
  }
  service.Stop();  // blocks until every admitted request responded

  EXPECT_EQ(ok.load(), kRequests);
  EXPECT_EQ(other.load(), 0);
  // Accounting identity: every request was admitted or shed, exactly once.
  EXPECT_EQ(requests.value(), requests_before + kRequests);
  EXPECT_EQ(admitted.value(), admitted_before + kRequests);
  EXPECT_EQ(shed.value(), shed_before);
}

// ---------------------------------------------------------------------------
// End-to-end over real sockets.

// Minimal blocking HTTP exchange against 127.0.0.1:port. `extra_headers`
// is spliced in verbatim and must be ""-or-CRLF-terminated lines (the
// trace round-trip test injects `traceparent` through it).
std::string SendHttp(int port, const std::string& method,
                     const std::string& target, const std::string& body,
                     const std::string& extra_headers = "") {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    ::close(fd);
    return "";
  }
  std::string request = method + " " + target +
                        " HTTP/1.1\r\nHost: localhost\r\n" + extra_headers +
                        "Content-Length: " +
                        std::to_string(body.size()) +
                        "\r\nConnection: close\r\n\r\n" + body;
  size_t sent = 0;
  while (sent < request.size()) {
    const ssize_t n =
        ::send(fd, request.data() + sent, request.size() - sent, 0);
    if (n <= 0) {
      ::close(fd);
      return "";
    }
    sent += static_cast<size_t>(n);
  }
  std::string response;
  char buf[4096];
  ssize_t n = 0;
  while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
    response.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  return response;
}

TEST_F(ServeFixture, EndToEndHttpQueryRoundTrip) {
  QueryService service(engine_.get(), QueryServiceOptions{});
  ExpoServer server;
  service.RegisterRoutes(&server);
  ASSERT_TRUE(server.Start(0).ok());

  const std::string ok_response = SendHttp(
      server.port(), "POST", "/query/snapshot", "{\"t\": 300, \"k\": 3}");
  EXPECT_NE(ok_response.find("HTTP/1.1 200 OK"), std::string::npos)
      << ok_response;
  EXPECT_NE(ok_response.find("\"status\":\"ok\""), std::string::npos);

  const std::string get_response =
      SendHttp(server.port(), "GET", "/query/snapshot?t=300&k=2", "");
  EXPECT_NE(get_response.find("HTTP/1.1 200 OK"), std::string::npos)
      << get_response;

  const std::string bad_response =
      SendHttp(server.port(), "POST", "/query/snapshot", "nonsense");
  EXPECT_NE(bad_response.find("HTTP/1.1 400 Bad Request"),
            std::string::npos)
      << bad_response;

  const std::string wrong_method =
      SendHttp(server.port(), "DELETE", "/query/snapshot", "");
  EXPECT_NE(wrong_method.find("HTTP/1.1 405"), std::string::npos);

  server.Stop();
  service.Stop();
}

// An injected W3C traceparent header's trace id must come back in the
// response body, appear on /traces/recent with the full span tree
// (queue wait, engine phases, executor lanes, cache events), and land in
// exactly one canonical query-log record.
TEST_F(ServeFixture, TraceRoundTripPropagatesInjectedTraceparent) {
  // Parallel engine with the UR cache on, so the trace shows lane spans
  // and cache events, not just the serial phase children.
  EngineConfig config;
  config.threads = 2;
  config.parallel_threshold = 1;
  config.ur_cache.enabled = true;
  QueryEngine traced_engine(dataset_, config);

  const std::string log_path =
      ::testing::TempDir() + "/indoorflow_serve_trace.log";
  std::remove(log_path.c_str());
  ASSERT_TRUE(SetLogFile(log_path).ok());
  SetLogFormat(LogFormat::kJson);
  SetLogLevel(LogLevel::kInfo);
  TraceRing::Default().Clear();

  QueryService service(&traced_engine, QueryServiceOptions{});
  ExpoServer server;
  service.RegisterRoutes(&server);
  ASSERT_TRUE(server.Start(0).ok());

  const std::string kTraceId = "4bf92f3577b34da6a3ce929d0e0e4736";
  const std::string response = SendHttp(
      server.port(), "POST", "/query/snapshot", "{\"t\": 300, \"k\": 3}",
      "traceparent: 00-" + kTraceId + "-00f067aa0ba902b7-01\r\n");
  EXPECT_NE(response.find("HTTP/1.1 200 OK"), std::string::npos)
      << response;
  // The propagated trace id is the join key in the response body.
  EXPECT_NE(response.find("\"trace_id\":\"" + kTraceId + "\""),
            std::string::npos)
      << response;

  // FinishRequest runs before the response is written, so the ring is
  // already populated when the client turns around and polls it.
  const std::string traces =
      SendHttp(server.port(), "GET", "/traces/recent", "");
  EXPECT_NE(traces.find("\"trace_id\":\"" + kTraceId + "\""),
            std::string::npos)
      << traces;
  // Root parented to the remote span from the injected header.
  EXPECT_NE(traces.find("\"parent_id\":\"00f067aa0ba902b7\""),
            std::string::npos);
  for (const char* span_name :
       {"\"name\":\"request\"", "\"name\":\"queue_wait\"",
        "\"name\":\"retrieve\"", "\"name\":\"topk\"", "\"name\":\"lane "}) {
    EXPECT_NE(traces.find(span_name), std::string::npos)
        << "missing " << span_name << " in " << traces;
  }
  // First lookup on a fresh cache: a miss event on some span.
  EXPECT_NE(traces.find("\"name\":\"urcache.miss\""), std::string::npos)
      << traces;

  server.Stop();
  service.Stop();
  SetLogFormat(LogFormat::kText);

  // Exactly one canonical query-log record carries the same trace id.
  std::ifstream log_file(log_path);
  ASSERT_TRUE(log_file.is_open());
  std::string line;
  int query_log_records = 0;
  std::string record;
  while (std::getline(log_file, line)) {
    if (line.find("\"component\":\"query_log\"") == std::string::npos) {
      continue;
    }
    ++query_log_records;
    record = line;
  }
  EXPECT_EQ(query_log_records, 1) << "in " << log_path;
  EXPECT_NE(record.find("\"trace_id\":\"" + kTraceId + "\""),
            std::string::npos)
      << record;
  EXPECT_NE(record.find("\"endpoint\":\"/query/snapshot\""),
            std::string::npos)
      << record;
  EXPECT_NE(record.find("\"admission\":\"admitted\""), std::string::npos);
  EXPECT_NE(record.find("\"outcome\":\"ok\""), std::string::npos);
  // The full QueryStats ride along (spot-check two fields).
  EXPECT_NE(record.find("\"objects_retrieved\""), std::string::npos)
      << record;
  EXPECT_NE(record.find("\"latency_us\""), std::string::npos) << record;
}

// Unsampled requests still carry identifiers (the response join key)
// but allocate no trace and publish nothing to the ring.
TEST_F(ServeFixture, UnsampledRequestsKeepIdsButSkipTheRing) {
  TraceRing::Default().Clear();
  QueryServiceOptions options;
  options.trace_sample = 0.0;
  QueryService service(engine_.get(), options);
  const HttpResponse response = service.Evaluate(
      Post("/query/snapshot", "{\"t\": 300, \"k\": 3}"), MonotonicNowNs());
  EXPECT_EQ(response.code, 200) << response.body;
  EXPECT_NE(response.body.find("\"trace_id\":\""), std::string::npos);
  EXPECT_EQ(TraceRing::Default().size(), 0u);
}

// ---------------------------------------------------------------------------
// Concurrency suite (runs under the TSan CI job's -R "Concurrency").

class ServeConcurrencyTest : public ServeFixture {};

TEST_F(ServeConcurrencyTest, CancelRacesQueryWithoutDataRace) {
  // One thread runs queries under a control while another cancels it
  // mid-flight: TSan validates the token/flag synchronization; the query
  // must return (no wedge) with either a complete or an aborted result.
  for (int round = 0; round < 4; ++round) {
    CancelToken token;
    QueryControl control(Deadline::Infinite(), &token);
    std::thread canceller([&token] { token.Cancel(); });
    engine_->IntervalTopK(0.0, 600.0, 10, Algorithm::kIterative, nullptr,
                          nullptr, nullptr, &control);
    canceller.join();
    // Cancellation raced the query: whichever way it landed, the sticky
    // record must agree with the poll from this thread.
    EXPECT_EQ(control.Aborted(), control.ShouldAbort());
  }
}

TEST_F(ServeConcurrencyTest, ParallelFanOutObservesConcurrentCancel) {
  EngineConfig config;
  config.threads = 4;
  config.parallel_threshold = 1;
  QueryEngine parallel_engine(dataset_, config);
  for (int round = 0; round < 4; ++round) {
    CancelToken token;
    QueryControl control(Deadline::Infinite(), &token);
    std::thread canceller([&token] { token.Cancel(); });
    parallel_engine.IntervalTopK(0.0, 600.0, 10, Algorithm::kIterative,
                                 nullptr, nullptr, nullptr, &control);
    canceller.join();
    EXPECT_EQ(control.Aborted(), control.ShouldAbort());
  }
}

TEST_F(ServeConcurrencyTest, ConcurrentOverloadShedsCleanly) {
  QueryServiceOptions options;
  options.queue_limit = 2;
  options.max_queue_wait_ms = 0;  // depth shedding only: exact accounting
  QueryService service(engine_.get(), options);
  Counter& requests = MetricsRegistry::Default().counter("serve.requests");
  Counter& admitted = MetricsRegistry::Default().counter("serve.admitted");
  Counter& shed = MetricsRegistry::Default().counter("serve.shed");
  const int64_t requests_before = requests.value();
  const int64_t admitted_before = admitted.value();
  const int64_t shed_before = shed.value();

  constexpr int kThreads = 8;
  constexpr int kPerThread = 10;
  std::atomic<int> ok{0};
  std::atomic<int> shed_responses{0};
  std::atomic<int> other{0};
  std::vector<std::thread> submitters;
  submitters.reserve(kThreads);
  for (int thread_index = 0; thread_index < kThreads; ++thread_index) {
    submitters.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) {
        service.Submit(Post("/query/snapshot", "{\"t\": 300, \"k\": 3}"),
                       [&](const HttpResponse& response) {
                         if (response.code == 200) {
                           ok.fetch_add(1, std::memory_order_relaxed);
                         } else if (response.code == 503) {
                           shed_responses.fetch_add(
                               1, std::memory_order_relaxed);
                         } else {
                           other.fetch_add(1, std::memory_order_relaxed);
                         }
                       });
      }
    });
  }
  for (std::thread& thread : submitters) thread.join();
  service.Stop();

  constexpr int kTotal = kThreads * kPerThread;
  // Every request got exactly one response, none of them a crash or an
  // unstructured error, and the metrics agree with the responses.
  EXPECT_EQ(ok.load() + shed_responses.load() + other.load(), kTotal);
  EXPECT_EQ(other.load(), 0);
  EXPECT_GT(ok.load(), 0);  // the admitted trickle still gets answers
  EXPECT_EQ(requests.value(), requests_before + kTotal);
  EXPECT_EQ(admitted.value() - admitted_before, ok.load());
  EXPECT_EQ(shed.value() - shed_before, shed_responses.load());

  // The service must come out of overload still able to answer.
  EXPECT_EQ(service
                .Evaluate(Post("/query/snapshot", "{\"t\": 300}"),
                          MonotonicNowNs())
                .code,
            200);
}

}  // namespace
}  // namespace indoorflow
