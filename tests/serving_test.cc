// Tests of the alcopd serving stack: the wire protocol (framing + JSON
// subset), the client, and an end-to-end daemon on a unix socket —
// fast-lane routing, slow-lane compiles and profiles, pipelined frames
// on one connection, refusal of malformed integer fields, warm-started
// tuning and the stored-tuning warm-restart path.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "schedule/tensor.h"
#include "serving/client.h"
#include "serving/http.h"
#include "serving/persist.h"
#include "serving/protocol.h"
#include "serving/server.h"
#include "sim/pmu.h"
#include "sim/sim_cache.h"
#include "support/json.h"
#include "target/gpu_spec.h"
#include "tuner/records.h"

namespace alcop {
namespace {

using serving::JsonValue;
using serving::ParseJson;

TEST(ProtocolJsonTest, ParsesScalarsObjectsAndArrays) {
  std::optional<JsonValue> v = ParseJson(
      "{\"id\": 7, \"ok\": true, \"name\": \"a\\\"b\", \"x\": null, "
      "\"tb\": [128, 64, 32], \"f\": -1.5e3}");
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->Find("id")->NumberOr(0), 7.0);
  EXPECT_TRUE(v->Find("ok")->BoolOr(false));
  EXPECT_EQ(v->Find("name")->StringOr(""), "a\"b");
  EXPECT_EQ(v->Find("x")->kind, JsonValue::Kind::kNull);
  ASSERT_EQ(v->Find("tb")->array.size(), 3u);
  EXPECT_EQ(v->Find("tb")->array[1].NumberOr(0), 64.0);
  EXPECT_EQ(v->Find("f")->NumberOr(0), -1500.0);
  EXPECT_EQ(v->Find("missing"), nullptr);
}

TEST(ProtocolJsonTest, RejectsMalformedInput) {
  for (const char* bad :
       {"", "{", "{\"a\":}", "{\"a\":1,}", "[1,2", "{\"a\" 1}", "tru",
        "{\"a\":1} extra", "\"unterminated"}) {
    EXPECT_FALSE(ParseJson(bad).has_value()) << bad;
  }
}

TEST(ProtocolJsonTest, DepthIsBounded) {
  std::string deep;
  for (int i = 0; i < 100; ++i) deep += "[";
  for (int i = 0; i < 100; ++i) deep += "]";
  EXPECT_FALSE(ParseJson(deep).has_value());
}

TEST(ProtocolJsonTest, EscapeRoundTripsThroughParser) {
  // Named escapes for the common controls, \u00XX for every other one.
  EXPECT_EQ(support::JsonEscape("\t"), "\\t");
  EXPECT_EQ(support::JsonEscape("\r"), "\\r");
  EXPECT_EQ(support::JsonEscape("\x01"), "\\u0001");
  std::string nasty = "a\"b\\c\nd\te\rf\x01g";
  std::string doc = "{\"s\": \"" + support::JsonEscape(nasty) + "\"}";
  std::optional<JsonValue> v = ParseJson(doc);
  ASSERT_TRUE(v.has_value()) << doc;
  EXPECT_EQ(v->Find("s")->StringOr(""), nasty);
}

TEST(ProtocolFrameTest, RoundTripsOverSocketpair) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  std::string big(100000, 'x');
  for (const std::string& payload : {std::string("{}"), std::string(), big}) {
    ASSERT_TRUE(serving::WriteFrame(fds[0], payload));
    std::string read_back;
    ASSERT_TRUE(serving::ReadFrame(fds[1], &read_back));
    EXPECT_EQ(read_back, payload);
  }
  ::close(fds[0]);
  ::close(fds[1]);
}

TEST(ProtocolFrameTest, OversizedLengthPrefixIsRejected) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  uint32_t huge = serving::kMaxFrameBytes + 1;
  ASSERT_EQ(::write(fds[0], &huge, sizeof(huge)),
            static_cast<ssize_t>(sizeof(huge)));
  std::string payload;
  EXPECT_FALSE(serving::ReadFrame(fds[1], &payload));
  ::close(fds[0]);
  ::close(fds[1]);
}

// ---------------------------------------------------------------------------
// End-to-end daemon tests.
// ---------------------------------------------------------------------------

class ServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    sim::ResetSimCache();
    tuner::TuningStore::Global().Clear();
    socket_path_ =
        ::testing::TempDir() + "/alcopd_" +
        ::testing::UnitTest::GetInstance()->current_test_info()->name() +
        ".sock";
    // TempDir test names can push an AF_UNIX path past sun_path; keep it
    // short instead of silently truncating.
    if (socket_path_.size() >= 100) {
      socket_path_ = "/tmp/alcopd_test_" + std::to_string(::getpid()) + ".sock";
    }
    options_.socket_path = socket_path_;
    options_.spec = target::AmpereSpec();
    options_.default_trials = 6;
    options_.space.tb_m = {64, 128};
    options_.space.tb_n = {64};
    options_.space.tb_k = {32};
    options_.cache_path = "";  // no persistence unless a test opts in
    options_.persist_on_shutdown = false;
  }

  void TearDown() override {
    std::remove(socket_path_.c_str());
    sim::ResetSimCache();
    tuner::TuningStore::Global().Clear();
  }

  std::string socket_path_;
  serving::ServerOptions options_;
};

TEST_F(ServerTest, PingStatsAndErrorPaths) {
  serving::Server server(options_);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  serving::Client client;
  ASSERT_TRUE(client.Connect(socket_path_, &error)) << error;

  std::optional<JsonValue> pong = client.Call("{\"id\":1,\"method\":\"ping\"}");
  ASSERT_TRUE(pong.has_value());
  EXPECT_TRUE(pong->Find("ok")->BoolOr(false));
  EXPECT_EQ(pong->Find("id")->NumberOr(0), 1.0);

  std::optional<JsonValue> stats =
      client.Call("{\"id\":2,\"method\":\"stats\"}");
  ASSERT_TRUE(stats.has_value());
  EXPECT_TRUE(stats->Find("ok")->BoolOr(false));
  EXPECT_NE(stats->Find("resident_bytes"), nullptr);

  std::optional<JsonValue> bad = client.Call("{\"id\":3,\"method\":\"nope\"}");
  ASSERT_TRUE(bad.has_value());
  EXPECT_FALSE(bad->Find("ok")->BoolOr(true));
  EXPECT_NE(bad->Find("error")->StringOr("").find("unknown method"),
            std::string::npos);

  std::optional<JsonValue> malformed = client.Call("this is not json");
  ASSERT_TRUE(malformed.has_value());
  EXPECT_FALSE(malformed->Find("ok")->BoolOr(true));

  server.Stop();
}

TEST_F(ServerTest, StatsReportsInflightAndPerLaneLatency) {
  serving::Server server(options_);
  ASSERT_TRUE(server.Start());
  serving::Client client;
  ASSERT_TRUE(client.Connect(socket_path_));

  // A couple of fast-lane requests so the lane histogram has data by the
  // time stats is answered (stats itself is a fast-lane request too).
  ASSERT_TRUE(client.Call("{\"id\":1,\"method\":\"ping\"}").has_value());
  ASSERT_TRUE(client.Call("{\"id\":2,\"method\":\"ping\"}").has_value());

  std::optional<JsonValue> stats =
      client.Call("{\"id\":3,\"method\":\"stats\"}");
  ASSERT_TRUE(stats.has_value());
  ASSERT_TRUE(stats->Find("ok")->BoolOr(false));
  // The stats request is still in flight while it computes its answer.
  EXPECT_GE(stats->Find("inflight")->NumberOr(-1), 1.0);
  const JsonValue* latency = stats->Find("latency");
  ASSERT_NE(latency, nullptr);
  const JsonValue* fast = latency->Find("fast");
  ASSERT_NE(fast, nullptr);
  EXPECT_GE(fast->Find("count")->NumberOr(0), 2.0);
  EXPECT_GT(fast->Find("p50_us")->NumberOr(0), 0.0);
  EXPECT_GE(fast->Find("p99_us")->NumberOr(0),
            fast->Find("p50_us")->NumberOr(0));
  const JsonValue* slow = latency->Find("slow");
  ASSERT_NE(slow, nullptr);
  EXPECT_NE(slow->Find("count"), nullptr);

  server.Stop();
}

TEST_F(ServerTest, CompileMissesThenHitsFastLane) {
  serving::Server server(options_);
  ASSERT_TRUE(server.Start());
  serving::Client client;
  ASSERT_TRUE(client.Connect(socket_path_));

  std::string request =
      "{\"id\":1,\"method\":\"compile\",\"m\":512,\"n\":512,\"k\":512,"
      "\"config\":{\"tb\":[128,128,32],\"warp\":[64,64,16],\"smem\":2}}";
  std::optional<JsonValue> cold = client.Call(request);
  ASSERT_TRUE(cold.has_value());
  ASSERT_TRUE(cold->Find("ok")->BoolOr(false))
      << cold->Find("error")->StringOr("");
  ASSERT_TRUE(cold->Find("feasible")->BoolOr(false));
  double cold_cycles = cold->Find("cycles")->NumberOr(0);
  EXPECT_GT(cold_cycles, 0);

  // Second time through: the timing is cached, the fast lane answers,
  // and the value is identical.
  std::optional<JsonValue> warm = client.Call(request);
  ASSERT_TRUE(warm.has_value());
  EXPECT_EQ(warm->Find("cycles")->NumberOr(-1), cold_cycles);

  // Each request touches the timing cache once: the cold compile is the
  // one miss, and the warm one is the routing probe's hit, which the fast
  // lane formats without probing again.
  std::optional<JsonValue> stats =
      client.Call("{\"id\":2,\"method\":\"stats\"}");
  ASSERT_TRUE(stats.has_value());
  EXPECT_EQ(stats->Find("timing_misses")->NumberOr(-1), 1.0);
  EXPECT_EQ(stats->Find("timing_hits")->NumberOr(-1), 1.0);

  std::optional<JsonValue> invalid = client.Call(
      "{\"id\":9,\"method\":\"compile\",\"m\":512,\"n\":512,\"k\":512}");
  ASSERT_TRUE(invalid.has_value());
  EXPECT_FALSE(invalid->Find("ok")->BoolOr(true));
  server.Stop();
}

TEST_F(ServerTest, ConcurrentColdCompilesMatchUncachedSimulation) {
  serving::Server server(options_);
  ASSERT_TRUE(server.Start());

  // Several clients slam the slow lane at once; the worker drains them
  // in rounds. Every request must get its own answer.
  std::vector<std::thread> clients;
  std::vector<double> cycles(6, 0.0);
  for (int i = 0; i < 6; ++i) {
    clients.emplace_back([&, i] {
      serving::Client client;
      ASSERT_TRUE(client.Connect(socket_path_));
      std::string request =
          "{\"id\":" + std::to_string(i) +
          ",\"method\":\"compile\",\"m\":512,\"n\":512,\"k\":" +
          std::to_string(512 + 128 * i) +
          ",\"config\":{\"tb\":[128,128,32],\"warp\":[64,64,16],"
          "\"smem\":2}}";
      std::optional<JsonValue> response = client.Call(request);
      ASSERT_TRUE(response.has_value());
      ASSERT_TRUE(response->Find("ok")->BoolOr(false));
      EXPECT_EQ(response->Find("id")->NumberOr(-1), i);
      cycles[static_cast<size_t>(i)] = response->Find("cycles")->NumberOr(0);
    });
  }
  for (std::thread& thread : clients) thread.join();

  // The daemon answers through the sim cache; every answer must be
  // bit-identical to an uncached compile and simulation.
  schedule::ScheduleConfig config;
  config.tile = {128, 128, 32, 64, 64, 16};
  config.smem_stages = 2;
  for (int i = 0; i < 6; ++i) {
    sim::KernelTiming direct = sim::CompileAndSimulate(
        schedule::MakeMatmul("mm", 512, 512, 512 + 128 * i), config,
        options_.spec);
    ASSERT_TRUE(direct.feasible);
    EXPECT_EQ(cycles[static_cast<size_t>(i)], direct.cycles) << "client " << i;
  }
  server.Stop();
}

TEST_F(ServerTest, PipelinedHotAndColdCompilesAreEachAnsweredOnce) {
  serving::Server server(options_);
  ASSERT_TRUE(server.Start());
  serving::Client client;
  ASSERT_TRUE(client.Connect(socket_path_));

  auto compile = [](int id, int64_t k) {
    return support::JsonObject()
        .Int("id", id)
        .Str("method", "compile")
        .Int("m", 512)
        .Int("n", 512)
        .Int("k", k)
        .Raw("config", "{\"tb\":[128,128,32],\"warp\":[64,64,16],\"smem\":2}")
        .Object();
  };
  std::optional<JsonValue> warm = client.Call(compile(0, 512));
  ASSERT_TRUE(warm.has_value());
  ASSERT_TRUE(warm->Find("ok")->BoolOr(false));

  // Every frame goes out before any reply is read: hot probes on the
  // warmed shape interleaved with cold shapes, so fast-lane replies
  // overtake slow-lane ones on the one connection. Replies are matched
  // by id, and each id must come back exactly once.
  constexpr int kRequests = 24;
  for (int id = 1; id <= kRequests; ++id) {
    ASSERT_TRUE(client.Send(compile(id, id % 4 == 0 ? 512 + 128 * id : 512)));
  }
  std::vector<int> answers(kRequests + 1, 0);
  for (int i = 0; i < kRequests; ++i) {
    std::optional<JsonValue> reply = client.Recv();
    ASSERT_TRUE(reply.has_value());
    EXPECT_TRUE(reply->Find("ok")->BoolOr(false));
    int id = static_cast<int>(reply->Find("id")->NumberOr(-1));
    ASSERT_GE(id, 1);
    ASSERT_LE(id, kRequests);
    ++answers[static_cast<size_t>(id)];
  }
  for (int id = 1; id <= kRequests; ++id) {
    EXPECT_EQ(answers[static_cast<size_t>(id)], 1) << "id " << id;
  }
  server.Stop();
}

TEST_F(ServerTest, ProfileMatchesUncachedSimulationAndDirectPmuReplay) {
  serving::Server server(options_);
  ASSERT_TRUE(server.Start());
  serving::Client client;
  ASSERT_TRUE(client.Connect(socket_path_));

  std::string request =
      "{\"id\":5,\"method\":\"profile\",\"m\":512,\"n\":512,\"k\":1024,"
      "\"config\":{\"tb\":[128,128,32],\"warp\":[64,64,16],\"smem\":3}}";
  std::optional<std::string> cold = client.CallRaw(request);
  ASSERT_TRUE(cold.has_value());
  std::optional<JsonValue> parsed = ParseJson(*cold);
  ASSERT_TRUE(parsed.has_value()) << *cold;
  ASSERT_TRUE(parsed->Find("ok")->BoolOr(false)) << *cold;
  ASSERT_TRUE(parsed->Find("feasible")->BoolOr(false)) << *cold;

  schedule::GemmOp op = schedule::MakeMatmul("mm", 512, 512, 1024);
  schedule::ScheduleConfig config;
  config.tile = {128, 128, 32, 64, 64, 16};
  config.smem_stages = 3;
  EXPECT_EQ(parsed->Find("cycles")->NumberOr(-1),
            sim::CompileAndSimulate(op, config, options_.spec).cycles);
  sim::SimProgram program = sim::CompileSimProgram(op, config, options_.spec);
  sim::ReplayArena arena;
  sim::KernelPmu pmu;
  sim::ReplaySimProgram(program, &arena, &pmu);
  std::string tail = ",\"pmu\":" + sim::PmuToJson(pmu) + "}";
  ASSERT_GE(cold->size(), tail.size());
  EXPECT_EQ(cold->substr(cold->size() - tail.size()), tail);

  // Again, now that the timing and the program are cached: same bytes.
  std::optional<std::string> warm = client.CallRaw(request);
  ASSERT_TRUE(warm.has_value());
  EXPECT_EQ(*warm, *cold);
  server.Stop();
}

TEST_F(ServerTest, RefusesNonIntegralAndOutOfRangeIntegers) {
  serving::Server server(options_);
  ASSERT_TRUE(server.Start());
  serving::Client client;
  ASSERT_TRUE(client.Connect(socket_path_));

  // One valid request per integer field, with '@' where the bad value
  // goes; the refusal must name the field.
  const std::string op = R"("m":256,"n":256,"k":512)";
  auto compile = [](const std::string& op_fields, const std::string& config) {
    return R"({"id":1,"method":"compile",)" + op_fields + R"(,"config":{)" +
           config + "}}";
  };
  const std::vector<std::pair<std::string, std::string>> cases = {
      {"id", R"({"id":@,"method":"ping"})"},
      {"n", R"({"id":1,"method":"debug","what":"requests","n":@})"},
      {"m", compile(R"("m":@,"n":256,"k":512)", R"("tb":[128,128,32])")},
      {"n", compile(R"("m":256,"n":@,"k":512)", R"("tb":[128,128,32])")},
      {"k", compile(R"("m":256,"n":256,"k":@)", R"("tb":[128,128,32])")},
      {"batch", compile(op + R"(,"batch":@)", R"("tb":[128,128,32])")},
      {"tb", compile(op, R"("tb":[128,@,32])")},
      {"warp", compile(op, R"("tb":[128,128,32],"warp":[64,64,@])")},
      {"smem", compile(op, R"("tb":[128,128,32],"smem":@)")},
      {"reg", compile(op, R"("tb":[128,128,32],"reg":@)")},
      {"split_k", compile(op, R"("tb":[128,128,32],"split_k":@)")},
      {"raster", compile(op, R"("tb":[128,128,32],"raster":@)")},
      {"trials",
       R"({"id":1,"method":"tune","m":512,"n":512,"k":512,"trials":@})"},
  };
  for (const char* bad : {"-1", "1.5", "1e300"}) {
    for (const auto& [field, pattern] : cases) {
      std::string request = pattern;
      request.replace(request.find('@'), 1, bad);
      std::optional<JsonValue> response = client.Call(request);
      ASSERT_TRUE(response.has_value()) << request;
      EXPECT_FALSE(response->Find("ok")->BoolOr(true)) << request;
      const JsonValue* error = response->Find("error");
      ASSERT_NE(error, nullptr) << request;
      EXPECT_NE(error->StringOr("").find("\"" + field + "\""),
                std::string::npos)
          << request << " -> " << error->StringOr("");
    }
  }

  std::optional<JsonValue> pong = client.Call(R"({"id":2,"method":"ping"})");
  ASSERT_TRUE(pong.has_value());
  EXPECT_TRUE(pong->Find("ok")->BoolOr(false));
  server.Stop();
}

TEST_F(ServerTest, TuneSearchesThenWarmRestartsFromStore) {
  serving::Server server(options_);
  ASSERT_TRUE(server.Start());
  serving::Client client;
  ASSERT_TRUE(client.Connect(socket_path_));

  std::string request =
      "{\"id\":1,\"method\":\"tune\",\"m\":512,\"n\":768,\"k\":1024}";
  std::optional<JsonValue> cold = client.Call(request);
  ASSERT_TRUE(cold.has_value());
  ASSERT_TRUE(cold->Find("ok")->BoolOr(false))
      << cold->Find("error")->StringOr("");
  EXPECT_EQ(cold->Find("source")->StringOr(""), "search");
  double best = cold->Find("best_cycles")->NumberOr(0);
  EXPECT_GT(best, 0);

  // Same shape again: answered from the TuningStore without a search,
  // with the identical best.
  std::optional<JsonValue> warm = client.Call(request);
  ASSERT_TRUE(warm.has_value());
  EXPECT_EQ(warm->Find("source")->StringOr(""), "store");
  EXPECT_EQ(warm->Find("best_cycles")->NumberOr(-1), best);

  // A neighboring shape warm-starts from the stored one.
  std::optional<JsonValue> neighbor = client.Call(
      "{\"id\":2,\"method\":\"tune\",\"m\":512,\"n\":768,\"k\":1280}");
  ASSERT_TRUE(neighbor.has_value());
  ASSERT_TRUE(neighbor->Find("ok")->BoolOr(false));
  EXPECT_EQ(neighbor->Find("source")->StringOr(""), "search");
  EXPECT_EQ(neighbor->Find("warm_source")->StringOr(""),
            "matmul/1/512x768x1024");
  EXPECT_GT(neighbor->Find("warm_seeds")->NumberOr(0), 0);

  // force re-runs the search even for a stored shape, and never returns
  // a worse best than the store (the seeds replay the stored best).
  std::optional<JsonValue> forced = client.Call(
      "{\"id\":3,\"method\":\"tune\",\"m\":512,\"n\":768,\"k\":1024,"
      "\"force\":true}");
  ASSERT_TRUE(forced.has_value());
  ASSERT_TRUE(forced->Find("ok")->BoolOr(false));
  EXPECT_EQ(forced->Find("source")->StringOr(""), "search");
  EXPECT_LE(forced->Find("best_cycles")->NumberOr(1e30), best);
  server.Stop();
}

TEST_F(ServerTest, ShutdownMethodStopsTheDaemonAndPersists) {
  options_.cache_path = ::testing::TempDir() + "/alcopd_shutdown_cache.alcp";
  std::remove(options_.cache_path.c_str());
  options_.persist_on_shutdown = true;

  serving::Server server(options_);
  ASSERT_TRUE(server.Start());
  serving::Client client;
  ASSERT_TRUE(client.Connect(socket_path_));
  std::optional<JsonValue> compiled = client.Call(
      "{\"id\":1,\"method\":\"compile\",\"m\":512,\"n\":512,\"k\":512,"
      "\"config\":{\"tb\":[128,128,32],\"warp\":[64,64,16],\"smem\":2}}");
  ASSERT_TRUE(compiled.has_value());

  std::optional<JsonValue> ack =
      client.Call("{\"id\":2,\"method\":\"shutdown\"}");
  ASSERT_TRUE(ack.has_value());
  EXPECT_TRUE(ack->Find("ok")->BoolOr(false));
  server.Wait();  // returns because shutdown was requested
  server.Stop();

  // Shutdown persisted the cache; a fresh load finds the compiled entry.
  sim::ResetSimCache();
  serving::PersistStats loaded =
      serving::LoadCache(options_.cache_path, options_.spec);
  EXPECT_TRUE(loaded.ok) << loaded.error;
  EXPECT_GE(loaded.timings, 1u);
  std::remove(options_.cache_path.c_str());
}

// The object keys of a JSON document in document order, nested objects
// and array elements included, comma-joined.
void AppendKeySequence(const JsonValue& value, std::string* out) {
  for (const auto& [key, member] : value.object) {
    *out += key + ",";
    AppendKeySequence(member, out);
  }
  for (const JsonValue& element : value.array) AppendKeySequence(element, out);
}

std::string KeySequence(const std::string& json) {
  std::optional<JsonValue> parsed = ParseJson(json);
  if (!parsed.has_value()) return "unparsable: " + json;
  std::string keys;
  AppendKeySequence(*parsed, &keys);
  return keys;
}

// Every reply shape of the daemon, byte for byte, against replies
// recorded before the JSON writers were unified. Shapes whose values
// depend on timing (stats, /healthz, debug requests) are pinned by
// their key sequence.
TEST_F(ServerTest, RepliesMatchGoldenBytes) {
  options_.http_port = 0;
  options_.watchdog_stall_ms = 0;
  const std::string cache = ::testing::TempDir() + "/alcopd_golden_" +
                            std::to_string(::getpid()) + ".alcp";
  std::remove(cache.c_str());
  serving::Server server(options_);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;
  serving::Client client;
  ASSERT_TRUE(client.Connect(socket_path_, &error)) << error;
  auto call = [&client](const std::string& request) {
    return client.CallRaw(request).value_or("no reply");
  };

  EXPECT_EQ(call(R"({"id":1,"method":"ping"})"),
            R"({"id":1,"ok":true,"pong":true})");
  const std::string compile =
      R"("method":"compile","m":512,"n":512,"k":512,)"
      R"("config":{"tb":[128,128,32],"warp":[64,64,16],"smem":2}})";
  const std::string timing =
      R"("ok":true,"feasible":true,"cycles":19355.328680351908,)"
      R"("microseconds":13.727183461242488,"tflops":19.555027931105041,)"
      R"("threadblocks_per_sm":2,"batches":1})";
  EXPECT_EQ(call(R"({"id":2,)" + compile), R"({"id":2,)" + timing);
  EXPECT_EQ(call(R"({"id":3,)" + compile), R"({"id":3,)" + timing);
  // The PMU block is the pretty-printed PmuToJson of one more replay.
  schedule::ScheduleConfig config;
  config.tile = {128, 128, 32, 64, 64, 16};
  config.smem_stages = 3;
  sim::ReplayArena arena;
  sim::KernelPmu pmu;
  sim::ReplaySimProgram(
      sim::CompileSimProgram(schedule::MakeMatmul("mm", 512, 512, 1024),
                             config, options_.spec),
      &arena, &pmu);
  EXPECT_EQ(
      call(R"({"id":4,"method":"profile","m":512,"n":512,"k":1024,)"
           R"("config":{"tb":[128,128,32],"warp":[64,64,16],"smem":3}})"),
      R"({"id":4,"ok":true,"feasible":true,"cycles":35163.328680351908,)"
      R"("microseconds":24.938530978972985,"tflops":21.527768113232678,)"
      R"("threadblocks_per_sm":2,"batches":1,"pmu":)" +
          sim::PmuToJson(pmu) + "}");
  const std::string tune =
      R"("method":"tune","m":512,"n":768,"k":1024,"trials":4})";
  const std::string best =
      R"("op_key":"matmul/1/512x768x1024",)";
  const std::string config_cycles =
      R"("best_config":"tb=64x64x32 warp=32x32x16 smem_stages=3 )"
      R"(reg_stages=1","best_cycles":17571.047859237533,"trials":4)";
  EXPECT_EQ(call(R"({"id":5,)" + tune),
            R"({"id":5,"ok":true,)" + best + R"("source":"search",)" +
                config_cycles + R"(,"warm_source":"","warm_seeds":0})");
  EXPECT_EQ(call(R"({"id":6,)" + tune),
            R"({"id":6,"ok":true,)" + best + R"("source":"store",)" +
                config_cycles + "}");
  const std::string counts =
      R"(","bytes":11650,"timings":6,"programs":6,"skeletons":6,)"
      R"("tunings":1,"skipped":0})";
  EXPECT_EQ(call(R"({"id":7,"method":"persist","path":")" + cache + R"("})"),
            R"({"id":7,"ok":true,"path":")" + cache + counts);
  EXPECT_EQ(call(R"({"id":8,"method":"load","path":")" + cache + R"("})"),
            R"({"id":8,"ok":true,"path":")" + cache + counts);
  EXPECT_EQ(call(R"({"id":9,"method":"debug","n":0})"),
            R"({"id":9,"ok":true,"what":"requests",)"
            R"("result":{"requests":[],"total_recorded":8}})");

  EXPECT_EQ(call("this is not json"),
            R"({"id":0,"ok":false,"error":"malformed JSON"})");
  EXPECT_EQ(call(R"({"id":10,"method":"nope"})"),
            R"({"id":10,"ok":false,"error":"unknown method \"nope\""})");
  EXPECT_EQ(call(R"({"id":11,"method":"tune","m":512,"n":512,"k":512,)"
                 R"("trials":-1})"),
            R"({"id":11,"ok":false,)"
            R"("error":"\"trials\" must be an integer in [1, 16777216]"})");
  EXPECT_EQ(call(R"({"id":12,"method":"debug","what":"nope"})"),
            R"({"id":12,"ok":false,"error":"unknown debug view \"nope\""})");

  const std::string lane = "count,mean_us,p50_us,p99_us,p999_us,max_us,";
  EXPECT_EQ(KeySequence(call(R"({"id":13,"method":"stats"})")),
            "id,ok,timing_hits,timing_misses,timing_entries,program_entries,"
            "program_skeletons,resident_bytes,budget_bytes,evictions,"
            "disk_hits,disk_misses,disk_load_bytes,stored_tunings,requests,"
            "inflight,latency,fast," + lane + "slow," + lane);
  std::optional<serving::HttpResponse> health =
      serving::HttpCall(server.http_port(), "GET", "/healthz");
  ASSERT_TRUE(health.has_value());
  EXPECT_EQ(KeySequence(health->body),
            "ok,uptime_seconds,inflight,requests,cache,resident_bytes,"
            "budget_bytes,headroom_bytes,");
  const std::string record =
      "id,client,client_id,method,op_key,lane,outcome,transport,batch,"
      "arrival_ns,queue_us,service_us,total_us,";
  EXPECT_EQ(KeySequence(call(R"({"id":14,"method":"debug","n":2})")),
            "id,ok,what,result,requests," + record + record +
                "total_recorded,");
  server.Stop();
  std::remove(cache.c_str());
}

}  // namespace
}  // namespace alcop
