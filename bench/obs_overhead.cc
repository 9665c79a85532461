// Observability overhead bench: what alcopd's full observability stack
// costs the hot path. Two in-process daemons answer the same closed loop
// of fast-lane probe hits on the hot 512^3 shape. The obs daemon runs the
// whole stack, hotter than the defaults: the HTTP front end, the JSONL
// access log, a 4096-deep flight recorder, the watchdog and per-client
// metrics. The plain daemon runs none of them.
//
// The two run alternately, kRounds rounds of kRequests timed requests
// each, and the daemon that goes first swaps every round, so drift in the
// machine's load falls on both alike. Gate: the median of the obs
// daemon's per-round p99 stays within 10% of the plain daemon's.
//
// Prints one JSON object (scripts/bench_obs_overhead.sh writes it to
// BENCH_obs_overhead.json) and exits 1 when the gate fails or a request
// is not answered.
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "obs/trace.h"
#include "serving/client.h"
#include "serving/server.h"
#include "support/json.h"
#include "target/gpu_spec.h"

using namespace alcop;  // NOLINT(build/namespaces) - bench driver

namespace {

constexpr int kRounds = 7;  // odd: the median is one round's p99
constexpr int kRequests = 2000;
constexpr double kMaxOverhead = 1.10;

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  size_t idx = static_cast<size_t>(p * static_cast<double>(values.size()));
  if (idx >= values.size()) idx = values.size() - 1;
  return values[idx];
}

std::string HotCompileRequest(uint64_t id) {
  return support::JsonObject()
      .Uint("id", id)
      .Str("method", "compile")
      .Str("family", "matmul")
      .Int("batch", 1)
      .Int("m", 512)
      .Int("n", 512)
      .Int("k", 512)
      .Raw("config", support::JsonObject()
                         .Raw("tb", "[128,128,32]")
                         .Raw("warp", "[64,64,16]")
                         .Int("smem", 2)
                         .Object())
      .Object();
}

bool AnsweredOk(const std::optional<serving::JsonValue>& response) {
  const serving::JsonValue* ok = response ? response->Find("ok") : nullptr;
  return ok != nullptr && ok->BoolOr(false);
}

// One connected daemon and the ids it has been sent so far.
struct Daemon {
  explicit Daemon(const serving::ServerOptions& options) : server(options) {}

  bool Start(const char* name) {
    std::string error;
    if (!server.Start(&error) ||
        !client.Connect(server.options().socket_path, &error)) {
      std::fprintf(stderr, "%s daemon: %s\n", name, error.c_str());
      return false;
    }
    // The first compile of the shape may take the slow lane; every timed
    // request after it is a fast-lane probe hit.
    return AnsweredOk(client.Call(HotCompileRequest(next_id++)));
  }

  // kRequests closed-loop hot compiles, each timed from send to parsed
  // reply (the body is built before the clock starts). Returns the
  // round's p99 in milliseconds, or nullopt if a reply is missing or not
  // ok.
  std::optional<double> HotRoundP99() {
    std::vector<double> ms;
    ms.reserve(kRequests);
    for (int i = 0; i < kRequests; ++i) {
      std::string request = HotCompileRequest(next_id++);
      obs::Stopwatch watch;
      std::optional<serving::JsonValue> response = client.Call(request);
      double elapsed_ms = watch.Seconds() * 1e3;
      if (!AnsweredOk(response)) return std::nullopt;
      ms.push_back(elapsed_ms);
    }
    return Percentile(std::move(ms), 0.99);
  }

  serving::Server server;
  serving::Client client;
  uint64_t next_id = 0;
  std::vector<double> p99_ms;  // one per round
};

std::string MsArray(const std::vector<double>& values) {
  std::vector<std::string> out;
  for (double value : values) out.push_back(support::NumberToJson(value));
  return support::JsonArray(out);
}

}  // namespace

int main() {
  const std::string base =
      "/tmp/alcop_bench_obs_overhead_" + std::to_string(getpid());

  serving::ServerOptions plain_options;
  plain_options.socket_path = base + "_plain.sock";
  plain_options.spec = target::AmpereSpec();
  plain_options.default_trials = 4;
  plain_options.persist_on_shutdown = false;
  plain_options.flight_depth = 0;
  plain_options.watchdog_stall_ms = 0;
  plain_options.client_metrics = false;

  serving::ServerOptions obs_options = plain_options;
  obs_options.socket_path = base + "_obs.sock";
  obs_options.http_port = 0;
  obs_options.access_log_path = base + ".access.jsonl";
  obs_options.flight_depth = 4096;
  obs_options.watchdog_stall_ms = 1000;
  obs_options.client_metrics = true;

  Daemon obs(obs_options);
  Daemon plain(plain_options);
  bool answered = obs.Start("obs") && plain.Start("plain");
  for (int round = 0; answered && round < kRounds; ++round) {
    Daemon* order[2] = {&obs, &plain};
    if (round % 2 == 1) std::swap(order[0], order[1]);
    for (Daemon* daemon : order) {
      std::optional<double> p99 = daemon->HotRoundP99();
      if (!p99) {
        answered = false;
        break;
      }
      daemon->p99_ms.push_back(*p99);
    }
  }
  obs.server.Stop();
  plain.server.Stop();
  std::remove(obs_options.access_log_path.c_str());

  double obs_p99 = Percentile(obs.p99_ms, 0.5);
  double plain_p99 = Percentile(plain.p99_ms, 0.5);
  bool overhead_ok = answered && obs_p99 <= kMaxOverhead * plain_p99;

  std::printf(
      "%s\n",
      support::JsonObject()
          .Str("bench", "obs_overhead")
          .Int("rounds", kRounds)
          .Int("requests_per_round", kRequests)
          .Raw("obs_round_p99_ms", MsArray(obs.p99_ms))
          .Raw("plain_round_p99_ms", MsArray(plain.p99_ms))
          .Num("obs_p99_ms", obs_p99)
          .Num("plain_p99_ms", plain_p99)
          .Num("ratio", plain_p99 > 0.0 ? obs_p99 / plain_p99 : 0.0)
          .Num("max_ratio", kMaxOverhead)
          .Bool("answered", answered)
          .Bool("overhead_ok", overhead_ok)
          .Object()
          .c_str());
  return overhead_ok ? 0 : 1;
}
