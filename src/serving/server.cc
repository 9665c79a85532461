#include "serving/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "obs/chrome_trace.h"
#include "obs/flight.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/prometheus.h"
#include "obs/trace.h"
#include "serving/http.h"
#include "serving/persist.h"
#include "serving/protocol.h"
#include "sim/pmu.h"
#include "sim/sim_cache.h"
#include "support/json.h"
#include "tuner/records.h"
#include "tuner/strategy.h"
#include "tuner/transfer.h"

namespace alcop {
namespace serving {

using support::JsonObject;

namespace {

// One client connection — either a unix-socket peer speaking
// length-prefixed frames or an HTTP/1.1 peer. Responses may be written
// by either lane, so writes are serialized per connection; frame order
// between different requests is unconstrained for the socket transport
// (clients match by id), while HTTP admits strictly one dispatched
// request at a time so responses stay in request order.
struct Conn {
  int fd = -1;
  bool http = false;
  int rescan_fd = -1;  // pokes the IO thread after an HTTP response
  std::string client = "anon";  // peer identity (unix: "uid:<uid>")
  std::mutex write_mu;

  // HTTP state. in_buffer/close_after_response/dead are IO-thread-only;
  // inflight is the cross-thread gate: set before Dispatch on the IO
  // thread, cleared by whichever lane thread sends the response.
  std::string in_buffer;
  std::atomic<bool> inflight{false};
  bool close_after_response = false;
  bool dead = false;

  ~Conn() {
    if (fd >= 0) ::close(fd);
  }

  // Dispatched-response path (both transports). A dead peer just drops
  // the response.
  void Send(const std::string& payload) {
    std::lock_guard<std::mutex> lock(write_mu);
    if (!http) {
      WriteFrame(fd, payload);
      return;
    }
    HttpWriteAll(fd, FormatHttpResponse(200, "application/json", payload + "\n",
                                        {}, !close_after_response));
    inflight.store(false, std::memory_order_release);
    if (rescan_fd >= 0) {
      char byte = 'r';
      ssize_t ignored = ::write(rescan_fd, &byte, 1);
      (void)ignored;
    }
  }

  // Transport-level HTTP responses (scrapes, 4xx), IO thread only.
  void SendRaw(const std::string& bytes) {
    std::lock_guard<std::mutex> lock(write_mu);
    HttpWriteAll(fd, bytes);
  }
};

// The wire methods. Dispatch maps the name once; everything after it
// switches on this.
enum class Method {
  kPing,
  kStats,
  kDebug,
  kPersist,
  kLoad,
  kShutdown,
  kCompile,
  kProfile,
  kTune,
};

bool MethodFromName(const std::string& name, Method* method) {
  static constexpr std::pair<const char*, Method> kNames[] = {
      {"ping", Method::kPing},         {"stats", Method::kStats},
      {"debug", Method::kDebug},       {"persist", Method::kPersist},
      {"load", Method::kLoad},         {"shutdown", Method::kShutdown},
      {"compile", Method::kCompile},   {"profile", Method::kProfile},
      {"tune", Method::kTune},
  };
  for (const auto& [text, value] : kNames) {
    if (name == text) {
      *method = value;
      return true;
    }
  }
  return false;
}

// One request, parsed once by Dispatch. The lanes read these typed
// fields, never the JSON body.
struct Request {
  std::shared_ptr<Conn> conn;
  int64_t id = 0;      // client-chosen correlation id from the payload
  std::string method;  // wire name, as the flight record prints it
  Method kind = Method::kPing;

  schedule::GemmOp op;              // compile, profile, tune
  schedule::ScheduleConfig config;  // compile, profile
  size_t trials = 0;                // tune
  bool warm = true;                 // tune
  bool force = false;               // tune: search even when stored
  std::string path;                 // persist, load
  std::string debug_what = "requests";
  std::vector<std::pair<std::string, std::string>> debug_params;

  // What routing found, carried to the fast lane so it only formats.
  std::optional<sim::KernelTiming> timing;    // compile: the probe's hit
  std::optional<tuner::StoredTuning> stored;  // tune: the stored search

  // Per-request observability, filled in by Dispatch / the lanes.
  uint64_t req_id = 0;     // daemon-assigned monotonic id
  int64_t arrival_ns = 0;  // Dispatch time (trace clock)
  int64_t dequeue_ns = 0;  // lane pickup time
  uint64_t batch = 0;      // slow-lane drain round (0 on the fast lane)
  const char* lane = "fast";
  const char* outcome = "ok";  // cache outcome for the access log
  const char* transport = "unix";
  std::string client = "anon";  // attributed identity (see ServerOptions)
  std::string op_key;
};

// Every successful reply opens with the request's id and "ok":true.
JsonObject Reply(const Request& request) {
  return JsonObject().Int("id", request.id).Bool("ok", true);
}

// The one ok:false reply. It marks the request's outcome "error", which
// its flight record, access-log line and per-client error count read.
std::string ErrorResponse(Request& request, const std::string& message) {
  request.outcome = "error";
  return JsonObject()
      .Int("id", request.id)
      .Bool("ok", false)
      .Str("error", message)
      .Object();
}

// Bounds for integer request fields. Client ids and debug counts may be
// any non-negative integer a double holds exactly; every other integer
// field (operator extents, tiles, stage counts, split-K, rasterization,
// trial budgets) is a positive count, capped far past anything the
// daemon serves.
constexpr int64_t kMaxExactInteger = int64_t{1} << 53;
constexpr int64_t kMaxRequestCount = int64_t{1} << 24;

// Reads `value` as an integer in [lo, hi]. A non-number, a fraction or a
// value past either bound is refused with a reason naming the field,
// instead of being cast (out-of-range double -> int casts are undefined).
bool IntegerField(const JsonValue& value, const std::string& name, int64_t lo,
                  int64_t hi, int64_t* out, std::string* err) {
  double v = value.kind == JsonValue::Kind::kNumber ? value.number : NAN;
  if (!(v >= static_cast<double>(lo) && v <= static_cast<double>(hi)) ||
      v != std::floor(v)) {
    *err = "\"" + name + "\" must be an integer in [" + std::to_string(lo) +
           ", " + std::to_string(hi) + "]";
    return false;
  }
  *out = static_cast<int64_t>(v);
  return true;
}

// A positive count field that is optional: absent keeps `*out`.
bool OptionalCount(const JsonValue& root, const char* key, int* out,
                   std::string* err) {
  const JsonValue* v = root.Find(key);
  if (v == nullptr) return true;
  int64_t parsed = 0;
  if (!IntegerField(*v, key, 1, kMaxRequestCount, &parsed, err)) return false;
  *out = static_cast<int>(parsed);
  return true;
}

bool FamilyFromName(const std::string& name, schedule::OpFamily* family) {
  for (schedule::OpFamily f :
       {schedule::OpFamily::kMatmul, schedule::OpFamily::kBatchMatmul,
        schedule::OpFamily::kConv1x1, schedule::OpFamily::kConv3x3}) {
    if (name == schedule::OpFamilyName(f)) {
      *family = f;
      return true;
    }
  }
  return false;
}

// {"family":"matmul","batch":1,"m":...,"n":...,"k":...} from the request
// root (fields at top level, matching the CLI's workload flags).
bool ParseOpJson(const JsonValue& root, schedule::GemmOp* op,
                 std::string* err) {
  const JsonValue* family = root.Find("family");
  std::string family_name = family == nullptr ? "matmul" : family->StringOr("");
  if (!FamilyFromName(family_name, &op->family)) {
    *err = "unknown family \"" + family_name + "\"";
    return false;
  }
  const JsonValue* m = root.Find("m");
  const JsonValue* n = root.Find("n");
  const JsonValue* k = root.Find("k");
  if (m == nullptr || n == nullptr || k == nullptr) {
    *err = "op needs m, n, k";
    return false;
  }
  op->batch = 1;
  const JsonValue* batch = root.Find("batch");
  if (!IntegerField(*m, "m", 1, kMaxRequestCount, &op->m, err) ||
      !IntegerField(*n, "n", 1, kMaxRequestCount, &op->n, err) ||
      !IntegerField(*k, "k", 1, kMaxRequestCount, &op->k, err) ||
      (batch != nullptr &&
       !IntegerField(*batch, "batch", 1, kMaxRequestCount, &op->batch, err))) {
    return false;
  }
  std::ostringstream name;
  name << schedule::OpFamilyName(op->family) << "_" << op->m << "x" << op->n
       << "x" << op->k;
  op->name = name.str();
  return true;
}

// {"tb":[m,n,k],"warp":[m,n,k],"smem":..,"reg":..,...}; only "tb" is
// required, everything else keeps the ScheduleConfig default.
bool ParseConfigJson(const JsonValue& config, schedule::ScheduleConfig* out,
                     std::string* err) {
  auto triple = [&](const JsonValue& v, const char* key, int64_t* a,
                    int64_t* b, int64_t* c) {
    if (v.kind != JsonValue::Kind::kArray || v.array.size() != 3) {
      *err = std::string("\"") + key + "\" must be [m,n,k]";
      return false;
    }
    return IntegerField(v.array[0], key, 1, kMaxRequestCount, a, err) &&
           IntegerField(v.array[1], key, 1, kMaxRequestCount, b, err) &&
           IntegerField(v.array[2], key, 1, kMaxRequestCount, c, err);
  };
  const JsonValue* tb = config.Find("tb");
  if (tb == nullptr) {
    *err = "config needs \"tb\":[m,n,k]";
    return false;
  }
  if (!triple(*tb, "tb", &out->tile.tb_m, &out->tile.tb_n, &out->tile.tb_k)) {
    return false;
  }
  // Default warp tile: one warp owning the whole threadblock tile is
  // rarely valid, so default to the tb tile split 2x2 when divisible.
  out->tile.warp_m = out->tile.tb_m % 2 == 0 ? out->tile.tb_m / 2 : out->tile.tb_m;
  out->tile.warp_n = out->tile.tb_n % 2 == 0 ? out->tile.tb_n / 2 : out->tile.tb_n;
  out->tile.warp_k = out->tile.tb_k;
  const JsonValue* warp = config.Find("warp");
  if (warp != nullptr && !triple(*warp, "warp", &out->tile.warp_m,
                                 &out->tile.warp_n, &out->tile.warp_k)) {
    return false;
  }
  if (!OptionalCount(config, "smem", &out->smem_stages, err) ||
      !OptionalCount(config, "reg", &out->reg_stages, err) ||
      !OptionalCount(config, "split_k", &out->split_k, err) ||
      !OptionalCount(config, "raster", &out->raster_block, err)) {
    return false;
  }
  if (const JsonValue* v = config.Find("fusion")) {
    out->inner_fusion = v->BoolOr(out->inner_fusion);
  }
  if (const JsonValue* v = config.Find("swizzle")) {
    out->swizzle = v->BoolOr(out->swizzle);
  }
  if (const JsonValue* v = config.Find("async")) {
    out->async_copies = v->BoolOr(out->async_copies);
  }
  return true;
}

// The op fields plus the "config" object of a compile or profile request.
bool ParseCompileJson(const JsonValue& root, schedule::GemmOp* op,
                      schedule::ScheduleConfig* config, std::string* err) {
  if (!ParseOpJson(root, op, err)) return false;
  const JsonValue* cfg = root.Find("config");
  if (cfg == nullptr) {
    *err = "compile needs a \"config\" object";
    return false;
  }
  return ParseConfigJson(*cfg, config, err);
}

// {"what":..,"n":..,"client":..,"lane":..,"outcome":..}: the socket
// mirror of GET /debug/<what>?<params>.
bool ParseDebugJson(const JsonValue& root, Request* request, std::string* err) {
  if (const JsonValue* what = root.Find("what")) {
    request->debug_what = what->StringOr("requests");
  }
  for (const char* key : {"n", "client", "lane", "outcome"}) {
    const JsonValue* v = root.Find(key);
    if (v == nullptr) continue;
    if (v->kind == JsonValue::Kind::kNumber) {
      int64_t n = 0;
      if (!IntegerField(*v, key, 0, kMaxExactInteger, &n, err)) return false;
      request->debug_params.emplace_back(key, std::to_string(n));
    } else {
      request->debug_params.emplace_back(key, v->StringOr(""));
    }
  }
  return true;
}

// Fills the typed fields of `request` (whose `method` is already set)
// from the JSON body: unknown methods and malformed fields are refused
// with the reason in `err`.
bool ParseRequest(const JsonValue& root, const ServerOptions& options,
                  Request* request, std::string* err) {
  if (!MethodFromName(request->method, &request->kind)) {
    *err = "unknown method \"" + request->method + "\"";
    return false;
  }
  switch (request->kind) {
    case Method::kCompile:
    case Method::kProfile:
      return ParseCompileJson(root, &request->op, &request->config, err);
    case Method::kTune: {
      if (!ParseOpJson(root, &request->op, err)) return false;
      int trials = 0;  // absent: the daemon's default
      if (!OptionalCount(root, "trials", &trials, err)) return false;
      request->trials =
          trials > 0 ? static_cast<size_t>(trials) : options.default_trials;
      const JsonValue* warm = root.Find("warm");
      request->warm =
          warm == nullptr ? options.warm_start : warm->BoolOr(options.warm_start);
      const JsonValue* force = root.Find("force");
      request->force = force != nullptr && force->BoolOr(false);
      return true;
    }
    case Method::kPersist:
    case Method::kLoad: {
      const JsonValue* path = root.Find("path");
      request->path = path == nullptr ? options.cache_path
                                      : path->StringOr(options.cache_path);
      if (request->path.empty()) request->path = DefaultCachePath();
      return true;
    }
    case Method::kDebug:
      return ParseDebugJson(root, request, err);
    case Method::kPing:
    case Method::kStats:
    case Method::kShutdown:
      return true;
  }
  return true;
}

void AddTiming(JsonObject* out, const sim::KernelTiming& t) {
  out->Bool("feasible", t.feasible);
  if (!t.feasible) {
    out->Str("reason", t.reason);
    return;
  }
  out->Num("cycles", t.cycles)
      .Num("microseconds", t.microseconds)
      .Num("tflops", t.tflops)
      .Int("threadblocks_per_sm", t.threadblocks_per_sm)
      .Int("batches", t.batches);
}

obs::Counter& ServingCounter(const char* name) {
  return obs::Registry::Global().GetCounter(name);
}

// Client identities become metric label values and access-log fields, so
// they are clamped to a label-safe charset and length before use.
std::string SanitizeClient(const std::string& raw) {
  std::string out;
  out.reserve(raw.size());
  for (char c : raw) {
    bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
              (c >= '0' && c <= '9') || c == '_' || c == '.' || c == ':' ||
              c == '-';
    out += ok ? c : '_';
    if (out.size() >= 48) break;
  }
  return out.empty() ? "anon" : out;
}

#ifndef ALCOP_GIT_SHA
#define ALCOP_GIT_SHA "unknown"
#endif
#ifndef ALCOP_BUILD_TYPE
#define ALCOP_BUILD_TYPE "unknown"
#endif

}  // namespace

struct Server::Impl {
  ServerOptions options;

  int listen_fd = -1;
  int http_listen_fd = -1;       // -1 when the HTTP front end is off
  int bound_http_port = -1;      // actual port after bind (0 resolves)
  int wake_pipe[2] = {-1, -1};   // interrupts poll() on Stop
  int rescan_pipe[2] = {-1, -1}; // lane->IO nudge after an HTTP response

  std::thread io_thread;
  std::thread fast_thread;
  std::thread slow_thread;

  std::mutex queue_mu;
  std::condition_variable fast_cv;
  std::condition_variable slow_cv;
  std::deque<Request> fast_queue;
  std::deque<Request> slow_queue;

  std::atomic<bool> stopping{false};
  std::atomic<uint64_t> served{0};
  bool started = false;

  std::mutex stop_mu;
  std::condition_variable stop_cv;

  // Request-lifecycle observability (resolved once in Start, with help
  // text; lanes then update lock-free).
  struct LaneStats {
    obs::Histogram* latency = nullptr;
    obs::Histogram* queue_wait = nullptr;
    obs::Histogram* service = nullptr;
  };
  LaneStats fast_stats;
  LaneStats slow_stats;
  obs::Gauge* inflight_gauge = nullptr;
  obs::Counter* requests_counter = nullptr;
  obs::Counter* fast_counter = nullptr;
  obs::Counter* slow_counter = nullptr;
  obs::Counter* batches_counter = nullptr;
  obs::Counter* http_counter = nullptr;
  obs::Counter* http_bad_counter = nullptr;
  obs::Counter* watchdog_counter = nullptr;
  struct LaneWatch {
    obs::Gauge* depth = nullptr;  // serving.queue.depth|lane=...
    obs::Gauge* age = nullptr;    // serving.queue.age.us|lane=...
    bool stalled = false;         // one-shot dump armed while false
  };
  LaneWatch fast_watch;
  LaneWatch slow_watch;
  std::atomic<uint64_t> next_request_id{0};
  std::atomic<uint64_t> next_batch_id{0};
  int64_t start_ns = 0;
  bool prev_trace_enabled = false;

  std::ofstream access_log;
  std::mutex access_log_mu;

  // Flight recorder (created in Start from the options; null when
  // disabled).
  std::unique_ptr<obs::FlightRecorder> flight;

  // Per-client attribution: top-K identities get their own labeled
  // series, everyone past the cap shares the "other" slot so label
  // cardinality is bounded by max_clients + 1 regardless of traffic.
  struct ClientStats {
    obs::Counter* requests = nullptr;
    obs::Counter* errors = nullptr;
    obs::Counter* bytes = nullptr;
    obs::Histogram* fast_latency = nullptr;
    obs::Histogram* slow_latency = nullptr;
  };
  std::mutex clients_mu;
  std::unordered_map<std::string, ClientStats*> clients;
  std::deque<ClientStats> client_storage;  // stable addresses
  ClientStats* other_client = nullptr;     // shared overflow slot

  ClientStats* MakeClientStats(const std::string& label) {
    obs::Registry& registry = obs::Registry::Global();
    client_storage.emplace_back();
    ClientStats& stats = client_storage.back();
    stats.requests = &registry.GetCounter(
        "serving.client.requests|client=" + label,
        "Requests completed, by attributed client (top-K + other).");
    stats.errors = &registry.GetCounter(
        "serving.client.errors|client=" + label,
        "Requests answered with ok=false, by attributed client.");
    stats.bytes = &registry.GetCounter(
        "serving.client.response.bytes|client=" + label,
        "Response payload bytes sent, by attributed client.");
    stats.fast_latency = &registry.GetHistogram(
        "serving.request.latency.us|client=" + label + "|lane=fast",
        "End-to-end request latency in microseconds, by client and lane.");
    stats.slow_latency = &registry.GetHistogram(
        "serving.request.latency.us|client=" + label + "|lane=slow",
        "End-to-end request latency in microseconds, by client and lane.");
    return &stats;
  }

  ClientStats* ClientStatsFor(const std::string& client) {
    std::lock_guard<std::mutex> lock(clients_mu);
    auto it = clients.find(client);
    if (it != clients.end()) return it->second;
    if (clients.size() < options.max_clients) {
      return clients.emplace(client, MakeClientStats(client)).first->second;
    }
    // Past the cap: share the "other" series (and don't memoize, so the
    // identity map stays as bounded as the label space).
    if (other_client == nullptr) other_client = MakeClientStats("other");
    return other_client;
  }

  // ---------------------------------------------------------------------
  // IO thread: accept connections, read frames, classify into lanes.
  // ---------------------------------------------------------------------

  void IoLoop() {
    std::vector<std::shared_ptr<Conn>> conns;
    while (!stopping.load(std::memory_order_relaxed)) {
      std::vector<pollfd> fds;
      fds.push_back({wake_pipe[0], POLLIN, 0});
      fds.push_back({rescan_pipe[0], POLLIN, 0});
      fds.push_back({listen_fd, POLLIN, 0});
      size_t http_slot = 0;
      if (http_listen_fd >= 0) {
        http_slot = fds.size();
        fds.push_back({http_listen_fd, POLLIN, 0});
      }
      size_t base = fds.size();
      for (const auto& conn : conns) fds.push_back({conn->fd, POLLIN, 0});
      if (::poll(fds.data(), fds.size(), MonitorTimeoutMs()) < 0) {
        if (errno == EINTR) continue;
        break;
      }
      MonitorTick(obs::NowNanos());
      if (fds[0].revents != 0) break;  // woken by Stop
      if (fds[1].revents & POLLIN) {
        // A lane finished an HTTP response. Drain the nudge bytes (a
        // short read just means another wakeup, which is harmless), then
        // resume any conns with buffered pipelined requests and close
        // the Connection: close ones.
        char drain[256];
        ssize_t ignored = ::read(rescan_pipe[0], drain, sizeof(drain));
        (void)ignored;
        for (auto& conn : conns) {
          if (!conn->http || conn->dead) continue;
          if (conn->inflight.load(std::memory_order_acquire)) continue;
          if (conn->close_after_response) {
            conn->dead = true;
            continue;
          }
          if (!conn->in_buffer.empty() && !ProcessHttpBuffer(conn)) {
            conn->dead = true;
          }
        }
        SweepDead(&conns);
      }
      if (fds[2].revents & POLLIN) {
        int fd = ::accept(listen_fd, nullptr, nullptr);
        if (fd >= 0) {
          auto conn = std::make_shared<Conn>();
          conn->fd = fd;
          // Kernel-verified peer identity: the unix transport attributes
          // by uid unless the request body overrides it ("client" field).
          ucred cred;
          socklen_t cred_len = sizeof(cred);
          if (::getsockopt(fd, SOL_SOCKET, SO_PEERCRED, &cred, &cred_len) ==
              0) {
            conn->client = "uid:" + std::to_string(cred.uid);
          }
          conns.push_back(std::move(conn));
          continue;  // re-poll with the new fd included
        }
      }
      if (http_listen_fd >= 0 && (fds[http_slot].revents & POLLIN) != 0) {
        int fd = ::accept(http_listen_fd, nullptr, nullptr);
        if (fd >= 0) {
          auto conn = std::make_shared<Conn>();
          conn->fd = fd;
          conn->http = true;
          conn->rescan_fd = rescan_pipe[1];
          conns.push_back(std::move(conn));
          continue;
        }
      }
      for (size_t i = base; i < fds.size(); ++i) {
        if (fds[i].revents == 0) continue;
        std::shared_ptr<Conn>& conn = conns[i - base];
        if (conn->dead) continue;
        if (!conn->http) {
          std::string payload;
          if (!ReadFrame(conn->fd, &payload)) {
            conn->dead = true;
          } else {
            Dispatch(conn, payload);
          }
          continue;
        }
        char buf[65536];
        ssize_t n = ::read(conn->fd, buf, sizeof(buf));
        if (n <= 0) {
          if (n < 0 && (errno == EINTR || errno == EAGAIN)) continue;
          conn->dead = true;
          continue;
        }
        conn->in_buffer.append(buf, static_cast<size_t>(n));
        if (!conn->inflight.load(std::memory_order_acquire) &&
            !ProcessHttpBuffer(conn)) {
          conn->dead = true;
        }
      }
      SweepDead(&conns);
    }
  }

  static void SweepDead(std::vector<std::shared_ptr<Conn>>* conns) {
    conns->erase(std::remove_if(conns->begin(), conns->end(),
                                [](const std::shared_ptr<Conn>& conn) {
                                  return conn->dead;
                                }),
                 conns->end());
  }

  // ---------------------------------------------------------------------
  // Watchdog (IO thread).
  // ---------------------------------------------------------------------

  // How long poll() may sleep so the watchdog still runs: a quarter of
  // the stall threshold, clamped to [1ms, 1s]; -1 (block until traffic)
  // when the watchdog is off.
  int MonitorTimeoutMs() const {
    if (options.watchdog_stall_ms <= 0) return -1;
    return std::clamp(options.watchdog_stall_ms / 4, 1, 1000);
  }

  // Heartbeat: queue-depth/oldest-age gauges per lane and one-shot stall
  // detection.
  // Runs after every poll() return, so its cost is bounded by the poll
  // cadence, not the request rate.
  void MonitorTick(int64_t now_ns) {
    struct LaneReading {
      size_t depth = 0;
      int64_t oldest_ns = 0;  // arrival of the queue front (0 = empty)
    };
    LaneReading fast_reading;
    LaneReading slow_reading;
    bool watch = options.watchdog_stall_ms > 0 || fast_watch.depth != nullptr;
    if (watch) {
      std::lock_guard<std::mutex> lock(queue_mu);
      fast_reading.depth = fast_queue.size();
      if (!fast_queue.empty()) {
        fast_reading.oldest_ns = fast_queue.front().arrival_ns;
      }
      slow_reading.depth = slow_queue.size();
      if (!slow_queue.empty()) {
        slow_reading.oldest_ns = slow_queue.front().arrival_ns;
      }
    }
    auto tick_lane = [&](const char* name, LaneWatch& lane,
                         const LaneReading& reading) {
      double age_us =
          reading.oldest_ns == 0
              ? 0.0
              : static_cast<double>(now_ns - reading.oldest_ns) / 1e3;
      if (lane.depth != nullptr) {
        lane.depth->Set(static_cast<double>(reading.depth));
        lane.age->Set(age_us);
      }
      if (options.watchdog_stall_ms <= 0) return;
      if (reading.depth == 0) {
        lane.stalled = false;  // drained: re-arm the one-shot dump
        return;
      }
      if (lane.stalled ||
          age_us < static_cast<double>(options.watchdog_stall_ms) * 1e3) {
        return;
      }
      lane.stalled = true;
      watchdog_counter->Increment();
      EmitStallDump(name, age_us, reading.depth);
    };
    tick_lane("fast", fast_watch, fast_reading);
    tick_lane("slow", slow_watch, slow_reading);
  }

  // One-shot diagnostic on a stalled lane: the flight-recorder tail and
  // a flattened metrics snapshot, as one error-level structured-log line
  // (ring-buffered for /debug/log, mirrored to any file sink).
  void EmitStallDump(const char* lane, double age_us, size_t depth) {
    JsonObject fields;
    fields.Str("lane", lane)
        .Num("oldest_age_us", age_us)
        .Uint("queue_depth", depth)
        .Num("inflight", inflight_gauge->Value())
        .Uint("requests", served.load(std::memory_order_relaxed));
    if (flight != nullptr) fields.Raw("flight_tail", RecordsJson(8, {}));
    JsonObject metrics;
    for (const auto& [name, value] :
         obs::FlattenSnapshot(obs::Registry::Global().Snapshot())) {
      metrics.Num(name, value);
    }
    fields.Raw("metrics", metrics.Object());
    obs::Log(obs::LogLevel::kError, "serving",
             std::string("watchdog: ") + lane + " lane stalled", fields);
  }

  // Parses as many buffered HTTP requests as the one-inflight gate
  // allows. False means the connection should close (protocol error or
  // a non-keep-alive exchange answered inline).
  bool ProcessHttpBuffer(const std::shared_ptr<Conn>& conn) {
    while (!conn->inflight.load(std::memory_order_acquire)) {
      if (conn->in_buffer.empty()) return true;
      HttpRequest http_request;
      size_t consumed = 0;
      std::string parse_error;
      HttpParseResult result =
          ParseHttpRequest(conn->in_buffer, &http_request, &consumed,
                           &parse_error);
      if (result == HttpParseResult::kNeedMore) return true;
      if (result == HttpParseResult::kBad) {
        http_bad_counter->Increment();
        conn->SendRaw(FormatHttpResponse(400, "text/plain; charset=utf-8",
                                         "bad request: " + parse_error + "\n",
                                         {}, /*keep_alive=*/false));
        return false;
      }
      conn->in_buffer.erase(0, consumed);
      if (!HandleHttp(conn, http_request)) return false;
    }
    return true;
  }

  // Transport-level HTTP routing. GET endpoints are answered inline on
  // the IO thread (they only read the registry, rings and cache stats);
  // POST /v1/<method> rides the same Dispatch path as socket frames,
  // with the URL supplying the method and the X-Alcop-Client header (if
  // any) the attributed identity.
  bool HandleHttp(const std::shared_ptr<Conn>& conn,
                  const HttpRequest& request) {
    http_counter->Increment();
    bool keep = request.keep_alive;
    std::string path;
    std::string query;
    SplitTarget(request.target, &path, &query);
    auto method_not_allowed = [&] {
      conn->SendRaw(FormatHttpResponse(405, "text/plain; charset=utf-8",
                                       "method not allowed\n", {}, keep));
      return keep;
    };
    if (path == "/metrics") {
      if (request.method != "GET") return method_not_allowed();
      conn->SendRaw(FormatHttpResponse(
          200, "text/plain; version=0.0.4; charset=utf-8",
          obs::RenderPrometheus(), {}, keep));
      return keep;
    }
    if (path.rfind("/debug/", 0) == 0) {
      if (request.method != "GET") return method_not_allowed();
      std::string body;
      if (!HandleDebugQuery(path.substr(7), ParseQuery(query), &body)) {
        conn->SendRaw(FormatHttpResponse(404, "text/plain; charset=utf-8",
                                         "not found\n", {}, keep));
        return keep;
      }
      conn->SendRaw(
          FormatHttpResponse(200, "application/json", body + "\n", {}, keep));
      return keep;
    }
    if (path == "/healthz") {
      if (request.method != "GET") return method_not_allowed();
      sim::SimCacheStats stats = sim::GetSimCacheStats();
      int64_t headroom =
          stats.budget_bytes == 0
              ? -1
              : std::max<int64_t>(0, static_cast<int64_t>(stats.budget_bytes) -
                                         static_cast<int64_t>(
                                             stats.resident_bytes));
      std::string body =
          JsonObject()
              .Bool("ok", true)
              .Num("uptime_seconds",
                   static_cast<double>(obs::NowNanos() - start_ns) / 1e9)
              .Num("inflight", inflight_gauge->Value())
              .Uint("requests", served.load(std::memory_order_relaxed))
              .Raw("cache", JsonObject()
                                .Uint("resident_bytes", stats.resident_bytes)
                                .Uint("budget_bytes", stats.budget_bytes)
                                .Int("headroom_bytes", headroom)
                                .Object())
              .Object();
      conn->SendRaw(FormatHttpResponse(
          200, "application/json", body + "\n",
          {{"X-Cache-Headroom-Bytes", std::to_string(headroom)}}, keep));
      return keep;
    }
    if (path.rfind("/v1/", 0) == 0) {
      if (request.method != "POST") return method_not_allowed();
      std::string method = path.substr(4);
      conn->close_after_response = !keep;
      conn->inflight.store(true, std::memory_order_release);
      const std::string* client_header = request.FindHeader("X-Alcop-Client");
      Dispatch(conn, request.body.empty() ? "{}" : request.body,
               method.c_str(),
               client_header == nullptr ? nullptr : client_header->c_str());
      return true;
    }
    conn->SendRaw(FormatHttpResponse(404, "text/plain; charset=utf-8",
                                     "not found\n", {}, keep));
    return keep;
  }

  // ---------------------------------------------------------------------
  // Debug introspection (shared by GET /debug/* and the socket `debug`
  // method): renders the retained rings as JSON. Read-only.
  // ---------------------------------------------------------------------

  static size_t ParseCount(const std::string& text, size_t fallback) {
    if (text.empty()) return fallback;
    char* end = nullptr;
    unsigned long long n = std::strtoull(text.c_str(), &end, 10);
    if (end == nullptr || *end != '\0') return fallback;
    return static_cast<size_t>(n);
  }

  // Up to `n` matching flight records, most recent first, as a JSON
  // array.
  std::string RecordsJson(size_t n, const obs::FlightRecorder::Filter& filter) {
    std::vector<std::string> records;
    if (flight != nullptr) {
      for (const obs::RequestRecord& rec : flight->Snapshot(n, filter)) {
        records.push_back(obs::RequestRecordJson(rec));
      }
    }
    return support::JsonArray(records);
  }

  // `{"requests":[...most recent first...],"total_recorded":N}`.
  std::string DebugRequestsJson(size_t n, const obs::FlightRecorder::Filter&
                                              filter) {
    return JsonObject()
        .Raw("requests", RecordsJson(n, filter))
        .Uint("total_recorded",
              flight == nullptr ? 0 : flight->total_recorded())
        .Object();
  }

  // Drains the span rings as a Chrome/Perfetto trace snapshot.
  static std::string DebugTraceJson() {
    obs::ChromeTraceWriter writer;
    obs::AppendHostSpans(&writer, obs::CollectTraceSpans());
    std::string json = writer.ToJson();
    obs::ClearTrace();
    return json;
  }

  // `{"lines":[...oldest first...]}`; each line is itself a JSON object.
  static std::string DebugLogJson(size_t n) {
    obs::StructuredLog& log = obs::StructuredLog::Global();
    return JsonObject()
        .Raw("lines", support::JsonArray(log.Recent(n)))
        .Uint("total", log.total_lines())
        .Object();
  }

  // `what` is the path tail ("requests", "trace", "log");
  // false = unknown endpoint.
  bool HandleDebugQuery(
      const std::string& what,
      const std::vector<std::pair<std::string, std::string>>& params,
      std::string* body) {
    if (what == "requests") {
      obs::FlightRecorder::Filter filter;
      filter.client = QueryParam(params, "client");
      filter.lane = QueryParam(params, "lane");
      filter.outcome = QueryParam(params, "outcome");
      *body = DebugRequestsJson(ParseCount(QueryParam(params, "n"), 50),
                                filter);
      return true;
    }
    if (what == "trace") {
      *body = DebugTraceJson();
      return true;
    }
    if (what == "log") {
      *body = DebugLogJson(ParseCount(QueryParam(params, "n"), 100));
      return true;
    }
    return false;
  }

  void Dispatch(const std::shared_ptr<Conn>& conn, const std::string& payload,
                const char* method_override = nullptr,
                const char* client_override = nullptr) {
    Request request;
    request.conn = conn;
    request.req_id = next_request_id.fetch_add(1, std::memory_order_relaxed) + 1;
    request.arrival_ns = obs::NowNanos();
    request.transport = conn->http ? "http" : "unix";
    request.client = conn->client;
    inflight_gauge->Add(1.0);
    // A refused request is answered here, on the IO thread, with no
    // queue wait.
    auto refuse = [&](const std::string& message) {
      request.dequeue_ns = request.arrival_ns;
      Complete(request, ErrorResponse(request, message));
    };
    std::optional<JsonValue> body = ParseJson(payload);
    if (!body.has_value()) {
      if (client_override != nullptr) {
        request.client = SanitizeClient(client_override);
      }
      refuse("malformed JSON");
      return;
    }
    const JsonValue* method = body->Find("method");
    request.method = method == nullptr ? "" : method->StringOr("");
    if (method_override != nullptr) request.method = method_override;
    // Attribution priority: transport-verified header > self-declared
    // body field > connection default (peer uid / "anon").
    if (const JsonValue* c = body->Find("client")) {
      std::string declared = c->StringOr("");
      if (!declared.empty()) request.client = SanitizeClient(declared);
    }
    if (client_override != nullptr) {
      request.client = SanitizeClient(client_override);
    }
    const JsonValue* id = body->Find("id");
    std::string err;
    if (id != nullptr &&
        !IntegerField(*id, "id", 0, kMaxExactInteger, &request.id, &err)) {
      refuse(err);
      return;
    }
    bool parsed = ParseRequest(*body, options, &request, &err);
    request.op_key = request.op.name;
    if (!parsed) {
      refuse(err);
      return;
    }
    if (Route(request)) {
      std::lock_guard<std::mutex> lock(queue_mu);
      fast_queue.push_back(std::move(request));
      fast_cv.notify_one();
    } else {
      request.lane = "slow";
      std::lock_guard<std::mutex> lock(queue_mu);
      slow_queue.push_back(std::move(request));
      slow_cv.notify_one();
    }
  }

  // Finishes one request: latency histograms, completion-time counters,
  // queue-wait/lane spans and the access-log line, then the response
  // send — so a stats snapshot or scrape taken after the client sees the
  // reply always includes it, and in-flight work is visible as the gap
  // between serving.inflight and serving.requests.
  void Complete(Request& request, const std::string& payload) {
    int64_t end_ns = obs::NowNanos();
    bool fast = request.lane[0] == 'f';
    double queue_us =
        static_cast<double>(request.dequeue_ns - request.arrival_ns) / 1e3;
    double service_us =
        static_cast<double>(end_ns - request.dequeue_ns) / 1e3;
    LaneStats& lane = fast ? fast_stats : slow_stats;
    lane.queue_wait->Observe(queue_us);
    lane.service->Observe(service_us);
    lane.latency->Observe(queue_us + service_us);
    (fast ? fast_counter : slow_counter)->Increment();
    requests_counter->Increment();
    if (options.client_metrics) {
      ClientStats* client = ClientStatsFor(request.client);
      client->requests->Increment();
      if (request.outcome[0] == 'e') client->errors->Increment();
      client->bytes->Add(payload.size());
      (fast ? client->fast_latency : client->slow_latency)
          ->Observe(queue_us + service_us);
    }
    inflight_gauge->Add(-1.0);
    served.fetch_add(1, std::memory_order_relaxed);
    obs::RecordSpan("serving.queue_wait", "serving", request.arrival_ns,
                    request.dequeue_ns);
    obs::RecordSpan(fast ? "serving.request.fast" : "serving.request.slow",
                    "serving", request.arrival_ns, end_ns);
    if (flight != nullptr || access_log.is_open()) {
      obs::RequestRecord rec;
      rec.id = request.req_id;
      rec.client = request.client;
      rec.client_id = request.id;
      rec.method = request.method;
      rec.op_key = request.op_key;
      rec.lane = request.lane;
      rec.outcome = request.outcome;
      rec.transport = request.transport;
      rec.batch = request.batch;
      rec.arrival_ns = request.arrival_ns;
      rec.queue_us = queue_us;
      rec.service_us = service_us;
      rec.total_us = queue_us + service_us;
      if (access_log.is_open()) {
        // The access-log line is the flight record's JSON, byte for byte.
        std::string line = obs::RequestRecordJson(rec) + "\n";
        std::lock_guard<std::mutex> lock(access_log_mu);
        access_log << line;
        access_log.flush();
      }
      if (flight != nullptr) flight->Record(rec);
    }
    request.conn->Send(payload);
  }

  // Routing: anything that can be answered without compiling or
  // searching goes to the fast lane, carrying what its probe found. The
  // probes here are O(1) lookups, never a compile.
  bool Route(Request& request) {
    switch (request.kind) {
      case Method::kCompile: {
        sim::KernelTiming timing;
        if (!sim::ProbeCachedTiming(request.op, request.config, options.spec,
                                    schedule::InlineOrder::kAfterPipelining,
                                    &timing)) {
          return false;
        }
        request.timing = std::move(timing);
        request.outcome = "hit";
        return true;
      }
      case Method::kProfile:
        return false;
      case Method::kTune:
        if (request.force) return false;
        request.stored =
            tuner::TuningStore::Global().Get(tuner::OpKey(request.op));
        if (!request.stored.has_value()) return false;
        request.outcome = "stored";
        return true;
      default:
        return true;
    }
  }

  // ---------------------------------------------------------------------
  // Fast lane.
  // ---------------------------------------------------------------------

  void FastLoop() {
    while (true) {
      Request request;
      {
        std::unique_lock<std::mutex> lock(queue_mu);
        fast_cv.wait(lock, [&] {
          return stopping.load(std::memory_order_relaxed) ||
                 !fast_queue.empty();
        });
        if (fast_queue.empty()) return;  // stopping and drained
        request = std::move(fast_queue.front());
        fast_queue.pop_front();
      }
      request.dequeue_ns = obs::NowNanos();
      Complete(request, HandleFast(request));
      if (request.kind == Method::kShutdown) {
        RequestStop();
        return;
      }
    }
  }

  std::string HandleFast(Request& request) {
    switch (request.kind) {
      case Method::kPing:
        return Reply(request).Bool("pong", true).Object();
      case Method::kShutdown:
        return Reply(request).Bool("stopping", true).Object();
      case Method::kStats:
        return HandleStats(request);
      case Method::kDebug:
        return HandleDebug(request);
      case Method::kPersist:
      case Method::kLoad:
        return HandlePersist(request);
      case Method::kCompile:
        return TimingResponse(request, *request.timing);
      case Method::kTune:
        return StoredTuneResponse(request);
      case Method::kProfile:
        break;  // never routed here
    }
    return ErrorResponse(request, "profile runs on the slow lane");
  }

  // Socket-side mirror of GET /debug/*: {"method":"debug","what":...}
  // with the same optional n/client/lane/outcome parameters.
  std::string HandleDebug(Request& request) {
    std::string body;
    if (!HandleDebugQuery(request.debug_what, request.debug_params, &body)) {
      return ErrorResponse(request,
                           "unknown debug view \"" + request.debug_what + "\"");
    }
    return Reply(request)
        .Str("what", request.debug_what)
        .Raw("result", body)
        .Object();
  }

  // Per-lane latency comes from the request histograms, so the socket
  // `stats` method surfaces the same numbers an HTTP scraper computes
  // from the exposition buckets.
  std::string HandleStats(const Request& request) {
    sim::SimCacheStats stats = sim::GetSimCacheStats();
    return Reply(request)
        .Uint("timing_hits", stats.hits)
        .Uint("timing_misses", stats.misses)
        .Uint("timing_entries", stats.entries)
        .Uint("program_entries", stats.program_entries)
        .Uint("program_skeletons", stats.program_skeletons)
        .Uint("resident_bytes", stats.resident_bytes)
        .Uint("budget_bytes", stats.budget_bytes)
        .Uint("evictions", stats.evictions)
        .Uint("disk_hits", stats.disk_hits)
        .Uint("disk_misses", stats.disk_misses)
        .Uint("disk_load_bytes", stats.disk_load_bytes)
        .Uint("stored_tunings", tuner::TuningStore::Global().Size())
        .Uint("requests", served.load(std::memory_order_relaxed))
        .Num("inflight", inflight_gauge->Value())
        .Raw("latency",
             JsonObject()
                 .Raw("fast",
                      obs::LatencySummaryJson(fast_stats.latency->Data()))
                 .Raw("slow",
                      obs::LatencySummaryJson(slow_stats.latency->Data()))
                 .Object())
        .Object();
  }

  std::string HandlePersist(Request& request) {
    PersistStats stats = request.kind == Method::kPersist
                             ? SaveCache(request.path, options.spec)
                             : LoadCache(request.path, options.spec);
    if (!stats.ok) return ErrorResponse(request, stats.error);
    return Reply(request)
        .Str("path", request.path)
        .Append(PersistStatsJson(stats))
        .Object();
  }

  // Warm-restart tune: routing found a finished search for this exact
  // op_key in the store; answer from it in microseconds.
  static std::string StoredTuneResponse(Request& request) {
    const tuner::StoredTuning& stored = *request.stored;
    std::optional<tuner::StoredTrial> best = stored.Best();
    if (!best.has_value()) {
      return ErrorResponse(request, "stored tuning has no feasible trial");
    }
    return Reply(request)
        .Str("op_key", stored.op_key)
        .Str("source", "store")
        .Str("best_config", best->config.ToString())
        .Num("best_cycles", best->cycles)
        .Uint("trials", stored.trials.size())
        .Object();
  }

  // A compile or profile answer from its timing; `profile` adds the PMU
  // counters of one more replay of the (now cached) program.
  std::string TimingResponse(const Request& request,
                             const sim::KernelTiming& timing) {
    JsonObject out = Reply(request);
    AddTiming(&out, timing);
    if (request.kind == Method::kProfile && timing.feasible) {
      sim::KernelPmu pmu;
      sim::ReplayArena arena;
      sim::ReplaySimProgram(
          *sim::CachedSimProgram(request.op, request.config, options.spec),
          &arena, &pmu);
      out.Raw("pmu", sim::PmuToJson(pmu));
    }
    return out.Object();
  }

  // ---------------------------------------------------------------------
  // Slow lane: drain rounds.
  // ---------------------------------------------------------------------

  // Each wakeup drains the whole queue as one round (the `batch` field of
  // its requests, one `serving.batches` tick). Within a round, compiles
  // and profiles run before tunes, in arrival order, so a short request
  // queued beside a search is not held behind it. Every request is
  // answered as soon as its own work finishes; its queue wait runs until
  // the lane starts on it.
  void SlowLoop() {
    while (true) {
      std::vector<Request> round;
      {
        std::unique_lock<std::mutex> lock(queue_mu);
        slow_cv.wait(lock, [&] {
          return stopping.load(std::memory_order_relaxed) ||
                 !slow_queue.empty();
        });
        if (slow_queue.empty()) return;  // stopping and drained
        while (!slow_queue.empty()) {
          round.push_back(std::move(slow_queue.front()));
          slow_queue.pop_front();
        }
      }
      uint64_t batch_id =
          next_batch_id.fetch_add(1, std::memory_order_relaxed) + 1;
      batches_counter->Increment();
      int64_t round_start_ns = obs::NowNanos();
      std::stable_partition(round.begin(), round.end(), [](const Request& r) {
        return r.kind != Method::kTune;
      });
      for (Request& request : round) {
        request.batch = batch_id;
        request.dequeue_ns = obs::NowNanos();
        Complete(request, HandleSlow(request));
      }
      obs::RecordSpan("serving.batch", "serving", round_start_ns,
                      obs::NowNanos());
    }
  }

  // The slow lane holds compiles, profiles and tunes (see Route).
  std::string HandleSlow(Request& request) {
    if (request.kind == Method::kTune) {
      request.outcome = "search";
      return HandleTune(request);
    }
    // Probe again first: a compile ahead of this one may have warmed the
    // timing, and then the answer is still a hit.
    sim::KernelTiming timing;
    request.outcome = "hit";
    if (!sim::ProbeCachedTiming(request.op, request.config, options.spec,
                                schedule::InlineOrder::kAfterPipelining,
                                &timing)) {
      request.outcome = "compiled";
      timing =
          sim::CachedCompileAndSimulate(request.op, request.config, options.spec);
    }
    return TimingResponse(request, timing);
  }

  std::string HandleTune(Request& request) {
    const schedule::GemmOp& op = request.op;
    tuner::TuningTask task =
        tuner::MakeSimulatorTask(op, options.spec, options.space);
    if (task.space.empty()) {
      return ErrorResponse(request, "empty schedule space for op");
    }
    tuner::XgbOptions xgb;
    xgb.pretrain_with_analytical = true;
    xgb.seed = options.seed;
    tuner::WarmStart warm_start;
    if (request.warm) {
      warm_start = tuner::FindWarmStart(task, tuner::TuningStore::Global());
      xgb.warm_seeds = warm_start.seeds;
      if (!warm_start.seeds.empty()) {
        ServingCounter("serving.warm_starts").Increment();
      }
    }
    tuner::TuningResult result = tuner::XgbTuner(task, request.trials, xgb);
    tuner::StoreTuning(task, result, tuner::TuningStore::Global());
    size_t best = result.BestIndex(task);
    if (best >= task.space.size()) {
      return ErrorResponse(request, "no feasible schedule found");
    }
    return Reply(request)
        .Str("op_key", tuner::OpKey(op))
        .Str("source", "search")
        .Str("best_config", task.space[best].ToString())
        .Num("best_cycles", result.BestInFirstK(result.trials.size()))
        .Uint("trials", result.trials.size())
        .Str("warm_source", warm_start.source_op_key)
        .Uint("warm_seeds", warm_start.seeds.size())
        .Object();
  }

  // ---------------------------------------------------------------------
  // Lifecycle.
  // ---------------------------------------------------------------------

  // Resolves every serving.* metric once, attaching # HELP metadata at
  // the registration site; the request path then updates them lock-free.
  void RegisterMetrics() {
    obs::Registry& registry = obs::Registry::Global();
    auto lane = [&registry](const char* name) {
      LaneStats stats;
      std::string label = std::string("|lane=") + name;
      stats.latency = &registry.GetHistogram(
          "serving.request.latency.us" + label,
          "End-to-end request latency in microseconds (queue wait + "
          "service), by lane.");
      stats.queue_wait = &registry.GetHistogram(
          "serving.request.queue_wait.us" + label,
          "Time from dispatch to lane pickup in microseconds, by lane.");
      stats.service = &registry.GetHistogram(
          "serving.request.service.us" + label,
          "Handler time from lane pickup to response in microseconds, by "
          "lane.");
      return stats;
    };
    fast_stats = lane("fast");
    slow_stats = lane("slow");
    inflight_gauge = &registry.GetGauge(
        "serving.inflight",
        "Requests dispatched but not yet answered (both lanes).");
    requests_counter = &registry.GetCounter(
        "serving.requests", "Requests completed across both lanes.");
    fast_counter = &registry.GetCounter(
        "serving.fast_lane", "Requests completed on the fast lane.");
    slow_counter = &registry.GetCounter(
        "serving.slow_lane", "Requests completed on the slow lane.");
    batches_counter = &registry.GetCounter(
        "serving.batches", "Slow-lane drain rounds.");
    http_counter = &registry.GetCounter(
        "serving.http.requests",
        "HTTP requests parsed, including /metrics and /healthz.");
    http_bad_counter = &registry.GetCounter(
        "serving.http.bad_requests",
        "HTTP requests rejected with 400 (malformed or over limits).");
    registry.GetCounter("serving.warm_starts",
                        "Tune searches seeded from a stored neighbor.");
    watchdog_counter = &registry.GetCounter(
        "serving.watchdog.stalls",
        "Stalled-lane detections (oldest queued request older than the "
        "watchdog threshold; one per stall episode).");
    auto watch = [&registry](const char* name) {
      LaneWatch watch;
      std::string label = std::string("|lane=") + name;
      watch.depth = &registry.GetGauge(
          "serving.queue.depth" + label,
          "Requests waiting in the lane queue (watchdog heartbeat).");
      watch.age = &registry.GetGauge(
          "serving.queue.age.us" + label,
          "Age in microseconds of the oldest queued request (0 when the "
          "queue is empty; watchdog heartbeat).");
      return watch;
    };
    fast_watch = watch("fast");
    slow_watch = watch("slow");
    // Build identity as a constant-1 gauge whose labels carry the facts,
    // so every scrape and bench artifact is self-identifying.
    char fingerprint[24];
    std::snprintf(fingerprint, sizeof(fingerprint), "%016llx",
                  static_cast<unsigned long long>(
                      SpecFingerprint(options.spec)));
    registry
        .GetGauge(std::string("build.info|git_sha=") + ALCOP_GIT_SHA +
                      "|build_type=" + ALCOP_BUILD_TYPE +
                      "|spec_fingerprint=" + fingerprint,
                  "Build identity (value is always 1; the labels carry the "
                  "git SHA, build type and GPU spec fingerprint).")
        .Set(1.0);
  }

  void RequestStop() {
    if (stopping.exchange(true)) return;
    // Wake the poll loop and both lanes.
    if (wake_pipe[1] >= 0) {
      char byte = 'x';
      ssize_t ignored = ::write(wake_pipe[1], &byte, 1);
      (void)ignored;
    }
    fast_cv.notify_all();
    slow_cv.notify_all();
    std::lock_guard<std::mutex> lock(stop_mu);
    stop_cv.notify_all();
  }
};

Server::Server(ServerOptions options) : impl_(std::make_unique<Impl>()) {
  impl_->options = std::move(options);
  if (impl_->options.cache_path.empty()) {
    impl_->options.cache_path = DefaultCachePath();
  }
}

Server::~Server() { Stop(); }

bool Server::Start(std::string* error) {
  Impl& impl = *impl_;
  auto fail = [&](const std::string& message) {
    if (error != nullptr) *error = message;
    return false;
  };
  if (impl.started) return fail("already started");
  if (impl.options.socket_path.empty()) return fail("empty socket path");

  sockaddr_un addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sun_family = AF_UNIX;
  if (impl.options.socket_path.size() >= sizeof(addr.sun_path)) {
    return fail("socket path too long for AF_UNIX");
  }
  std::strncpy(addr.sun_path, impl.options.socket_path.c_str(),
               sizeof(addr.sun_path) - 1);

  // A dead peer mid-write must not kill the daemon.
  ::signal(SIGPIPE, SIG_IGN);

  impl.listen_fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (impl.listen_fd < 0) return fail("socket() failed");
  ::unlink(impl.options.socket_path.c_str());  // stale socket from a crash
  if (::bind(impl.listen_fd, reinterpret_cast<sockaddr*>(&addr),
             sizeof(addr)) < 0) {
    ::close(impl.listen_fd);
    impl.listen_fd = -1;
    return fail("bind(" + impl.options.socket_path + ") failed");
  }
  if (::listen(impl.listen_fd, 64) < 0) {
    ::close(impl.listen_fd);
    impl.listen_fd = -1;
    return fail("listen() failed");
  }
  if (::pipe(impl.wake_pipe) < 0) {
    ::close(impl.listen_fd);
    impl.listen_fd = -1;
    return fail("pipe() failed");
  }
  auto close_fds = [&impl] {
    ::close(impl.listen_fd);
    impl.listen_fd = -1;
    for (int& fd : impl.wake_pipe) {
      ::close(fd);
      fd = -1;
    }
    for (int& fd : impl.rescan_pipe) {
      if (fd >= 0) ::close(fd);
      fd = -1;
    }
    if (impl.http_listen_fd >= 0) {
      ::close(impl.http_listen_fd);
      impl.http_listen_fd = -1;
    }
  };
  if (::pipe(impl.rescan_pipe) < 0) {
    close_fds();
    return fail("pipe() failed");
  }

  // HTTP front end (loopback only): /metrics, /healthz, POST /v1/*.
  if (impl.options.http_port >= 0) {
    impl.http_listen_fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (impl.http_listen_fd < 0) {
      close_fds();
      return fail("http socket() failed");
    }
    int one = 1;
    ::setsockopt(impl.http_listen_fd, SOL_SOCKET, SO_REUSEADDR, &one,
                 sizeof(one));
    sockaddr_in http_addr;
    std::memset(&http_addr, 0, sizeof(http_addr));
    http_addr.sin_family = AF_INET;
    http_addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    http_addr.sin_port = htons(static_cast<uint16_t>(impl.options.http_port));
    if (::bind(impl.http_listen_fd, reinterpret_cast<sockaddr*>(&http_addr),
               sizeof(http_addr)) < 0 ||
        ::listen(impl.http_listen_fd, 64) < 0) {
      close_fds();
      return fail("http bind(127.0.0.1:" +
                  std::to_string(impl.options.http_port) + ") failed");
    }
    socklen_t addr_len = sizeof(http_addr);
    if (::getsockname(impl.http_listen_fd,
                      reinterpret_cast<sockaddr*>(&http_addr),
                      &addr_len) == 0) {
      impl.bound_http_port = ntohs(http_addr.sin_port);
    }
  }

  if (!impl.options.access_log_path.empty()) {
    impl.access_log.open(impl.options.access_log_path,
                         std::ios::out | std::ios::app);
    if (!impl.access_log.is_open()) {
      close_fds();
      return fail("cannot open access log " + impl.options.access_log_path);
    }
  }

  impl.RegisterMetrics();
  impl.start_ns = obs::NowNanos();
  if (impl.options.flight_depth > 0) {
    impl.flight =
        std::make_unique<obs::FlightRecorder>(impl.options.flight_depth);
  }
  // /debug/trace drains the span rings, so spans must be recorded while
  // the daemon runs; the previous switch state is restored at Stop.
  impl.prev_trace_enabled = obs::TraceEnabled();
  obs::SetTraceEnabled(true);

  // Warm-start the process from the persisted cache when one matches.
  if (!impl.options.cache_path.empty()) {
    PersistStats loaded = LoadCache(impl.options.cache_path,
                                    impl.options.spec);  // best-effort
    obs::Log(obs::LogLevel::kInfo, "serving", "cache load",
             JsonObject()
                 .Str("path", impl.options.cache_path)
                 .Bool("ok", loaded.ok)
                 .Uint("bytes", loaded.ok ? loaded.bytes : 0));
  }

  impl.io_thread = std::thread([&impl] { impl.IoLoop(); });
  impl.fast_thread = std::thread([&impl] { impl.FastLoop(); });
  impl.slow_thread = std::thread([&impl] { impl.SlowLoop(); });
  impl.started = true;
  obs::Log(obs::LogLevel::kInfo, "serving", "started",
           JsonObject()
               .Str("socket", impl.options.socket_path)
               .Int("http_port", impl.http_listen_fd >= 0
                                     ? impl.bound_http_port
                                     : -1)
               .Uint("flight_depth", impl.options.flight_depth)
               .Int("watchdog_stall_ms", impl.options.watchdog_stall_ms));
  return true;
}

void Server::Wait() {
  Impl& impl = *impl_;
  std::unique_lock<std::mutex> lock(impl.stop_mu);
  impl.stop_cv.wait(
      lock, [&impl] { return impl.stopping.load(std::memory_order_relaxed); });
}

void Server::Stop() {
  Impl& impl = *impl_;
  if (!impl.started) return;
  impl.RequestStop();
  if (impl.io_thread.joinable()) impl.io_thread.join();
  if (impl.fast_thread.joinable()) impl.fast_thread.join();
  if (impl.slow_thread.joinable()) impl.slow_thread.join();
  if (impl.listen_fd >= 0) {
    ::close(impl.listen_fd);
    impl.listen_fd = -1;
  }
  if (impl.http_listen_fd >= 0) {
    ::close(impl.http_listen_fd);
    impl.http_listen_fd = -1;
  }
  for (int& fd : impl.wake_pipe) {
    if (fd >= 0) {
      ::close(fd);
      fd = -1;
    }
  }
  for (int& fd : impl.rescan_pipe) {
    if (fd >= 0) {
      ::close(fd);
      fd = -1;
    }
  }
  if (impl.access_log.is_open()) impl.access_log.close();
  ::unlink(impl.options.socket_path.c_str());
  if (impl.options.persist_on_shutdown && !impl.options.cache_path.empty()) {
    PersistStats saved =
        SaveCache(impl.options.cache_path, impl.options.spec);  // best-effort
    obs::Log(obs::LogLevel::kInfo, "serving", "cache save",
             JsonObject()
                 .Str("path", impl.options.cache_path)
                 .Bool("ok", saved.ok)
                 .Uint("bytes", saved.ok ? saved.bytes : 0));
  }
  obs::SetTraceEnabled(impl.prev_trace_enabled);
  obs::Log(obs::LogLevel::kInfo, "serving", "stopped",
           JsonObject().Uint(
               "requests", impl.served.load(std::memory_order_relaxed)));
  impl.started = false;
}

const ServerOptions& Server::options() const { return impl_->options; }

uint64_t Server::requests_served() const {
  return impl_->served.load(std::memory_order_relaxed);
}

int Server::http_port() const {
  return impl_->http_listen_fd >= 0 ? impl_->bound_http_port : -1;
}

}  // namespace serving
}  // namespace alcop
