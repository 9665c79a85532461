// The three workloads, driven from one load-generator process against a
// fresh daemon per set-up:
//
//   hot_probe   closed loop, 3 callers (2 unix socket, 1 HTTP), compile
//               requests drawn from the warmed hot set;
//   tune        closed loop, 1 caller, cold tunes at the daemon's default
//               trial count;
//   mixed_open  open loop, a measured step at a fixed rate then a search
//               for the highest rate within the limits: ~85% hot probes,
//               cold compiles of never-seen shapes, one short tune.
//
// Every workload shares one set-up (daemon start, connect, warm the hot
// set), repeated kSetups times so setup_s is a median. The request classes
// a closed-loop workload's main stream lacks are sent as side samples (see
// RunWorkload), so its every run reports every end-to-end metric
// (README.md).
#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <thread>

#include "bench.h"
#include "obs/trace.h"
#include "serving/client.h"
#include "serving/http.h"
#include "serving/protocol.h"
#include "serving/server.h"
#include "target/gpu_spec.h"

namespace perfbench {

using alcop::obs::NowNanos;
using alcop::serving::JsonValue;

namespace {

constexpr int kSetups = 9;               // set-ups per untraced run
constexpr int kHotCallers = 3;           // 2 unix + 1 HTTP
constexpr double kWindowSeconds = 0.05;   // hot metrics: over windows
// Side samples (see RunWorkload).
constexpr size_t kSideColds = 120;             // p90 keeps 12 beyond it
constexpr double kHotShareOfSlice = 0.75;      // hot_probe: rest is side
constexpr double kTuneSliceHotSeconds = 0.1;   // tune: hot after each tune
constexpr size_t kColdsPerTune = 3;
constexpr double kDrainSeconds = 30.0;   // open loop: wait for stragglers

int ConnectUnix(const std::string& path) {
  int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_un addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

// Keep-alive HTTP/1.1 client for POST /v1/<method>: one connection for a
// caller's whole loop, so the HTTP path is timed without a TCP handshake
// per request (and without exhausting ephemeral ports).
class KeepAliveHttp {
 public:
  ~KeepAliveHttp() {
    if (fd_ >= 0) ::close(fd_);
  }
  bool Connect(int port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return false;
    sockaddr_in addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<uint16_t>(port));
    return ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) ==
           0;
  }
  std::optional<std::string> Post(const std::string& method,
                                  const std::string& body) {
    std::string request = "POST /v1/" + method +
                          " HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                          "Content-Type: application/json\r\nContent-Length: " +
                          std::to_string(body.size()) + "\r\n\r\n" + body;
    if (!alcop::serving::HttpWriteAll(fd_, request)) return std::nullopt;
    size_t head_end = std::string::npos;
    while ((head_end = buffer_.find("\r\n\r\n")) == std::string::npos) {
      if (!Fill()) return std::nullopt;
    }
    size_t length_pos = buffer_.find("Content-Length:");
    if (length_pos == std::string::npos || length_pos > head_end) {
      return std::nullopt;
    }
    size_t length = std::strtoull(buffer_.c_str() + length_pos + 15, nullptr,
                                  10);
    size_t total = head_end + 4 + length;
    while (buffer_.size() < total) {
      if (!Fill()) return std::nullopt;
    }
    std::string payload = buffer_.substr(head_end + 4, length);
    buffer_.erase(0, total);
    return payload;
  }

 private:
  bool Fill() {
    char chunk[65536];
    ssize_t n = ::read(fd_, chunk, sizeof(chunk));
    if (n <= 0) return false;
    buffer_.append(chunk, static_cast<size_t>(n));
    return true;
  }
  int fd_ = -1;
  std::string buffer_;
};

// One synchronous connection of either transport.
class Caller {
 public:
  bool Connect(const Daemon& daemon, int transport) {
    transport_ = transport;
    return transport == 0 ? unix_.Connect(daemon.socket_path())
                          : http_.Connect(daemon.http_port());
  }
  std::optional<std::string> Call(Kind kind, const std::string& body) {
    if (transport_ == 0) return unix_.CallRaw(body);
    return http_.Post(kind == Kind::kTune ? "tune" : "compile", body);
  }
  std::optional<std::string> CallRaw(const std::string& payload) {
    return unix_.CallRaw(payload);
  }
  int transport() const { return transport_; }

 private:
  int transport_ = 0;
  alcop::serving::Client unix_;
  KeepAliveHttp http_;
};

std::atomic<uint64_t> g_next_id{1};

// Fills the answer fields of `sent` from a response payload; false when
// the payload is not an ok:true answer of the expected shape.
bool ParseAnswer(const std::string& payload, Kind kind, Sent* sent) {
  sent->response_bytes = payload.size();
  std::optional<JsonValue> body = alcop::serving::ParseJson(payload);
  if (!body || body->kind != JsonValue::Kind::kObject) return false;
  const JsonValue* ok = body->Find("ok");
  if (ok == nullptr || !ok->BoolOr(false)) return false;
  if (kind == Kind::kTune) {
    const JsonValue* config = body->Find("best_config");
    const JsonValue* cycles = body->Find("best_cycles");
    if (config == nullptr || cycles == nullptr) return false;
    sent->best_config = config->StringOr("");
    sent->cycles = cycles->NumberOr(-1.0);
    sent->feasible = true;
    return true;
  }
  const JsonValue* feasible = body->Find("feasible");
  if (feasible == nullptr) return false;
  sent->feasible = feasible->BoolOr(false);
  if (!sent->feasible) return true;
  auto number = [&](const char* key) {
    const JsonValue* v = body->Find(key);
    return v == nullptr ? -1.0 : v->NumberOr(-1.0);
  };
  sent->cycles = number("cycles");
  sent->microseconds = number("microseconds");
  sent->tflops = number("tflops");
  sent->tbs_per_sm = static_cast<int64_t>(number("threadblocks_per_sm"));
  sent->batches = static_cast<int64_t>(number("batches"));
  return true;
}

// One closed-loop request: sends, times, parses, appends to run->sent.
Sent CallOnce(Caller* caller, const Run& run, size_t index, Phase phase) {
  Sent sent;
  sent.id = g_next_id.fetch_add(1);
  sent.request = index;
  sent.phase = phase;
  const Request& request = run.requests[index];
  std::string body = RequestJson(request, sent.id);
  int64_t start = NowNanos();
  std::optional<std::string> payload = caller->Call(request.kind, body);
  int64_t end = NowNanos();
  sent.times.due_ns = start;
  sent.times.sent_ns = start;
  if (payload) {
    sent.times.done_ns = end;
    sent.times.ok = ParseAnswer(*payload, run.requests[index].kind, &sent);
  }
  return sent;
}

// What one closed-loop hot caller measured.
struct HotCallerResult {
  std::vector<double> ms;
  std::vector<Sent> sent;
  uint64_t bytes = 0;
};

// Closed loop over the hot set until `deadline_ns`; every answer is kept
// for the oracle.
void HotCallerLoop(Caller* caller, const Run& run,
                   const std::vector<size_t>& hot, uint64_t seed,
                   int64_t deadline_ns, Phase phase, HotCallerResult* out) {
  SeededRng rng(seed);
  while (NowNanos() < deadline_ns) {
    size_t pick = rng.Below(hot.size());
    Sent sent = CallOnce(caller, run, hot[pick], phase);
    out->bytes += sent.response_bytes;
    out->ms.push_back(static_cast<double>(sent.times.done_ns -
                                          sent.times.sent_ns) /
                      1e6);
    if (sent.times.done_ns < 0) out->ms.back() = INFINITY;
    out->sent.push_back(std::move(sent));
  }
}

std::map<std::string, double> ScrapeMetrics(int port) {
  std::map<std::string, double> out;
  std::optional<alcop::serving::HttpResponse> scrape =
      alcop::serving::HttpCall(port, "GET", "/metrics");
  if (!scrape || scrape->status != 200) return out;
  std::istringstream lines(scrape->body);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.empty() || line[0] == '#' || line.find('{') != std::string::npos) {
      continue;
    }
    size_t space = line.find(' ');
    if (space == std::string::npos) continue;
    out[line.substr(0, space)] = std::strtod(line.c_str() + space + 1, nullptr);
  }
  return out;
}

}  // namespace

// CPU time the hypervisor gave to other guests, and all CPU time, in
// ticks since boot (/proc/stat); zeros where unavailable.
std::pair<uint64_t, uint64_t> StealAndTotalTicks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  uint64_t total = 0, steal = 0, value = 0;
  for (int field = 0; field < 10 && in >> value; ++field) {
    total += value;
    if (field == 7) steal = value;
  }
  return {steal, total};
}

// ---------------------------------------------------------------------------
// Daemon host.
// ---------------------------------------------------------------------------

Daemon::~Daemon() {
  if (pid_ > 0) {
    ::kill(pid_, SIGKILL);
    ::waitpid(pid_, nullptr, 0);
  }
}

bool Daemon::Start(const std::string& self, const std::string& socket_path,
                   const std::string& access_log) {
  socket_path_ = socket_path;
  int ready[2];
  if (::pipe(ready) < 0) return false;
  std::string ready_fd = std::to_string(ready[1]);
  std::vector<std::string> args = {self, "serve", "--socket", socket_path,
                                   "--ready-fd", ready_fd};
  if (!access_log.empty()) {
    args.push_back("--access-log");
    args.push_back(access_log);
  }
  pid_ = ::fork();
  if (pid_ < 0) return false;
  if (pid_ == 0) {
    // The daemon must not outlive a benchmark process that is killed.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    ::close(ready[0]);
    std::vector<char*> argv;
    for (std::string& arg : args) argv.push_back(arg.data());
    argv.push_back(nullptr);
    ::execv(self.c_str(), argv.data());
    ::_exit(127);
  }
  ::close(ready[1]);
  std::string line;
  pollfd pfd{ready[0], POLLIN, 0};
  int64_t deadline = NowNanos() + 60'000'000'000;
  while (line.find('\n') == std::string::npos && NowNanos() < deadline) {
    if (::poll(&pfd, 1, 1000) <= 0) continue;
    char buf[64];
    ssize_t n = ::read(ready[0], buf, sizeof(buf));
    if (n <= 0) break;
    line.append(buf, static_cast<size_t>(n));
  }
  ::close(ready[0]);
  if (line.find('\n') == std::string::npos) return false;
  http_port_ = std::atoi(line.c_str());
  return http_port_ > 0;
}

bool Daemon::Stop() {
  if (pid_ <= 0) return false;
  alcop::serving::Client client;
  bool asked = client.Connect(socket_path_) &&
               client.Call("{\"id\":0,\"method\":\"shutdown\"}").has_value();
  int status = 0;
  rusage usage;
  std::memset(&usage, 0, sizeof(usage));
  int64_t deadline = NowNanos() + (asked ? 30'000'000'000 : 0);
  pid_t done = 0;
  while ((done = ::wait4(pid_, &status, WNOHANG, &usage)) == 0 &&
         NowNanos() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  bool clean = done == pid_ && WIFEXITED(status) && WEXITSTATUS(status) == 0;
  if (done != pid_) {
    ::kill(pid_, SIGKILL);
    ::wait4(pid_, &status, 0, &usage);
  }
  peak_rss_mb_ = static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB
  pid_ = -1;
  return clean;
}

int ServeMain(int argc, char** argv) {
  alcop::serving::ServerOptions options;
  options.spec = alcop::target::AmpereSpec();
  options.persist_on_shutdown = false;
  options.http_port = 0;
  int ready_fd = -1;
  for (int i = 2; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    if (flag == "--socket") options.socket_path = argv[i + 1];
    if (flag == "--ready-fd") ready_fd = std::atoi(argv[i + 1]);
    if (flag == "--access-log") options.access_log_path = argv[i + 1];
  }
  ::unsetenv("ALCOP_CACHE_DIR");  // persistence off: no on-disk cache
  alcop::serving::Server server(options);
  std::string error;
  if (!server.Start(&error)) {
    std::fprintf(stderr, "perfbench serve: %s\n", error.c_str());
    return 1;
  }
  std::string line = std::to_string(server.http_port()) + "\n";
  if (ready_fd < 0 || ::write(ready_fd, line.data(), line.size()) !=
                          static_cast<ssize_t>(line.size())) {
    return 1;
  }
  ::close(ready_fd);
  server.Wait();
  server.Stop();
  return 0;
}

// ---------------------------------------------------------------------------
// Workloads.
// ---------------------------------------------------------------------------

namespace {

struct Session {
  std::unique_ptr<Daemon> daemon = std::make_unique<Daemon>();
  std::vector<std::unique_ptr<Caller>> callers;  // hot callers
};

// Set-up: start a daemon, connect the callers, warm every hot pair with
// one compile (a cold compile: these latencies are kept). Returns the
// set-up time in seconds, or a negative value on failure.
double SetUp(const Options& options, Run* run, size_t hot_count,
             int repetition, Session* session) {
  int64_t start = NowNanos();
  std::string socket = options.run_dir + "/d" + std::to_string(::getpid()) +
                       "_" + std::to_string(repetition) + ".sock";
  if (!session->daemon->Start(options.self, socket, run->access_log)) {
    return -1.0;
  }
  for (int i = 0; i < kHotCallers; ++i) {
    auto caller = std::make_unique<Caller>();
    if (!caller->Connect(*session->daemon, i == kHotCallers - 1 ? 1 : 0)) {
      return -1.0;
    }
    session->callers.push_back(std::move(caller));
  }
  for (size_t i = 0; i < hot_count; ++i) {
    run->sent.push_back(
        CallOnce(session->callers[0].get(), *run, i, Phase::kSetup));
  }
  return static_cast<double>(NowNanos() - start) / 1e9;
}

// Closed-loop hot probes from every caller for `seconds`, in windows of
// kWindowSeconds; appends the latencies to run->hot_ms[transport] and one
// summary per window to run->hot_windows.
void HotBurst(const Options& options, Session* session, Run* run,
              size_t hot_count, double seconds, Phase phase) {
  std::vector<size_t> hot(hot_count);
  for (size_t i = 0; i < hot_count; ++i) hot[i] = i;
  int windows = std::max(1, static_cast<int>(seconds / kWindowSeconds + 0.5));
  for (int w = 0; w < windows; ++w) {
    std::vector<HotCallerResult> results(session->callers.size());
    std::vector<std::thread> threads;
    int64_t start = NowNanos();
    int64_t deadline = start + static_cast<int64_t>(kWindowSeconds * 1e9);
    for (size_t c = 0; c < session->callers.size(); ++c) {
      threads.emplace_back([&, c] {
        HotCallerLoop(session->callers[c].get(), *run, hot,
                      options.seed * 1000003 + w * 31 + c + 1, deadline, phase,
                      &results[c]);
      });
    }
    for (std::thread& t : threads) t.join();
    double elapsed = static_cast<double>(NowNanos() - start) / 1e9;
    std::vector<double> window_ms;
    for (size_t c = 0; c < results.size(); ++c) {
      int transport = session->callers[c]->transport();
      std::vector<double>& ms = run->hot_ms[transport];
      ms.insert(ms.end(), results[c].ms.begin(), results[c].ms.end());
      window_ms.insert(window_ms.end(), results[c].ms.begin(),
                       results[c].ms.end());
      run->hot_bytes += results[c].bytes;
      for (Sent& sent : results[c].sent) {
        run->sent.push_back(std::move(sent));
      }
    }
    run->hot_windows.push_back(
        {Quantile(window_ms, 0.5), Quantile(window_ms, 0.99),
         static_cast<double>(window_ms.size()) / elapsed});
  }
}

// The open loop, step by step: one sender (this thread) writes each
// request at its due time on one of kConnections connections, round
// robin; one receiver thread polls all of them. The measured step runs at
// plan.measure_rps; each search step at the rate the search picks, once
// the step before it has drained. Latency runs from the due time.
constexpr int kConnections = 4;

void OpenLoop(Session* session, Run* run, const MixedPlan& plan,
              const std::vector<Arrival>& schedule,
              const std::vector<size_t>& request_index) {
  int fds[kConnections];
  for (int& fd : fds) fd = ConnectUnix(session->daemon->socket_path());
  size_t base = run->sent.size();
  uint64_t first_id = g_next_id.fetch_add(schedule.size());
  size_t steps = schedule.empty() ? 0 : schedule.back().step + 1;
  std::vector<size_t> step_begin(steps + 1, schedule.size());
  for (size_t i = schedule.size(); i-- > 0;) step_begin[schedule[i].step] = i;
  for (size_t i = 0; i < schedule.size(); ++i) {
    Sent sent;
    sent.id = first_id + i;
    sent.request = request_index[i];
    sent.phase = Phase::kMain;
    sent.step = static_cast<int>(schedule[i].step);
    run->sent.push_back(sent);
  }
  Sent* records = run->sent.data() + base;
  std::atomic<uint64_t> sent_count{0};
  std::atomic<uint64_t> answered{0};
  std::atomic<bool> sending_done{false};
  // Sleep with 1 us timer slack (the default 50 us would show up as
  // generator lag on every request).
  ::prctl(PR_SET_TIMERSLACK, 1000UL, 0UL, 0UL, 0UL);
  const int64_t t0 = NowNanos();
  auto now = [&] { return NowNanos() - t0; };
  std::thread receiver([&] {
    pollfd pfds[kConnections];
    for (int c = 0; c < kConnections; ++c) pfds[c] = {fds[c], POLLIN, 0};
    int64_t drain_deadline = -1;
    while (true) {
      if (sending_done.load()) {
        if (answered.load() >= sent_count.load()) break;
        if (drain_deadline < 0) {
          drain_deadline =
              NowNanos() + static_cast<int64_t>(kDrainSeconds * 1e9);
        }
        if (NowNanos() > drain_deadline) break;
      }
      if (::poll(pfds, kConnections, 50) <= 0) continue;
      for (int c = 0; c < kConnections; ++c) {
        if ((pfds[c].revents & POLLIN) == 0) continue;
        std::string payload;
        if (!alcop::serving::ReadFrame(fds[c], &payload)) {
          pfds[c].fd = -1;  // connection lost: its requests stay unanswered
          continue;
        }
        int64_t done = now();
        const char* id_pos = std::strstr(payload.c_str(), "\"id\":");
        uint64_t id = id_pos == nullptr ? 0 : std::strtoull(id_pos + 5,
                                                            nullptr, 10);
        if (id < first_id || id >= first_id + schedule.size()) continue;
        Sent& sent = records[id - first_id];
        sent.times.done_ns = done;
        sent.times.ok = ParseAnswer(
            payload, run->requests[sent.request].kind, &sent);
        answered.fetch_add(1);
      }
    }
  });
  auto sleep_until = [&](int64_t due) {
    int64_t wait = due - now();
    if (wait > 0) std::this_thread::sleep_for(std::chrono::nanoseconds(wait));
  };
  RateSearch search(plan.search_low_rps, plan.search_high_rps);
  run->steps.assign(steps, StepOutcome{});
  run->lag_ms.clear();
  for (size_t s = 0; s < steps; ++s) {
    StepOutcome& step = run->steps[s];
    size_t begin = step_begin[s], end = step_begin[s + 1];
    double rate = s == 0 ? plan.measure_rps : search.Next();
    double span_ns = static_cast<double>(end - begin) / rate * 1e9;
    int64_t start = now() + 2'000'000;
    int64_t mid = start + static_cast<int64_t>(span_ns / 2);
    bool mid_taken = false;
    for (size_t i = begin; i < end; ++i) {
      Sent& sent = records[i];
      sent.times.due_ns =
          start + static_cast<int64_t>(schedule[i].position * span_ns);
      if (!mid_taken && sent.times.due_ns >= mid) {
        sleep_until(mid);
        step.backlog_mid = sent_count.load() - answered.load();
        mid_taken = true;
      }
      sleep_until(sent.times.due_ns);
      sent.times.sent_ns = now();
      std::string body = RequestJson(run->requests[sent.request], sent.id);
      if (alcop::serving::WriteFrame(fds[i % kConnections], body)) {
        sent_count.fetch_add(1);
      }
    }
    sleep_until(start + static_cast<int64_t>(span_ns));
    step.backlog_end = sent_count.load() - answered.load();
    step.requests = end - begin;
    // The rate the seeded positions realised.
    double first = schedule[begin].position, last = schedule[end - 1].position;
    step.offered_rps = last > first ? static_cast<double>(end - begin - 1) /
                                          ((last - first) * span_ns / 1e9)
                                    : rate;
    for (size_t i = begin; i < end; ++i) {
      run->lag_ms.push_back(GeneratorLagMs(records[i].times));
    }
    // Drain before the next step, so it starts from an empty queue.
    int64_t drain_deadline = now() + static_cast<int64_t>(kDrainSeconds * 1e9);
    while (answered.load() < sent_count.load() && now() < drain_deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    if (s == 0) continue;
    StepOutcome verdict = step;
    for (size_t i = begin; i < end; ++i) {
      Kind kind = run->requests[records[i].request].kind;
      double ms = LatencyFromDueMs(records[i].times);
      if (kind == Kind::kHot) verdict.hot_ms.push_back(ms);
      if (kind == Kind::kCold) verdict.cold_ms.push_back(ms);
    }
    search.Record(rate, StepMeetsSlo(verdict, SloLimits{}));
  }
  sending_done.store(true);
  receiver.join();
  for (int fd : fds) {
    if (fd >= 0) ::close(fd);
  }
}

}  // namespace

bool RunWorkload(const Options& options, Run* run) {
  std::vector<Request> hot = HotSet();
  run->requests = hot;
  const size_t hot_count = hot.size();
  bool tune_main = options.workload == "tune";
  bool mixed = options.workload == "mixed_open";

  // The workload's inputs, appended after the hot set: tunes (the main
  // stream of `tune`; on hot_probe the Fig. 10 operators in a fixed order
  // as side samples, so tune_p50_s compares like with like across seeds),
  // side cold compiles, and mixed_open's schedule (no side samples).
  size_t tune_first = run->requests.size();
  std::vector<Request> tunes =
      tune_main ? TuneSequence(options.seed, SIZE_MAX, 0)
      : mixed   ? std::vector<Request>{}
                : TuneSequence(0, 12, 0);
  run->requests.insert(run->requests.end(), tunes.begin(), tunes.end());
  size_t tune_end = run->requests.size();
  size_t cold_first = tune_end;
  std::vector<Request> colds =
      ColdCompiles(options.seed, mixed ? 0 : kSideColds);
  run->requests.insert(run->requests.end(), colds.begin(), colds.end());
  size_t cold_end = run->requests.size();
  std::vector<Arrival> schedule;
  std::vector<size_t> schedule_index;
  MixedPlan plan;
  if (mixed) {
    plan.measure_seconds = 0.5 * options.seconds;
    schedule = MixedSchedule(options.seed, plan, hot);
    for (const Arrival& arrival : schedule) {
      if (arrival.request.kind == Kind::kHot) {
        schedule_index.push_back(arrival.hot_index);
      } else {
        schedule_index.push_back(run->requests.size());
        run->requests.push_back(arrival.request);
      }
    }
  }
  for (size_t i = 0; i < run->requests.size(); ++i) {
    run->input_list.push_back(RequestJson(run->requests[i], 0));
  }
  for (size_t i = 0; i < schedule.size(); ++i) {
    char arrival[64];
    std::snprintf(arrival, sizeof(arrival), "%zu %.17g %zu", schedule[i].step,
                  schedule[i].position, schedule_index[i]);
    run->input_list.push_back(arrival);
  }

  // Set-ups: all but the last daemon are stopped straight away.
  Session session;
  int setups = options.trace ? 1 : kSetups;
  for (int rep = 0; rep < setups; ++rep) {
    Session attempt;
    double seconds = SetUp(options, run, hot_count, rep, &attempt);
    if (seconds < 0.0) return false;
    run->setup_s.push_back(seconds);
    if (rep + 1 < setups) {
      attempt.callers.clear();
      if (!attempt.daemon->Stop()) return false;
      continue;
    }
    session = std::move(attempt);
  }

  // Side samples: the request classes a closed-loop workload's main
  // section lacks, sent in closed loop by one caller while the main
  // section pauses. Spread over the run, a few seconds of interference
  // from other guests on a shared host land on a few of them, not on all.
  size_t next_tune = tune_first;
  size_t next_cold = cold_first;
  Caller* caller = session.callers[0].get();
  auto side_tunes = [&](size_t n, Phase phase) {
    for (; n > 0 && next_tune < tune_end; --n) {
      run->sent.push_back(CallOnce(caller, *run, next_tune++, phase));
    }
  };
  auto side_colds = [&](size_t n) {
    for (; n > 0 && next_cold < cold_end; --n) {
      run->sent.push_back(CallOnce(caller, *run, next_cold++, Phase::kSide));
    }
  };
  auto [steal_before, total_before] = StealAndTotalTicks();
  if (tune_main) {
    // Each tune is followed by a short hot burst and a few cold compiles.
    int64_t deadline = NowNanos() + static_cast<int64_t>(options.seconds * 1e9);
    while (NowNanos() < deadline && next_tune < tune_end) {
      side_tunes(1, Phase::kMain);
      HotBurst(options, &session, run, hot_count, kTuneSliceHotSeconds,
               Phase::kSide);
      side_colds(kColdsPerTune);
    }
    side_colds(kSideColds);  // the rest, so every run has all of them
  } else if (mixed) {
    OpenLoop(&session, run, plan, schedule, schedule_index);
  } else {
    // hot_probe: the main loop in slices, each followed by one tune and a
    // few colds.
    size_t slices = tune_end - tune_first;
    for (size_t i = 0; i < slices; ++i) {
      HotBurst(options, &session, run, hot_count,
               kHotShareOfSlice * options.seconds /
                   static_cast<double>(slices),
               Phase::kMain);
      side_tunes(1, Phase::kSide);
      side_colds(kSideColds / slices);
    }
  }
  auto [steal_after, total_after] = StealAndTotalTicks();
  if (total_after > total_before) {
    run->steal_frac = static_cast<double>(steal_after - steal_before) /
                      static_cast<double>(total_after - total_before);
  }
  run->daemon_metrics = ScrapeMetrics(session.daemon->http_port());
  if (options.trace) {
    for (int i = 0; i < 2000; ++i) {
      int64_t t = NowNanos();
      std::optional<std::string> pong = session.callers[0]->CallRaw(
          "{\"id\":" + std::to_string(g_next_id.fetch_add(1)) +
          ",\"method\":\"ping\"}");
      if (!pong) break;
      run->ping_us.push_back(static_cast<double>(NowNanos() - t) / 1e3);
    }
  }
  session.callers.clear();
  bool clean = session.daemon->Stop();
  run->peak_rss_mb = session.daemon->peak_rss_mb();
  return clean;
}

}  // namespace perfbench
