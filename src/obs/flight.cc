#include "obs/flight.h"

#include <algorithm>

#include "support/json.h"

namespace alcop {
namespace obs {

std::string RequestRecordJson(const RequestRecord& rec) {
  return support::JsonObject()
      .Uint("id", rec.id)
      .Str("client", rec.client)
      .Int("client_id", rec.client_id)
      .Str("method", rec.method)
      .Str("op_key", rec.op_key)
      .Str("lane", rec.lane)
      .Str("outcome", rec.outcome)
      .Str("transport", rec.transport)
      .Uint("batch", rec.batch)
      .Int("arrival_ns", rec.arrival_ns)
      .Num("queue_us", rec.queue_us)
      .Num("service_us", rec.service_us)
      .Num("total_us", rec.total_us)
      .Object();
}

FlightRecorder::FlightRecorder(size_t depth) : depth_(depth) {}

void FlightRecorder::Record(const RequestRecord& rec) {
  if (depth_ == 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  ring_.push_back(rec);
  while (ring_.size() > depth_) ring_.pop_front();
  ++total_;
}

std::vector<RequestRecord> FlightRecorder::Snapshot(
    size_t n, const Filter& filter) const {
  std::vector<RequestRecord> out;
  std::lock_guard<std::mutex> lock(mu_);
  for (auto it = ring_.rbegin(); it != ring_.rend() && out.size() < n; ++it) {
    if (!filter.client.empty() && it->client != filter.client) continue;
    if (!filter.lane.empty() && it->lane != filter.lane) continue;
    if (!filter.outcome.empty() && it->outcome != filter.outcome) continue;
    out.push_back(*it);
  }
  return out;
}

uint64_t FlightRecorder::total_recorded() const {
  std::lock_guard<std::mutex> lock(mu_);
  return total_;
}

void FlightRecorder::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  ring_.clear();
  total_ = 0;
}

std::vector<std::pair<std::string, double>> FlattenSnapshot(
    const std::vector<MetricSnapshot>& snapshot) {
  std::vector<std::pair<std::string, double>> out;
  out.reserve(snapshot.size());
  for (const MetricSnapshot& metric : snapshot) {
    if (metric.kind == MetricSnapshot::Kind::kHistogram) {
      out.emplace_back(metric.name + ".count",
                       static_cast<double>(metric.histogram.count));
      out.emplace_back(metric.name + ".sum", metric.histogram.sum);
    } else {
      out.emplace_back(metric.name, metric.value);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace obs
}  // namespace alcop
