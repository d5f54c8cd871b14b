#include "spans.hpp"

#include <algorithm>
#include <cstdlib>
#include <stdexcept>

#include "obs/json.hpp"

namespace perfbench {

std::uint32_t SpanRecorder::intern(const std::string& name) {
  const auto [it, inserted] =
      nameIndex_.emplace(name, static_cast<std::uint32_t>(names_.size()));
  if (inserted) names_.push_back(name);
  return it->second;
}

std::uint32_t SpanRecorder::open(const std::string& name, std::uint64_t op) {
  Span span;
  span.name = intern(name);
  span.parent = stack_.empty() ? kNoParent : stack_.back();
  span.op = op;
  span.start = nowNs();
  const auto index = static_cast<std::uint32_t>(spans_.size());
  spans_.push_back(span);
  stack_.push_back(index);
  return index;
}

void SpanRecorder::close(std::uint32_t index) {
  if (stack_.empty() || stack_.back() != index)
    throw std::logic_error("perfbench: spans closed out of order");
  stack_.pop_back();
  Span& span = spans_[index];
  span.end = nowNs();
  if (span.parent != kNoParent)
    spans_[span.parent].childNs += span.end - span.start;
}

std::map<std::string, SpanRecorder::Total> SpanRecorder::totals() const {
  std::map<std::string, Total> out;
  for (const Span& span : spans_) {
    if (span.end == 0) continue;
    Total& total = out[names_[span.name]];
    ++total.count;
    total.totalNs += span.end - span.start;
    total.selfNs += span.end - span.start - span.childNs;
  }
  return out;
}

std::string SpanRecorder::toPerfettoJson() const {
  // The trace file is a sample for inspection; totals() covers every span.
  constexpr std::size_t kMaxWritten = 20000;
  const std::int64_t origin = spans_.empty() ? 0 : spans_.front().start;
  ooc::obs::JsonWriter json;
  json.beginObject();
  json.key("displayTimeUnit").value("ns");
  json.key("otherData").beginObject();
  json.key("spans_recorded").value(static_cast<std::uint64_t>(spans_.size()));
  json.key("spans_written")
      .value(static_cast<std::uint64_t>(std::min(spans_.size(), kMaxWritten)));
  json.endObject();
  json.key("traceEvents").beginArray();
  for (std::size_t i = 0; i < spans_.size() && i < kMaxWritten; ++i) {
    const Span& span = spans_[i];
    if (span.end == 0) continue;
    json.beginObject();
    json.key("name").value(names_[span.name]);
    json.key("cat").value("perfbench");
    json.key("ph").value("X");
    json.key("ts").value(static_cast<double>(span.start - origin) / 1000.0);
    json.key("dur").value(static_cast<double>(span.end - span.start) / 1000.0);
    json.key("pid").value(1);
    json.key("tid").value(1);
    json.key("args").beginObject();
    json.key("op").value(span.op);
    json.key("span").value(static_cast<std::uint64_t>(i));
    if (span.parent != kNoParent)
      json.key("parent").value(static_cast<std::uint64_t>(span.parent));
    json.key("self_us")
        .value(static_cast<double>(span.end - span.start - span.childNs) /
               1000.0);
    json.endObject();
    json.endObject();
  }
  json.endArray();
  json.endObject();
  return json.str();
}

// --- SimProbe ----------------------------------------------------------------

void SimProbe::beginRun() {
  openKind_ = -1;
  index_ = 0;
  pendingDeliver_ = false;
  lastRestart_.clear();
  down_.clear();
}

void SimProbe::endRun() { openKind_ = -1; }

void SimProbe::onEvent(const ooc::TraceEvent& event) {
  using Kind = ooc::TraceEvent::Kind;
  const int kind = static_cast<int>(event.kind);
  ++counts_[kind];
  if (event.kind != Kind::kDecision) {
    const std::int64_t now = nowNs();
    if (openKind_ >= 0) {
      intervalNs_[openKind_] += now - openStart_;
      ++intervals_[openKind_];
    }
    openKind_ = kind;
    openStart_ = now;
  }
  const auto grow = [this](ooc::ProcessId id) {
    if (id >= lastRestart_.size()) {
      lastRestart_.resize(id + 1, ~std::uint64_t{0});
      down_.resize(id + 1, false);
    }
  };
  switch (event.kind) {
    case Kind::kTimer:
      if (event.a == ooc::kNoTraceProcess) ++cancelledTimers_;
      break;
    case Kind::kCrash:
      grow(event.a);
      down_[event.a] = true;
      break;
    case Kind::kRestart:
      grow(event.a);
      down_[event.a] = false;
      lastRestart_[event.a] = index_;
      break;
    case Kind::kDeliver:
      pendingDeliver_ = true;
      pendingReceiver_ = event.a;
      break;
    default:
      break;
  }
  ++index_;
}

void SimProbe::onCausal(const ooc::CausalStamp& stamp) {
  if (stamp.index + 1 != index_) ++desyncs_;
  if (!pendingDeliver_) return;
  pendingDeliver_ = false;
  const ooc::ProcessId to = pendingReceiver_;
  if (to >= lastRestart_.size() || down_[to]) return;
  const std::uint64_t restart = lastRestart_[to];
  if (restart != ~std::uint64_t{0} && stamp.cause != ooc::kNoCausalParent &&
      restart > stamp.cause)
    ++stale_;
}

std::uint64_t SimProbe::events() const noexcept {
  std::uint64_t total = 0;
  for (int k = 0; k < kKinds; ++k)
    if (k != static_cast<int>(ooc::TraceEvent::Kind::kDecision))
      total += counts_[k];
  return total;
}

double SimProbe::meanIntervalNs(ooc::TraceEvent::Kind kind) const noexcept {
  const int k = static_cast<int>(kind);
  return intervals_[k] == 0 ? 0.0
                            : static_cast<double>(intervalNs_[k]) /
                                  static_cast<double>(intervals_[k]);
}

// --- registry snapshot -------------------------------------------------------

namespace {

/// Reads the number following `"key":` at or after `from`.
double numberAfter(const std::string& json, const std::string& key,
                   std::size_t from, std::size_t limit) {
  const std::string needle = "\"" + key + "\":";
  const std::size_t at = json.find(needle, from);
  if (at == std::string::npos || at >= limit)
    throw std::runtime_error("perfbench: registry snapshot lacks " + key);
  return std::strtod(json.c_str() + at + needle.size(), nullptr);
}

}  // namespace

RegistryTotals parseRegistry(const std::string& json) {
  // Snapshot layout (obs/metrics.cpp): {"counters":[{"name":..,"labels":
  // {..},"value":N},..],"gauges":[..],"histograms":[{"name":..,"labels":
  // {..},"count":C,"sum":S,..},..],"dropped_series":D}. Label values are
  // plain identifiers, so scanning for the next key is unambiguous.
  RegistryTotals out;
  const std::size_t gauges = json.find("\"gauges\":");
  const std::size_t histograms = json.find("\"histograms\":");
  if (gauges == std::string::npos || histograms == std::string::npos)
    throw std::runtime_error("perfbench: unexpected registry snapshot");
  const std::string nameKey = "{\"name\":\"";
  for (std::size_t at = json.find(nameKey); at != std::string::npos;
       at = json.find(nameKey, at + 1)) {
    const std::size_t nameStart = at + nameKey.size();
    const std::string name =
        json.substr(nameStart, json.find('"', nameStart) - nameStart);
    const std::size_t next = json.find(nameKey, at + 1);
    const std::size_t limit = next == std::string::npos ? json.size() : next;
    if (at < gauges) {
      out.counters[name] += numberAfter(json, "value", nameStart, limit);
    } else if (at > histograms) {
      auto& [count, sum] = out.histograms[name];
      count += numberAfter(json, "count", nameStart, limit);
      sum += numberAfter(json, "sum", nameStart, limit);
    }
  }
  return out;
}

double RegistryTotals::counter(const std::string& name) const {
  const auto it = counters.find(name);
  return it == counters.end() ? 0.0 : it->second;
}

double RegistryTotals::histogramSum(const std::string& name) const {
  const auto it = histograms.find(name);
  return it == histograms.end() ? 0.0 : it->second.second;
}

double RegistryTotals::histogramCount(const std::string& name) const {
  const auto it = histograms.find(name);
  return it == histograms.end() ? 0.0 : it->second.first;
}

}  // namespace perfbench
