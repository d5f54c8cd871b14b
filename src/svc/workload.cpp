#include "svc/workload.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <mutex>
#include <stdexcept>

namespace ooc::svc {
namespace {

/// The zipf CDF for (keySpace, theta): cum[k] = sum_{i<=k} 1/(i+1)^theta,
/// normalized; draws binary-search it with a uniform double. Every node of
/// every run with the same shape shares one immutable table. The cache is
/// locked (sweep workers build service runs concurrently) and keeps only
/// the few most recent shapes; a workload holds its table alive itself.
std::shared_ptr<const std::vector<double>> zipfCdf(std::uint32_t keySpace,
                                                   double theta) {
  struct Entry {
    std::uint32_t keySpace;
    std::uint64_t thetaBits;
    std::shared_ptr<const std::vector<double>> cdf;
  };
  constexpr std::size_t kMaxShapes = 4;
  static std::mutex mutex;
  static std::vector<Entry> cache;  // most recently built last

  const auto thetaBits = std::bit_cast<std::uint64_t>(theta);
  const std::lock_guard lock(mutex);
  for (const Entry& entry : cache)
    if (entry.keySpace == keySpace && entry.thetaBits == thetaBits)
      return entry.cdf;

  auto cdf = std::make_shared<std::vector<double>>(keySpace);
  double sum = 0.0;
  for (std::uint32_t k = 0; k < keySpace; ++k) {
    sum += 1.0 / std::pow(static_cast<double>(k) + 1.0, theta);
    (*cdf)[k] = sum;
  }
  for (double& c : *cdf) c /= sum;
  if (cache.size() == kMaxShapes) cache.erase(cache.begin());
  cache.push_back({keySpace, thetaBits, cdf});
  return cdf;
}

}  // namespace

void Workload::validate(const WorkloadOptions& options, std::size_t n) {
  if (n == 0) throw std::invalid_argument("workload: n must be positive");
  if (options.keySpace == 0)
    throw std::invalid_argument("workload: keySpace must be positive");
  if (options.thinkMax < options.thinkMin)
    throw std::invalid_argument("workload: thinkMax < thinkMin");
}

Workload::Workload(const WorkloadOptions& options, ProcessId node,
                   std::size_t n, std::uint64_t seed)
    : options_(options),
      rng_(Rng(seed).split(0x776Cull + node)) {
  validate(options_, n);
  // Clients are partitioned by home node; remainders go to the low ids.
  population_ = options_.clients / n +
                (node < options_.clients % n ? 1 : 0);
  zipfCdf_ = zipfCdf(options_.keySpace, options_.zipfTheta);

  const std::uint64_t cap = options_.commandsPerNode;
  if (options_.closedLoop) {
    // Initial wave: the population's first commands, spread evenly over
    // [1, startSpread] — truncated to the emission cap (with 10^6 clients
    // only the head of the wave fits, which is the point: the cap bounds
    // the schedule, the population sets the concurrency).
    const std::uint64_t wave = std::min<std::uint64_t>(population_, cap);
    const Tick spread = std::max<Tick>(1, options_.startSpread);
    for (std::uint64_t i = 0; i < wave; ++i) {
      const Tick at = 1 + (i * spread) / std::max<std::uint64_t>(wave, 1);
      ++calendar_[at];
    }
    planned_ = wave;
  } else {
    // Open loop: bucketed deterministic rate with optional bursts. The
    // whole calendar is laid out up front (bounded by the cap).
    double acc = 0.0;
    for (Tick t = 1; planned_ < cap && t < (1u << 20); ++t) {
      double rate = options_.arrivalsPerTick;
      if (options_.burstEvery > 0 &&
          t % options_.burstEvery < options_.burstLen) {
        rate *= options_.burstFactor;
      }
      acc += rate;
      while (acc >= 1.0 && planned_ < cap) {
        acc -= 1.0;
        ++calendar_[t];
        ++planned_;
      }
    }
  }
}

Tick Workload::nextArrivalTick(Tick now) const {
  const auto it = calendar_.upper_bound(now);
  return it == calendar_.end() ? 0 : it->first;
}

std::vector<Arrival> Workload::collect(Tick tick) {
  // Consume everything scheduled at or BEFORE `tick`: a crash purges the
  // node's armed arrival timer, so after a restart the next firing must
  // sweep up arrivals whose scheduled ticks passed during the downtime.
  std::vector<Arrival> arrivals;
  while (!calendar_.empty() && calendar_.begin()->first <= tick) {
    const auto it = calendar_.begin();
    for (std::uint32_t i = 0; i < it->second; ++i) {
      Arrival a;
      a.client = population_ == 0 ? 0 : rng_.below(population_);
      a.key = drawKey();
      ++keyCounts_[a.key];
      ++emitted_;
      arrivals.push_back(a);
    }
    calendar_.erase(it);
  }
  return arrivals;
}

void Workload::onCommit(Tick now) {
  if (!options_.closedLoop || planned_ >= cap()) return;
  const Tick think = static_cast<Tick>(
      rng_.between(static_cast<std::int64_t>(options_.thinkMin),
                   static_cast<std::int64_t>(options_.thinkMax)));
  ++calendar_[now + std::max<Tick>(1, think)];
  ++planned_;
}

std::uint32_t Workload::drawKey() {
  const std::vector<double>& cdf = *zipfCdf_;
  const double u = rng_.uniform01();
  const auto it = std::lower_bound(cdf.begin(), cdf.end(), u);
  return static_cast<std::uint32_t>(std::min<std::size_t>(
      static_cast<std::size_t>(it - cdf.begin()), cdf.size() - 1));
}

std::uint64_t Workload::hottestKeyHits() const {
  std::uint64_t best = 0;
  for (const auto& [key, count] : keyCounts_) best = std::max(best, count);
  return best;
}

}  // namespace ooc::svc
