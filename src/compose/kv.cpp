#include "compose/kv.hpp"

#include <charconv>
#include <stdexcept>

#include "obs/run_id.hpp"

namespace ooc::compose {

std::string configRunId(const std::string& serialized) {
  // Hash only the key=value payload: `#` comment lines (including a prior
  // stamp) are skipped, so hashing a stamped file reproduces the stamp.
  std::uint64_t hash = obs::kFnvOffsetBasis;
  std::istringstream in(serialized);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    hash = obs::fnv1a(line, hash);
    hash = obs::fnv1a("\n", hash);
  }
  return obs::toHex(hash);
}

std::string stampRunId(const std::string& body) {
  return "# run-id=" + configRunId(body) + "\n" + body;
}

KvReader::KvReader(const std::string& text) {
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    const auto eq = line.find('=');
    if (eq == std::string::npos)
      throw std::runtime_error("config: malformed line '" + line + "'");
    entries_[line.substr(0, eq)].values.push_back(line.substr(eq + 1));
  }
}

std::string KvReader::get(const std::string& key) const {
  const auto it = entries_.find(key);
  if (it == entries_.end())
    throw std::runtime_error("config: missing key '" + key + "'");
  it->second.read = true;
  if (it->second.values.size() > 1)
    throw std::runtime_error("config: repeated key '" + key + "'");
  return it->second.values.front();
}

const std::vector<std::string>& KvReader::getAll(const std::string& key) const {
  static const std::vector<std::string> kEmpty;
  const auto it = entries_.find(key);
  if (it == entries_.end()) return kEmpty;
  it->second.read = true;
  return it->second.values;
}

void KvReader::rejectUnreadKeys() const {
  for (const auto& [key, entry] : entries_) {
    if (!entry.read)
      throw std::runtime_error("config: unknown key '" + key + "'");
  }
}

namespace {

/// Whole-field std::from_chars: nullopt unless `field` is exactly one
/// number of type T.
template <typename T>
std::optional<T> parseWhole(std::string_view field) {
  T value{};
  const char* end = field.data() + field.size();
  const auto [ptr, ec] = std::from_chars(field.data(), end, value);
  if (field.empty() || ec != std::errc() || ptr != end) return std::nullopt;
  return value;
}

/// parseWhole for integers, restricted to the spelling the writer emits:
/// no leading zero and no "-0". from_chars accepts both, and a spelling the
/// writer would not reproduce changes the re-serialized run-id.
template <typename T>
std::optional<T> parseCanonical(std::string_view field) {
  const std::string_view digits =
      field.starts_with('-') ? field.substr(1) : field;
  if (digits.starts_with('0') && (digits.size() > 1 || digits != field))
    return std::nullopt;
  return parseWhole<T>(field);
}

[[noreturn]] void malformed(const std::string& key, const std::string& value) {
  throw std::runtime_error("config: malformed " + key + " '" + value + "'");
}

}  // namespace

std::uint64_t KvReader::getU64(const std::string& key,
                               std::uint64_t fallback) const {
  if (!has(key)) return fallback;
  const std::string value = get(key);
  const auto parsed = parseEntryU64(value);
  if (!parsed) malformed(key, value);
  return *parsed;
}

double KvReader::getDouble(const std::string& key, double fallback) const {
  if (!has(key)) return fallback;
  const std::string value = get(key);
  const auto parsed = parseWhole<double>(value);
  if (!parsed) malformed(key, value);
  return *parsed;
}

std::vector<Value> KvReader::getValues(const std::string& key) const {
  std::vector<Value> values;
  const std::string joined = get(key, "");
  std::string_view rest(joined);
  while (!rest.empty()) {
    const auto comma = rest.find(',');
    const auto value = parseCanonical<Value>(rest.substr(0, comma));
    if (!value) malformed(key, joined);
    values.push_back(*value);
    rest = comma == std::string_view::npos ? std::string_view()
                                           : rest.substr(comma + 1);
  }
  if (!joined.empty() && joined.back() == ',') malformed(key, joined);
  return values;
}

std::string crashEntry(const std::pair<ProcessId, Tick>& crash) {
  return std::to_string(crash.first) + "@" + std::to_string(crash.second);
}

std::optional<std::uint64_t> parseEntryU64(std::string_view field) {
  return parseCanonical<std::uint64_t>(field);
}

std::pair<ProcessId, Tick> parseCrash(const std::string& entry) {
  const std::string_view text(entry);
  const auto at = text.find('@');
  const auto id = parseEntryU64(text.substr(0, at));
  const auto tick = at == std::string_view::npos
                        ? std::nullopt
                        : parseEntryU64(text.substr(at + 1));
  if (!id || !tick || *id > std::numeric_limits<ProcessId>::max())
    throw std::runtime_error("config: malformed crash '" + entry + "'");
  return {static_cast<ProcessId>(*id), *tick};
}

std::string restartEntry(const RestartEvent& event) {
  return std::to_string(event.id) + "@" + std::to_string(event.at) + "+" +
         std::to_string(event.downtime);
}

RestartEvent parseRestart(const std::string& entry) {
  const std::string_view text(entry);
  const auto at = text.find('@');
  const auto plus = at == std::string_view::npos ? at : text.find('+', at);
  std::optional<std::uint64_t> id, tick, downtime;
  if (plus != std::string_view::npos) {
    id = parseEntryU64(text.substr(0, at));
    tick = parseEntryU64(text.substr(at + 1, plus - at - 1));
    downtime = parseEntryU64(text.substr(plus + 1));
  }
  if (!id || !tick || !downtime ||
      *id > std::numeric_limits<ProcessId>::max())
    throw std::runtime_error("config: malformed restart '" + entry + "'");
  return {static_cast<ProcessId>(*id), *tick, *downtime};
}

std::optional<std::string> unknownCrashProcess(
    const std::vector<std::pair<ProcessId, Tick>>& crashes,
    const std::vector<RestartEvent>& restarts, std::size_t n) {
  const auto diagnostic = [n](const std::string& kind,
                              const std::string& entry, ProcessId id) {
    return kind + " '" + entry + "' names process " + std::to_string(id) +
           ", but n=" + std::to_string(n);
  };
  for (const auto& crash : crashes) {
    if (crash.first >= n)
      return diagnostic("crash", crashEntry(crash), crash.first);
  }
  for (const RestartEvent& event : restarts) {
    if (event.id >= n)
      return diagnostic("restart", restartEntry(event), event.id);
  }
  return std::nullopt;
}

void putAdversary(KvWriter& kv, const AdversaryOptions& adversary) {
  kv.put("adversary-budget", adversary.extraDelayMax);
  kv.put("adversary-prob", adversary.perturbProbability);
  kv.put("adversary-seed", adversary.seed);
}

AdversaryOptions getAdversary(const KvReader& kv) {
  AdversaryOptions adversary;
  adversary.extraDelayMax = kv.getU64("adversary-budget", 0);
  adversary.perturbProbability = kv.getDouble("adversary-prob", 1.0);
  adversary.seed = kv.getU64("adversary-seed", 1);
  return adversary;
}

SchedulingPolicy getScheduler(const KvReader& kv) {
  const std::string name = kv.get("scheduler", "lockstep");
  const auto policy = parseSchedulingPolicy(name);
  if (!policy)
    throw std::runtime_error("unknown scheduler '" + name +
                             "'; known: lockstep, event-driven, ooo-driver");
  return *policy;
}

}  // namespace ooc::compose
