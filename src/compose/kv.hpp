// The key=value wire format shared by every serializable configuration
// (compositions, Raft and svc scenario configs, counterexample files): one
// `key=value` pair per line, repeated keys for lists of structured entries
// (crash=pid@tick, restart=pid@tick+downtime). Parsing is strict —
// malformed lines, unknown keys and repeated singular keys throw — because
// a counterexample that silently loses a field reproduces nothing.
//
// The composition layer, the Raft serializer (src/harness/) and the svc
// serializer share one writer/reader and one run-id rule.
#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <map>
#include <utility>
#include <vector>

#include "compose/hooks.hpp"
#include "core/scheduling.hpp"
#include "util/types.hpp"

namespace ooc::compose {

/// Deterministic run identifier for a serialized configuration: a 64-bit
/// FNV-1a hash of the key=value body (which includes the seed), rendered as
/// 16 lowercase hex characters. The same (config, seed) always maps to the
/// same id, so counterexample files, BENCH_*.json metrics and trace_view
/// output can be correlated. Stamp lines (`# run-id=...`) are excluded from
/// the hash, making the id stable under re-serialization.
std::string configRunId(const std::string& serialized);

/// Prepends the deterministic `# run-id=<hex>` stamp line to a serialized
/// config body; parsers (old and new) skip `#` comments, so stamped files
/// remain backward and forward compatible.
std::string stampRunId(const std::string& body);

class KvWriter {
 public:
  void put(const std::string& key, const std::string& value) {
    os_ << key << '=' << value << '\n';
  }
  void put(const std::string& key, std::uint64_t value) {
    put(key, std::to_string(value));
  }
  void put(const std::string& key, double value) {
    std::ostringstream os;
    os.precision(std::numeric_limits<double>::max_digits10);
    os << value;
    put(key, os.str());
  }
  void putValues(const std::string& key, const std::vector<Value>& values) {
    std::ostringstream os;
    for (std::size_t i = 0; i < values.size(); ++i) {
      if (i > 0) os << ',';
      os << values[i];
    }
    put(key, os.str());
  }

  std::string str() const { return os_.str(); }

 private:
  std::ostringstream os_;
};

class KvReader {
 public:
  explicit KvReader(const std::string& text);

  bool has(const std::string& key) const { return entries_.contains(key); }

  /// Every getter marks its key read. The singular getters (all but
  /// getAll) throw std::runtime_error when the key appears more than once.
  std::string get(const std::string& key) const;
  std::string get(const std::string& key, const std::string& fallback) const {
    return has(key) ? get(key) : fallback;
  }
  /// The numeric getters read the whole field: an unsigned decimal for
  /// getU64 (no sign), a decimal or exponent form for getDouble, and
  /// comma-separated signed integers for getValues. Integers must be
  /// spelled as the writer spells them: no leading zero, no "-0".
  /// Anything else — a sign where none belongs, trailing characters,
  /// overflow, an empty list item — throws std::runtime_error naming the
  /// key and the value.
  std::uint64_t getU64(const std::string& key, std::uint64_t fallback) const;
  double getDouble(const std::string& key, double fallback) const;
  const std::vector<std::string>& getAll(const std::string& key) const;
  std::vector<Value> getValues(const std::string& key) const;

  /// Ends a parse: throws std::runtime_error naming a key no getter read,
  /// so a mistyped or retired key fails the load instead of silently
  /// leaving its field at the default.
  void rejectUnreadKeys() const;

 private:
  struct Entry {
    std::vector<std::string> values;
    mutable bool read = false;
  };
  std::map<std::string, Entry> entries_;
};

/// A whole field of a structured entry as an unsigned decimal; nullopt
/// when it is empty, has a sign, a leading zero, a non-digit or trailing
/// characters, or overflows 64 bits.
std::optional<std::uint64_t> parseEntryU64(std::string_view field);

/// `pid@tick` crash-schedule entries. parseCrash throws std::runtime_error
/// naming the entry on any malformed field.
std::string crashEntry(const std::pair<ProcessId, Tick>& crash);
std::pair<ProcessId, Tick> parseCrash(const std::string& entry);

/// Crash-restart timeline entry, shared by the Raft and svc scenario
/// specs: process `id` crashes at `at` (losing volatile state and any
/// unsynced journal writes) and rejoins after `downtime` ticks with a fresh
/// incarnation. On the wire: `pid@tick+downtime`; parseRestart throws
/// std::runtime_error naming the entry on any malformed field.
struct RestartEvent {
  ProcessId id = 0;
  Tick at = 0;
  Tick downtime = 50;
};
std::string restartEntry(const RestartEvent& event);
RestartEvent parseRestart(const std::string& entry);

/// Diagnostic naming the first crash entry, then the first restart entry,
/// whose process id is not below `n`; nullopt when every entry names a
/// real process.
std::optional<std::string> unknownCrashProcess(
    const std::vector<std::pair<ProcessId, Tick>>& crashes,
    const std::vector<RestartEvent>& restarts, std::size_t n);

/// Delay-adversary triple (`adversary-budget/-prob/-seed`), shared by every
/// asynchronous family's serializer.
void putAdversary(KvWriter& kv, const AdversaryOptions& adversary);
AdversaryOptions getAdversary(const KvReader& kv);

/// The optional `scheduler` key (lockstep when absent); an unknown policy
/// name throws std::runtime_error listing the known ones.
SchedulingPolicy getScheduler(const KvReader& kv);

}  // namespace ooc::compose
