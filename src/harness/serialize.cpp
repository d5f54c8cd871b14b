#include "harness/serialize.hpp"

#include <limits>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <vector>

#include "compose/kv.hpp"

namespace ooc::harness {

// The key=value machinery (writer, reader, run-id stamping, crash/adversary
// entries) lives in compose/kv.hpp, shared with Composition serialization;
// only the Raft field list remains here.
using compose::KvReader;
using compose::KvWriter;
using compose::crashEntry;
using compose::getAdversary;
using compose::parseCrash;
using compose::parseEntryU64;
using compose::parseRestart;
using compose::putAdversary;
using compose::restartEntry;
using compose::stampRunId;

// ---------------------------------------------------------------------------
// RaftScenarioConfig

std::string serialize(const RaftScenarioConfig& config) {
  KvWriter kv;
  kv.put("n", config.n);
  kv.putValues("inputs", config.inputs);
  kv.put("seed", config.seed);
  kv.put("min-delay", config.minDelay);
  kv.put("max-delay", config.maxDelay);
  kv.put("drop-prob", config.dropProbability);
  kv.put("dup-prob", config.duplicateProbability);
  for (const auto& crash : config.crashes) kv.put("crash", crashEntry(crash));
  for (const auto& event : config.partitions) {
    std::ostringstream os;
    os << event.at << ':';
    for (std::size_t i = 0; i < event.groups.size(); ++i) {
      if (i > 0) os << ',';
      os << event.groups[i];
    }
    kv.put("partition", os.str());
  }
  for (const auto& event : config.restarts)
    kv.put("restart", restartEntry(event));
  kv.put("election-min", config.raft.electionTimeoutMin);
  kv.put("election-max", config.raft.electionTimeoutMax);
  kv.put("heartbeat", config.raft.heartbeatInterval);
  kv.put("max-append", config.raft.maxEntriesPerAppend);
  kv.put("compaction", config.raft.compactionThreshold);
  kv.put("durable", static_cast<std::uint64_t>(config.raft.durable));
  kv.put("sync-before-reply",
         static_cast<std::uint64_t>(config.raft.syncBeforeReply));
  kv.put("torn-prob", config.raft.storage.tornTailProbability);
  kv.put("corrupt-prob", config.raft.storage.corruptProbability);
  putAdversary(kv, config.adversary);
  kv.put("max-ticks", config.maxTicks);
  return stampRunId(kv.str());
}

RaftScenarioConfig parseRaftConfig(const std::string& text) {
  const KvReader kv(text);
  RaftScenarioConfig config;
  config.n = kv.getU64("n", config.n);
  config.inputs = kv.getValues("inputs");
  config.seed = kv.getU64("seed", config.seed);
  config.minDelay = kv.getU64("min-delay", config.minDelay);
  config.maxDelay = kv.getU64("max-delay", config.maxDelay);
  config.dropProbability = kv.getDouble("drop-prob", config.dropProbability);
  config.duplicateProbability =
      kv.getDouble("dup-prob", config.duplicateProbability);
  for (const std::string& entry : kv.getAll("crash"))
    config.crashes.push_back(parseCrash(entry));
  for (const std::string& entry : kv.getAll("partition")) {
    const std::string_view text(entry);
    const auto colon = text.find(':');
    const auto at = parseEntryU64(text.substr(0, colon));
    if (colon == std::string_view::npos || !at)
      throw std::runtime_error("config: malformed partition '" + entry + "'");
    RaftScenarioConfig::PartitionEvent event;
    event.at = *at;
    // Group ids, comma-separated; an empty list heals the network.
    std::string_view groups = text.substr(colon + 1);
    while (!groups.empty()) {
      const auto comma = groups.find(',');
      const auto group = parseEntryU64(groups.substr(0, comma));
      if (!group || *group > static_cast<std::uint64_t>(
                                 std::numeric_limits<int>::max()))
        throw std::runtime_error("config: malformed partition '" + entry +
                                 "'");
      event.groups.push_back(static_cast<int>(*group));
      groups = comma == std::string_view::npos ? std::string_view()
                                               : groups.substr(comma + 1);
    }
    if (text.back() == ',')
      throw std::runtime_error("config: malformed partition '" + entry + "'");
    config.partitions.push_back(std::move(event));
  }
  config.raft.electionTimeoutMin =
      kv.getU64("election-min", config.raft.electionTimeoutMin);
  config.raft.electionTimeoutMax =
      kv.getU64("election-max", config.raft.electionTimeoutMax);
  config.raft.heartbeatInterval =
      kv.getU64("heartbeat", config.raft.heartbeatInterval);
  config.raft.maxEntriesPerAppend =
      kv.getU64("max-append", config.raft.maxEntriesPerAppend);
  config.raft.compactionThreshold =
      kv.getU64("compaction", config.raft.compactionThreshold);
  for (const std::string& entry : kv.getAll("restart"))
    config.restarts.push_back(parseRestart(entry));
  // Durability keys are absent from configs predating crash-recovery; the
  // fallbacks reproduce the old semantics (no journal, restarts are fresh
  // boots).
  config.raft.durable =
      kv.getU64("durable", config.raft.durable ? 1 : 0) != 0;
  config.raft.syncBeforeReply =
      kv.getU64("sync-before-reply", config.raft.syncBeforeReply ? 1 : 0) !=
      0;
  config.raft.storage.tornTailProbability =
      kv.getDouble("torn-prob", config.raft.storage.tornTailProbability);
  config.raft.storage.corruptProbability =
      kv.getDouble("corrupt-prob", config.raft.storage.corruptProbability);
  config.adversary = getAdversary(kv);
  config.maxTicks = kv.getU64("max-ticks", config.maxTicks);
  kv.rejectUnreadKeys();
  if (const auto diagnostic = compose::unknownCrashProcess(
          config.crashes, config.restarts, config.n))
    throw std::runtime_error(*diagnostic);
  return config;
}

}  // namespace ooc::harness
