// Text (de)serialization of the Raft scenario configuration, so that a
// hostile schedule found by the model checker travels as a standalone file:
// one `key=value` pair per line, repeated keys for lists of structured
// entries (crash=pid@tick, restart=pid@tick+downtime,
// partition=tick:g0,g1,...). Parsing is strict — malformed lines and values
// throw — because a counterexample that silently loses a field
// reproduces nothing. Single-shot compositions serialize through
// compose::serialize(const Composition&).
#pragma once

#include <string>

#include "harness/scenarios.hpp"

namespace ooc::harness {

/// Serialized configs open with a `# run-id=<hex>` stamp line
/// (compose::configRunId); parsers skip `#` comments, so stamped files
/// remain backward and forward compatible.
std::string serialize(const RaftScenarioConfig& config);

/// Throws std::runtime_error with a line-level message on malformed input.
RaftScenarioConfig parseRaftConfig(const std::string& text);

}  // namespace ooc::harness
