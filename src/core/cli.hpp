// Command-line front end for the experiment harness: turns flags into an
// FctExperiment so users can run any paper scenario without writing C++
// (the `tcnsim` tool). The parser lives in the library so it is unit-tested.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/experiment.hpp"

namespace tcn::core {

/// Parse `args` (argv[1..]) into an experiment configuration.
/// Throws std::invalid_argument with a helpful message on bad input.
FctExperiment parse_cli(const std::vector<std::string>& args);

/// The --help text.
std::string cli_usage();

/// Parse helpers exposed for reuse/testing.
Scheme parse_scheme(const std::string& name);
SchedKind parse_sched(const std::string& name);
/// Full --sched grammar: a scheduler name with optional parameters --
/// `sp-pifo[:levels]` and `aifo[:window,k]`; every other name takes none.
/// Fills `sched` (kind + parameters) or throws std::invalid_argument.
void parse_sched_spec(const std::string& spec, SchedConfig& sched);
workload::Kind parse_workload(const std::string& name);

/// Numeric flag values, shared by tcnsim and the bench front ends. The
/// whole of `v` must be the number; anything else throws
/// std::invalid_argument naming `flag`.
std::uint64_t to_u64(const std::string& flag, const std::string& v);
double to_double(const std::string& flag, const std::string& v);
/// Comma-separated list with empty items skipped; throws naming `flag` when
/// no item is left.
std::vector<std::string> split_list(const std::string& flag,
                                    const std::string& list);
std::vector<double> to_double_list(const std::string& flag,
                                   const std::string& list);
std::vector<std::uint64_t> to_u64_list(const std::string& flag,
                                       const std::string& list);

/// Render a report the way the tool prints it.
std::string format_report(const FctExperiment& cfg, const FctReport& report);

}  // namespace tcn::core
