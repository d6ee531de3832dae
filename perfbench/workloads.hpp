#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/fleet.hpp"

namespace perfbench {

/// Fleets in one run of a workload. A fleet's cost moves with its seed (by
/// up to a third on fleet_ota), so a run sums many small fleets: the sum
/// moves by about a quarter as much between seeds, and each fleet stays
/// small enough to run in a few tens of milliseconds.
inline constexpr std::size_t kFleetsPerRun = 16;

/// The kFleetsPerRun FleetConfigs of workload `name` for `seed`; fleet k is
/// seeded with seed * kFleetsPerRun + k. Throws std::invalid_argument for
/// an unknown name. workloads.json records each workload's configuration,
/// rationale and the layers it loads and bypasses.
std::vector<iotml::sim::FleetConfig> make_workload(const std::string& name,
                                                   std::uint64_t seed);

}  // namespace perfbench
