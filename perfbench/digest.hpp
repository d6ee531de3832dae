#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>

#include "util/fnv.hpp"

namespace perfbench {

/// FNV-1a-64 of a rendered report, as 16 lowercase hex digits.
inline std::string report_digest(const std::string& report_json) {
  const std::uint64_t h = iotml::fnv1a64(
      reinterpret_cast<const std::uint8_t*>(report_json.data()), report_json.size());
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016llx", static_cast<unsigned long long>(h));
  return hex;
}

/// Cross-run determinism check: every report of one invocation must hash to
/// the same digest, and to `pinned` when one is given.
class DigestCheck {
 public:
  explicit DigestCheck(std::string pinned) : pinned_(std::move(pinned)) {}

  /// False when `report_json` breaks either rule.
  bool check(const std::string& report_json) {
    const std::string d = report_digest(report_json);
    if (first_.empty()) first_ = d;
    return d == first_ && (pinned_.empty() || d == pinned_);
  }

  /// Digest of the first report checked (empty before any).
  const std::string& first() const noexcept { return first_; }

 private:
  std::string pinned_;
  std::string first_;
};

}  // namespace perfbench
