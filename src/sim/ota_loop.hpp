#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "ota/rollout.hpp"
#include "ota/transfer.hpp"
#include "ota/version.hpp"
#include "sim/fleet.hpp"
#include "util/rng.hpp"

namespace iotml::sim {

/// The OTA delta-update loop (DESIGN.md §14), FleetSim's first subsystem
/// module. The core retrains per epoch as rows arrive, diffs the new
/// artifact against the promoted head, ships chunked patches to a seeded
/// canary cohort, promotes on the pooled A/B probe and rolls back on
/// regression. It owns its state, its six event kinds and its ledger, and
/// reaches the rest of the fleet only through a FleetSurface.
class OtaLoop {
 public:
  /// Throws InvalidArgument on a nonsensical OTA config.
  static void validate(const ota::OtaConfig& config);

  /// Pushes the epoch retrains onto the fleet's scheduler. `canary` and
  /// `epoch` are the canary-cohort and epoch-jitter streams FleetSim split.
  OtaLoop(const FleetConfig& config, FleetSurface fleet, Rng canary, Rng epoch);

  /// Runs one kOta* event.
  void handle(const Event& event);

  /// Closes the ledger (version histogram, device census, run totals) and
  /// returns it. Call once, after the last OTA event.
  const OtaSummary& finalize();

 private:
  /// One epoch's candidate rollout: the target image, its delta patch
  /// against the promoted head, the full-image patch (the resume fallback
  /// and the provisioning payload) and the canary bookkeeping.
  struct Rollout {
    int epoch = 0;
    std::uint32_t version_id = 0;
    std::uint32_t base_checksum = ota::kEmptyImageChecksum;  ///< delta base
    std::uint32_t target_checksum = ota::kEmptyImageChecksum;
    std::vector<std::uint8_t> image;  ///< encoded target artifact
    ota::ChunkedPatch delta;          ///< empty when provisioning
    ota::ChunkedPatch full;
    bool has_delta = false;
    bool provisioning = false;
    std::vector<std::uint32_t> cohort;  ///< canary device indices, ascending
    std::vector<ota::CanaryProbe> probes;
    bool verdict_issued = false;
    bool promoted = false;
    std::size_t entry = 0;     ///< index into the epochs_log ledger
    std::uint64_t trace = 0;   ///< journey root (stream kPatch)
  };

  /// One device's in-progress patch transfer. The applier stages verified
  /// chunks; the device image only changes at commit (never torn).
  struct Transfer {
    std::size_t rollout = 0;
    std::uint32_t device = 0;  ///< device index
    bool full = false;         ///< shipping the full image, not the delta
    bool canary = false;
    int resume_rounds = 0;
    int full_rounds = 0;  ///< completed full-image rounds
    bool done = false;
    bool stuck = false;
    ota::PatchApplier applier;
  };

  struct ChunkMsg {
    std::size_t transfer = 0;
    std::uint32_t chunk = 0;
    /// Which patch the chunk belongs to, snapshot at send time — the
    /// transfer may fall back to the full image while frames are in flight,
    /// and a stale delta chunk must not index into the full patch.
    bool full = false;
  };
  struct ReportMsg {
    std::size_t rollout = 0;
    ota::CanaryProbe probe;
  };
  struct ControlMsg {
    std::size_t rollout = 0;
    std::uint32_t device = 0;  ///< device index to roll back
  };

  void handle_epoch(const Event& event);
  void handle_chunk_arrival(const Event& event);
  void handle_resume(const Event& event);
  void handle_report_arrival(const Event& event);
  void handle_verdict(const Event& event);
  void handle_control_arrival(const Event& event);
  void start_transfer(std::size_t device_index, std::size_t rollout_index, double now_s);
  void send_chunk_hop(net::NodeId to, std::size_t record, double now_s);
  void send_chunks(std::size_t transfer_index, const std::vector<std::size_t>& chunks,
                   double now_s);
  void send_report_hop(net::NodeId from, std::size_t record, double now_s);
  void send_control_hop(net::NodeId to, std::size_t record, double now_s);
  void commit_device(std::size_t transfer_index, double now_s);
  /// The canary A/B probe: the device's most recent sensed rows (before
  /// now_s) scored by both the running and the candidate artifact.
  ota::CanaryProbe canary_probe(std::size_t device_index,
                                const std::vector<std::uint8_t>& old_image,
                                const std::vector<std::uint8_t>& new_image,
                                double now_s) const;

  const FleetConfig& config_;
  FleetSurface fleet_;
  // det-sanctioned: split by FleetSim::FleetSim after chaos, moved in (rng-stream: canary)
  Rng canary_rng_;  ///< canary cohort sampling
  // det-sanctioned: split by FleetSim::FleetSim after canary, moved in (rng-stream: epoch)
  Rng epoch_rng_;   ///< epoch retrain jitter

  std::vector<Rollout> rollouts_;
  std::vector<Transfer> transfers_;
  std::vector<std::size_t> active_transfer_;  ///< device index -> transfer
  std::vector<ChunkMsg> chunk_msgs_;
  std::vector<ReportMsg> report_msgs_;
  std::vector<ControlMsg> control_msgs_;

  std::vector<ota::DeviceImageStore> stores_;  ///< per device
  ota::VersionChain chain_;                    ///< promoted versions only
  std::vector<std::uint8_t> head_image_;       ///< promoted head's bytes
  std::uint32_t next_version_ = 1;

  OtaSummary summary_;
};

}  // namespace iotml::sim
