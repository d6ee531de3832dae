#include "sim/ota_loop.hpp"

#include <algorithm>
#include <numeric>
#include <utility>

#include "deploy/codec.hpp"
#include "deploy/compile.hpp"
#include "deploy/runtime.hpp"
#include "obs/obs.hpp"
#include "ota/patch.hpp"
#include "util/error.hpp"

namespace iotml::sim {

void OtaLoop::validate(const ota::OtaConfig& config) {
  IOTML_CHECK(config.epochs >= 1, "FleetSim: ota.epochs must be >= 1");
  IOTML_CHECK(config.chunk_bytes >= 1, "FleetSim: ota.chunk_bytes must be >= 1");
  IOTML_CHECK(config.canary_fraction >= 0.0 && config.canary_fraction <= 1.0,
              "FleetSim: ota.canary_fraction outside [0, 1]");
  IOTML_CHECK(config.resume_timeout_s > 0.0 && config.verdict_delay_s > 0.0,
              "FleetSim: ota timeouts must be positive");
  IOTML_CHECK(config.epoch_jitter_s >= 0.0, "FleetSim: negative ota epoch jitter");
}

OtaLoop::OtaLoop(const FleetConfig& config, FleetSurface fleet, Rng canary, Rng epoch)
    : config_(config),
      fleet_(fleet),
      canary_rng_(std::move(canary)),
      epoch_rng_(std::move(epoch)),
      active_transfer_(config.devices, kNoMessage),
      stores_(config.devices) {
  // Epochs fire *inside* the learning window, evenly spaced at
  // duration * (e+1)/(epochs+1), plus a seeded jitter that desynchronizes
  // retrains from the flush schedule — so chaos windows genuinely overlap
  // patch transfers.
  for (int e = 0; e < config_.ota.epochs; ++e) {
    const double base = config_.duration_s * static_cast<double>(e + 1) /
                        static_cast<double>(config_.ota.epochs + 1);
    const double jitter = config_.ota.epoch_jitter_s > 0.0
                              ? epoch_rng_.uniform(0.0, config_.ota.epoch_jitter_s)
                              : 0.0;
    fleet_.sched.push(base + jitter, EventKind::kOtaEpoch, fleet_.topo.core(),
                      static_cast<std::size_t>(e));
  }
}

void OtaLoop::handle(const Event& event) {
  switch (event.kind) {
    case EventKind::kOtaEpoch: return handle_epoch(event);
    case EventKind::kOtaChunkArrival: return handle_chunk_arrival(event);
    case EventKind::kOtaResume: return handle_resume(event);
    case EventKind::kOtaReportArrival: return handle_report_arrival(event);
    case EventKind::kOtaVerdict: return handle_verdict(event);
    case EventKind::kOtaControlArrival: return handle_control_arrival(event);
    default: IOTML_INTERNAL_CHECK(false, "OtaLoop: not an OTA event");
  }
}

void OtaLoop::handle_epoch(const Event& event) {
  OtaSummary& ota = summary_;
  const int epoch = static_cast<int>(event.message);

  // Newest version wins. In-flight transfers for older rollouts stop (their
  // chunks count as stale on arrival), and a rollout still waiting on its
  // verdict is superseded outright — its canaries simply join this epoch's
  // base population, one version behind.
  for (std::size_t d = 0; d < config_.devices; ++d) {
    const std::size_t t = active_transfer_[d];
    if (t != kNoMessage) transfers_[t].done = true;
  }
  for (Rollout& prior : rollouts_) {
    if (!prior.verdict_issued) {
      prior.verdict_issued = true;
      ota.epochs_log[prior.entry].outcome = "superseded";
    }
  }

  ota.epochs_log.push_back({});
  OtaEpochEntry& entry = ota.epochs_log.back();
  entry.epoch = epoch;
  entry.t_s = event.time_s;

  if (!fleet_.topo.node(fleet_.topo.core()).up) {
    entry.outcome = "core-down";
    return;
  }
  // Retrain on everything the core has integrated so far. The full sensor
  // schema is kept — no per-epoch MI reduction — so the artifact schema
  // stays stable across epochs and consecutive images stay delta-friendly.
  const data::Dataset train = fleet_.training_set();
  if (train.rows() < config_.ota.min_train_rows) {
    entry.outcome = "no-data";
    return;
  }
  entry.train_rows = train.rows();

  std::vector<std::uint8_t> image =
      deploy::compile_artifact(config_.deploy.model, config_.deploy.precision, train)
          .encode();
  const std::uint32_t target = ota::image_checksum(image);
  entry.image_bytes = image.size();

  // Counterfactual ledger: the naive pipeline re-ships the full image to
  // every device every epoch — no-change epochs included, it has no way to
  // know — over the same two unicast hops (core->edge, edge->device) the
  // real transport uses, chunked and framed identically.
  std::vector<std::uint8_t> full_bytes = ota::diff({}, image).encode();
  const std::uint64_t full_chunks =
      (full_bytes.size() + config_.ota.chunk_bytes - 1) / config_.ota.chunk_bytes;
  const std::uint64_t full_per_hop =
      full_bytes.size() +
      full_chunks * (ota::kChunkFramingBytes + net::kMessageHeaderBytes);
  entry.full_broadcast_bytes =
      full_per_hop * 2 * static_cast<std::uint64_t>(config_.devices);

  if (target == chain_.head_checksum()) {
    // The retrain reproduced the promoted head byte-for-byte: nothing to
    // ship. (Devices behind the head stay behind until the next real
    // version; the histogram reveals them.)
    entry.outcome = "no-change";
    return;
  }

  Rollout ro;
  ro.epoch = epoch;
  ro.version_id = next_version_++;
  ro.base_checksum = chain_.head_checksum();
  ro.target_checksum = target;
  ro.provisioning = chain_.empty();
  ro.full = ota::ChunkedPatch(std::move(full_bytes), config_.ota.chunk_bytes,
                              ro.version_id);
  if (!ro.provisioning) {
    // Ship whichever payload is cheaper on the wire. A retrain that merely
    // extends the data diffs to a fraction of the image, but one that
    // restructures the tree can produce a delta as large as the image
    // itself — then the full patch wins and the ledger records the
    // oversized delta that was not shipped (patch_bytes vs image_bytes).
    const ota::Patch delta = ota::diff(head_image_, image);
    entry.patch_bytes = delta.size_bytes();
    std::vector<std::uint8_t> delta_bytes = delta.encode();
    if (delta_bytes.size() < ro.full.patch_bytes().size()) {
      ro.delta = ota::ChunkedPatch(std::move(delta_bytes), config_.ota.chunk_bytes,
                                   ro.version_id);
      ro.has_delta = true;
    }
  }
  ro.image = std::move(image);
  ro.entry = ota.epochs_log.size() - 1;
  entry.version_id = ro.version_id;

  ro.trace = fleet_.next_trace();
  fleet_.obsy.origin(ro.trace, obs::HopStream::kPatch, fleet_.topo.core(), event.time_s, 0,
                     ro.full.patch_bytes().size());
  fleet_.obsy.note(fleet_.topo.core(), event.time_s, "ota-build", ro.version_id,
                   ro.image.size());

  const std::size_t r = rollouts_.size();
  rollouts_.push_back(std::move(ro));
  Rollout& rollout = rollouts_[r];

  if (rollout.provisioning) {
    // First version: there is no running model to canary against, so it
    // promotes by construction and the whole fleet gets the full image.
    entry.outcome = "provision";
    rollout.verdict_issued = true;
    rollout.promoted = true;
    chain_.append(rollout.version_id, rollout.target_checksum,
                  deploy::narrow_u32(rollout.image.size(), "ota image bytes"),
                  deploy::narrow_u32(rollout.full.patch_bytes().size(), "ota patch bytes"));
    head_image_ = rollout.image;
    for (std::size_t d = 0; d < config_.devices; ++d) {
      start_transfer(d, r, event.time_s);
    }
    return;
  }

  rollout.cohort = ota::pick_canaries(config_.devices, config_.ota, canary_rng_);
  entry.canary_devices = rollout.cohort.size();
  for (std::uint32_t d : rollout.cohort) {
    start_transfer(d, r, event.time_s);
  }
  fleet_.sched.push(event.time_s + config_.ota.verdict_delay_s, EventKind::kOtaVerdict,
                    fleet_.topo.core(), r);
}

void OtaLoop::start_transfer(std::size_t device_index, std::size_t rollout_index,
                             double now_s) {
  const Rollout& ro = rollouts_[rollout_index];
  if (stores_[device_index].current_checksum() == ro.target_checksum) return;

  Transfer t;
  t.rollout = rollout_index;
  t.device = static_cast<std::uint32_t>(device_index);
  t.canary = !ro.verdict_issued;
  // The delta only moves a device sitting exactly on the rollout's base; a
  // behind or unprovisioned device needs the full image from the start.
  const std::uint32_t have = stores_[device_index].current_checksum();
  t.full = !ro.has_delta || have != ro.base_checksum;
  if (ro.has_delta && t.full) ++summary_.epochs_log[ro.entry].full_fallbacks;

  const std::size_t idx = transfers_.size();
  transfers_.push_back(std::move(t));
  active_transfer_[device_index] = idx;
  const ota::ChunkedPatch& chunked = transfers_[idx].full ? ro.full : ro.delta;
  std::vector<std::size_t> all(chunked.num_chunks());
  std::iota(all.begin(), all.end(), std::size_t{0});
  send_chunks(idx, all, now_s);
  fleet_.sched.push(now_s + config_.ota.resume_timeout_s, EventKind::kOtaResume,
                    fleet_.topo.device(device_index), idx);
}

void OtaLoop::send_chunks(std::size_t transfer_index, const std::vector<std::size_t>& chunks,
                          double now_s) {
  const Transfer& t = transfers_[transfer_index];
  const net::NodeId edge = fleet_.topo.edge(t.device % config_.edges);
  for (std::size_t c : chunks) {
    const std::size_t record = chunk_msgs_.size();
    chunk_msgs_.push_back({transfer_index, static_cast<std::uint32_t>(c), t.full});
    send_chunk_hop(edge, record, now_s);
  }
}

void OtaLoop::send_chunk_hop(net::NodeId to, std::size_t record, double now_s) {
  const ChunkMsg& msg = chunk_msgs_[record];
  const Rollout& ro = rollouts_[transfers_[msg.transfer].rollout];
  const ota::ChunkedPatch& chunked = msg.full ? ro.full : ro.delta;
  const std::size_t bytes =
      net::kMessageHeaderBytes + chunked.frame(msg.chunk).wire_bytes();

  OtaSummary& ota = summary_;
  ++ota.chunks_sent;
  // The radio spends the bytes whether or not the wire delivers; the
  // per-epoch ledger counts every hop transmission.
  ota.epochs_log[ro.entry].delta_downlink_bytes += bytes;
  obs::registry().counter("ota.chunk_sends").add();
  obs::registry().counter("ota.downlink_bytes").add(bytes);

  obs::HopRecord frame{.stream = obs::HopStream::kPatch, .src = fleet_.topo.next_hop(to),
                       .dst = to, .bytes = bytes, .parents = {ro.trace}};
  if (fleet_.send_hop(frame, EventKind::kOtaChunkArrival, record, now_s).corrupted) {
    // The chunk fails its FNV check at the receiver and is discarded; the
    // resume round re-requests it.
    ++ota.chunks_corrupt_rejected;
    obs::registry().counter("ota.chunk_corrupt_rejected").add();
  }
}

void OtaLoop::handle_chunk_arrival(const Event& event) {
  const net::NodeId node = event.target;
  const ChunkMsg& msg = chunk_msgs_[event.message];
  Transfer& t = transfers_[msg.transfer];
  const Rollout& ro = rollouts_[t.rollout];
  OtaSummary& ota = summary_;

  if (!fleet_.topo.node(node).up) {
    fleet_.journey_arrive(event, obs::HopStream::kPatch, ro.trace, 0, "dead_receiver");
    return;
  }
  if (t.done || active_transfer_[t.device] != msg.transfer || msg.full != t.full) {
    // Superseded transfer, or a leftover delta chunk after the fall back to
    // the full image — either way the frame no longer indexes anything the
    // device wants.
    ++ota.chunks_stale;
    fleet_.journey_arrive(event, obs::HopStream::kPatch, ro.trace, 0, "stale");
    return;
  }
  if (node >= config_.devices) {
    // Edge relay: one more downlink hop to the target device.
    fleet_.journey_arrive(event, obs::HopStream::kPatch, ro.trace, 0, "accepted");
    send_chunk_hop(fleet_.topo.device(t.device), event.message, event.time_s);
    return;
  }

  const ota::ChunkedPatch& chunked = msg.full ? ro.full : ro.delta;
  switch (t.applier.accept(chunked.frame(msg.chunk))) {
    case ota::PatchApplier::Accept::kAccepted:
      ++ota.chunks_delivered;
      fleet_.journey_arrive(event, obs::HopStream::kPatch, ro.trace, 0, "accepted");
      if (t.applier.complete()) commit_device(msg.transfer, event.time_s);
      break;
    case ota::PatchApplier::Accept::kDuplicate:
      ++ota.chunk_duplicates;
      fleet_.journey_arrive(event, obs::HopStream::kPatch, ro.trace, 0, "duplicate");
      break;
    case ota::PatchApplier::Accept::kChecksumMismatch:
    case ota::PatchApplier::Accept::kShapeMismatch:
      ++ota.chunks_corrupt_rejected;
      fleet_.journey_arrive(event, obs::HopStream::kPatch, ro.trace, 0, "rejected");
      break;
  }
}

void OtaLoop::commit_device(std::size_t transfer_index, double now_s) {
  Transfer& t = transfers_[transfer_index];
  const Rollout& ro = rollouts_[t.rollout];
  OtaSummary& ota = summary_;
  ota::DeviceImageStore& store = stores_[t.device];
  t.done = true;

  const ota::Patch patch = ota::Patch::decode(t.applier.assemble());
  std::vector<std::uint8_t> image =
      patch.full_image() ? patch.apply({}) : patch.apply(store.current_image());

  // The canary A/B probe runs before the commit: the same recent rows,
  // scored by the running model and by the candidate, so the pooled verdict
  // compares the two on identical data. A device with no baseline (first
  // provision) has nothing to compare against.
  if (t.canary && !ro.verdict_issued && store.provisioned()) {
    const ota::CanaryProbe probe =
        canary_probe(t.device, store.current_image(), image, now_s);
    if (probe.rows > 0) {
      const std::size_t record = report_msgs_.size();
      report_msgs_.push_back({t.rollout, probe});
      send_report_hop(fleet_.topo.device(t.device), record, now_s);
    }
  }

  // Commit is the only place the running image changes, and it requires the
  // full checksum to verify — a crash anywhere before this line leaves the
  // device on its previous consistent version.
  store.commit(ro.version_id, std::move(image), patch.target_checksum);
  ++ota.epochs_log[ro.entry].devices_updated;
  ota.last_commit_t_s = std::max(ota.last_commit_t_s, now_s);
  obs::registry().counter("ota.commits").add();
  fleet_.obsy.note(fleet_.topo.device(t.device), now_s, "ota-commit", ro.version_id,
                   t.full ? 1 : 0);
}

ota::CanaryProbe OtaLoop::canary_probe(std::size_t device_index,
                                       const std::vector<std::uint8_t>& old_image,
                                       const std::vector<std::uint8_t>& new_image,
                                       double now_s) const {
  ota::CanaryProbe probe;
  probe.device = static_cast<std::uint32_t>(device_index);
  const data::Dataset rows = fleet_.recent_rows(device_index, now_s, config_.ota.probe_rows);
  if (rows.rows() == 0) return probe;

  deploy::DeviceRuntime old_rt(deploy::CompiledModel::decode(old_image));
  deploy::DeviceRuntime new_rt(deploy::CompiledModel::decode(new_image));
  old_rt.bind(rows);
  new_rt.bind(rows);
  probe.rows = rows.rows();
  for (std::size_t r = 0; r < rows.rows(); ++r) {
    if (old_rt.predict_row(rows, r) == rows.label(r)) ++probe.correct_old;
    if (new_rt.predict_row(rows, r) == rows.label(r)) ++probe.correct_new;
  }
  return probe;
}

void OtaLoop::send_report_hop(net::NodeId from, std::size_t record, double now_s) {
  // Version id + device + rows + two correct counts, each u32, framed.
  const std::size_t bytes = net::kMessageHeaderBytes + 20;
  summary_.probe_uplink_bytes += bytes;
  obs::registry().counter("ota.probe_uplink_bytes").add(bytes);
  // A lost probe is tolerated, not retried: the verdict pools whatever
  // reports made it.
  obs::HopRecord frame{.stream = obs::HopStream::kPatch, .src = from,
                       .dst = fleet_.topo.next_hop(from), .bytes = bytes,
                       .parents = {rollouts_[report_msgs_[record].rollout].trace}};
  fleet_.send_hop(frame, EventKind::kOtaReportArrival, record, now_s);
}

void OtaLoop::handle_report_arrival(const Event& event) {
  const net::NodeId node = event.target;
  const ReportMsg& msg = report_msgs_[event.message];
  Rollout& ro = rollouts_[msg.rollout];
  if (event.duplicate || !fleet_.topo.node(node).up) {
    fleet_.journey_arrive(event, obs::HopStream::kPatch, ro.trace, 0,
                          event.duplicate ? "duplicate" : "dead_receiver");
    return;
  }
  if (node != fleet_.topo.core()) {
    // Edge relay toward the core.
    fleet_.journey_arrive(event, obs::HopStream::kPatch, ro.trace, 0, "accepted");
    send_report_hop(node, event.message, event.time_s);
    return;
  }
  if (ro.verdict_issued) {  // late probe, verdict already out
    fleet_.journey_arrive(event, obs::HopStream::kPatch, ro.trace, 0, "stale");
    return;
  }
  fleet_.journey_arrive(event, obs::HopStream::kPatch, ro.trace, 0, "accepted");
  ro.probes.push_back(msg.probe);
}

void OtaLoop::handle_resume(const Event& event) {
  const std::size_t idx = event.message;
  Transfer& t = transfers_[idx];
  if (t.done || t.stuck || active_transfer_[t.device] != idx) return;
  const Rollout& ro = rollouts_[t.rollout];
  if (ro.verdict_issued && !ro.promoted) {
    // The candidate was rolled back (or never promoted) while this canary
    // transfer was still moving: stop spending radio on it.
    t.done = true;
    return;
  }
  OtaSummary& ota = summary_;
  OtaEpochEntry& entry = ota.epochs_log[ro.entry];
  const ota::ChunkedPatch& chunked = t.full ? ro.full : ro.delta;
  std::vector<std::size_t> want;
  if (t.applier.started()) {
    want = t.applier.missing();
  } else {
    want.resize(chunked.num_chunks());
    std::iota(want.begin(), want.end(), std::size_t{0});
  }
  if (want.empty()) return;  // complete; the commit path already ran

  if (t.resume_rounds < config_.ota.max_resume_rounds) {
    ++t.resume_rounds;
    ++ota.resume_rounds;
    obs::registry().counter("ota.resume_rounds").add();
    send_chunks(idx, want, event.time_s);
  } else if (!t.full) {
    // Delta rounds exhausted: fall back to the full image. The applier
    // resets (staged delta chunks are discarded); the running image is
    // untouched by construction.
    t.full = true;
    t.full_rounds = 1;
    t.resume_rounds = 0;
    t.applier.reset();
    ++entry.full_fallbacks;
    obs::registry().counter("ota.full_fallbacks").add();
    std::vector<std::size_t> all(ro.full.num_chunks());
    std::iota(all.begin(), all.end(), std::size_t{0});
    send_chunks(idx, all, event.time_s);
  } else if (t.full_rounds < config_.ota.max_full_rounds) {
    ++t.full_rounds;
    t.resume_rounds = 0;
    t.applier.reset();
    std::vector<std::size_t> all(ro.full.num_chunks());
    std::iota(all.begin(), all.end(), std::size_t{0});
    send_chunks(idx, all, event.time_s);
  } else {
    // Every round exhausted: the device stays on its current verified
    // version for this epoch and is ledgered as stuck.
    t.stuck = true;
    t.done = true;
    ++entry.devices_stuck;
    obs::registry().counter("ota.devices_stuck").add();
    fleet_.obsy.note(fleet_.topo.device(t.device), event.time_s, "ota-stuck", ro.version_id);
    return;
  }
  fleet_.sched.push(event.time_s + config_.ota.resume_timeout_s, EventKind::kOtaResume,
                    fleet_.topo.device(t.device), idx);
}

void OtaLoop::handle_verdict(const Event& event) {
  const std::size_t r = event.message;
  Rollout& ro = rollouts_[r];
  if (ro.verdict_issued) return;  // superseded by a later epoch
  ro.verdict_issued = true;
  OtaSummary& ota = summary_;
  OtaEpochEntry& entry = ota.epochs_log[ro.entry];

  auto cancel_cohort = [&]() {
    for (std::uint32_t d : ro.cohort) {
      const std::size_t active = active_transfer_[d];
      if (active != kNoMessage && transfers_[active].rollout == r) {
        transfers_[active].done = true;
      }
    }
  };

  if (!fleet_.topo.node(fleet_.topo.core()).up) {
    // Nobody home to pool the probes: conservative skip, the candidate is
    // abandoned and canaries that committed it roll back locally next time
    // the core ships a version (they are off-head in the histogram).
    entry.outcome = "verdict-skipped";
    cancel_cohort();
    return;
  }

  const ota::CanaryVerdict verdict =
      ota::judge(ro.version_id, ro.epoch, ro.probes, config_.ota);
  entry.devices_reporting = verdict.devices_reporting;
  entry.pooled_rows = verdict.pooled_rows;
  entry.accuracy_old = verdict.accuracy_old;
  entry.accuracy_new = verdict.accuracy_new;

  if (verdict.promoted) {
    entry.outcome = "promote";
    ++ota.promotions;
    ro.promoted = true;
    chain_.append(ro.version_id, ro.target_checksum,
                  deploy::narrow_u32(ro.image.size(), "ota image bytes"),
                  deploy::narrow_u32(ro.has_delta ? ro.delta.patch_bytes().size()
                                                  : ro.full.patch_bytes().size(),
                                     "ota patch bytes"));
    head_image_ = ro.image;
    obs::registry().counter("ota.promotions").add();
    fleet_.obsy.note(fleet_.topo.core(), event.time_s, "ota-promote", ro.version_id,
                     verdict.pooled_rows);
    // Ship to the rest of the fleet; canaries mid-transfer keep going.
    for (std::size_t d = 0; d < config_.devices; ++d) {
      const std::size_t active = active_transfer_[d];
      if (active != kNoMessage && !transfers_[active].done &&
          transfers_[active].rollout == r) {
        continue;
      }
      start_transfer(d, r, event.time_s);
    }
    return;
  }

  entry.outcome = "rollback";
  ++ota.rollbacks;
  obs::registry().counter("ota.rollbacks").add();
  fleet_.obsy.note(fleet_.topo.core(), event.time_s, "ota-rollback", ro.version_id,
                   verdict.pooled_rows);
  cancel_cohort();
  // Canaries that already committed the bad version get a rollback command;
  // the revert itself is local and free (the previous image is retained).
  for (std::uint32_t d : ro.cohort) {
    if (stores_[d].current_checksum() == ro.target_checksum) {
      const std::size_t record = control_msgs_.size();
      control_msgs_.push_back({r, d});
      send_control_hop(fleet_.topo.edge(d % config_.edges), record, event.time_s);
    }
  }
}

void OtaLoop::send_control_hop(net::NodeId to, std::size_t record, double now_s) {
  const Rollout& ro = rollouts_[control_msgs_[record].rollout];
  // Version id + command, framed — rollback ships no image bytes at all.
  const std::size_t bytes = net::kMessageHeaderBytes + 8;
  summary_.epochs_log[ro.entry].delta_downlink_bytes += bytes;
  // A lost rollback command is visible, not fatal: the device stays on the
  // rolled-back version and the end-of-run histogram exposes it.
  obs::HopRecord frame{.stream = obs::HopStream::kPatch, .src = fleet_.topo.next_hop(to),
                       .dst = to, .bytes = bytes, .parents = {ro.trace}};
  fleet_.send_hop(frame, EventKind::kOtaControlArrival, record, now_s);
}

void OtaLoop::handle_control_arrival(const Event& event) {
  const net::NodeId node = event.target;
  const ControlMsg& msg = control_msgs_[event.message];
  const Rollout& ro = rollouts_[msg.rollout];
  if (!fleet_.topo.node(node).up) {
    fleet_.journey_arrive(event, obs::HopStream::kPatch, ro.trace, 0, "dead_receiver");
    return;
  }
  if (node >= config_.devices) {
    // Edge relay, straggler copies included: the device's revert is idempotent.
    fleet_.journey_arrive(event, obs::HopStream::kPatch, ro.trace, 0, "accepted");
    send_control_hop(fleet_.topo.device(msg.device), event.message, event.time_s);
    return;
  }
  // Idempotent by construction: only a device still running the rolled-back
  // version reverts, so duplicate or late commands are no-ops.
  ota::DeviceImageStore& store = stores_[msg.device];
  if (store.current_id() != ro.version_id || !store.has_previous()) {
    fleet_.journey_arrive(event, obs::HopStream::kPatch, ro.trace, 0,
                          event.duplicate ? "duplicate" : "stale");
    return;
  }
  fleet_.journey_arrive(event, obs::HopStream::kPatch, ro.trace, 0, "accepted");
  store.rollback();
  ++summary_.epochs_log[ro.entry].devices_rolled_back;
  obs::registry().counter("ota.device_rollbacks").add();
  fleet_.obsy.note(node, event.time_s, "ota-revert", ro.version_id, store.current_id());
}

const OtaSummary& OtaLoop::finalize() {
  OtaSummary& ota = summary_;
  ota.enabled = true;
  // The run totals are the per-epoch ledger's column sums.
  for (const OtaEpochEntry& entry : ota.epochs_log) {
    ota.delta_downlink_bytes += entry.delta_downlink_bytes;
    ota.full_broadcast_bytes += entry.full_broadcast_bytes;
    ota.full_fallbacks += entry.full_fallbacks;
  }
  ota.epochs = config_.ota.epochs;
  ota.versions_published = chain_.size();
  const std::uint32_t head = chain_.head_id();
  for (std::size_t d = 0; d < config_.devices; ++d) {
    const ota::DeviceImageStore& store = stores_[d];
    ++ota.version_histogram[store.current_id()];
    const std::size_t active = active_transfer_[d];
    if (active != kNoMessage && transfers_[active].stuck) {
      ++ota.devices_stuck;
    }
    if (!store.provisioned()) {
      ++ota.devices_unprovisioned;
      continue;
    }
    // The no-torn-patches invariant: every provisioned device's running
    // image re-hashes to the checksum its committed version was built with.
    bool verified = false;
    for (const Rollout& ro : rollouts_) {
      if (ro.version_id == store.current_id()) {
        verified = ota::image_checksum(store.current_image()) == ro.target_checksum;
        break;
      }
    }
    if (!verified) ota.all_devices_verified = false;
    if (store.current_id() == head) {
      ++ota.devices_on_head;
    } else {
      ++ota.devices_behind;
    }
  }
  IOTML_INTERNAL_CHECK(ota.all_devices_verified,
                       "FleetSim: a device ended the run on an unverified image");
  return ota;
}

}  // namespace iotml::sim
