#include "net/channel.hpp"

#include <algorithm>

#include "obs/obs.hpp"
#include "util/error.hpp"

namespace iotml::net {

std::string channel_mode_name(ChannelMode mode) {
  switch (mode) {
    case ChannelMode::kFireAndForget: return "fire-and-forget";
    case ChannelMode::kAckRetry: return "ack-retry";
  }
  return "?";
}

Channel::Channel(Link& link, ChannelParams params) : link_(&link), params_(params) {
  IOTML_CHECK(params.max_attempts >= 1, "Channel: max_attempts must be >= 1");
  IOTML_CHECK(params.queue_capacity >= 1, "Channel: queue_capacity must be >= 1");
  IOTML_CHECK(params.ack_timeout_s >= 0.0, "Channel: negative ack timeout");
  IOTML_CHECK(params.backoff_base_s >= 0.0 && params.backoff_cap_s >= 0.0,
              "Channel: negative backoff");
  IOTML_CHECK(params.backoff_jitter >= 0.0 && params.backoff_jitter <= 1.0,
              "Channel: backoff_jitter outside [0, 1]");
}

std::size_t Channel::in_flight(double now_s) const {
  std::size_t n = 0;
  for (double done : completion_s_) {
    if (done > now_s) ++n;
  }
  return n;
}

ChannelOutcome Channel::send(double now_s, std::size_t bytes, Rng& rng) {
  // Backpressure: prune finished sends, then refuse (dead-letter) when the
  // bounded queue is full — the caller decides whether to buffer or drop.
  // Fire-and-forget has no queue to fill: the legacy sender blasts onto the
  // medium without tracking outstanding sends, which is exactly its failure
  // mode, so the bound applies only to the reliable mode.
  completion_s_.erase(
      std::remove_if(completion_s_.begin(), completion_s_.end(),
                     [now_s](double done) { return done <= now_s; }),
      completion_s_.end());
  ChannelOutcome outcome;
  if (params_.mode == ChannelMode::kAckRetry &&
      completion_s_.size() >= params_.queue_capacity) {
    ++stats_.dead_letters;
    static obs::Counter& net_channel_dead_letters =
        obs::registry().counter("net.channel.dead_letters");
    net_channel_dead_letters.add();
    return outcome;
  }
  outcome.accepted = true;
  ++stats_.sends;

  if (params_.mode == ChannelMode::kAckRetry) {
    ChannelOutcome acked = send_ack_retry(now_s, bytes, rng);
    acked.accepted = true;
    completion_s_.push_back(link_->busy_until_s());
    in_flight_highwater_ = std::max(in_flight_highwater_, completion_s_.size());
    return acked;
  }

  // Fire-and-forget: the legacy link behaviour, byte-identical Rng draws.
  // A corrupted frame is delivered on the wire but fails its checksum at
  // the receiver — detected and rejected, never silently scored.
  const Delivery d = link_->transmit(now_s, bytes, rng);
  completion_s_.push_back(link_->busy_until_s());
  in_flight_highwater_ = std::max(in_flight_highwater_, completion_s_.size());
  outcome.attempts = 1 + d.retransmits;
  outcome.delivered = d.delivered && !d.corrupted;
  outcome.corrupted = d.delivered && d.corrupted;
  outcome.arrival_s = d.arrival_s;
  outcome.duplicated = d.duplicated;
  outcome.duplicate_arrival_s = d.duplicate_arrival_s;
  if (outcome.delivered) ++stats_.delivered;
  if (outcome.corrupted) {
    ++stats_.corrupt_rejected;
    static obs::Counter& net_channel_corrupt_rejected =
        obs::registry().counter("net.channel.corrupt_rejected");
    net_channel_corrupt_rejected.add();
  }
  return outcome;
}

ChannelOutcome Channel::send_ack_retry(double now_s, std::size_t bytes, Rng& rng) {
  ChannelOutcome outcome;
  if (!link_->up()) {
    // The radio cannot even open the wire: an immediate timeout, so the
    // caller can store-and-forward instead of pretending the send happened.
    ++stats_.timeouts;
    static obs::Counter& net_channel_timeouts = obs::registry().counter("net.channel.timeouts");
    net_channel_timeouts.add();
    link_->record_drop();
    return outcome;
  }

  const LinkParams& lp = link_->params();
  double first_arrival_s = -1.0;
  double start_s = now_s;
  for (std::size_t attempt = 1; attempt <= params_.max_attempts; ++attempt) {
    ++outcome.attempts;
    if (attempt > 1) {
      ++stats_.retransmits;
      link_->record_retransmit();
      static obs::Counter& net_channel_retransmits =
          obs::registry().counter("net.channel.retransmits");
      net_channel_retransmits.add();
    }
    const Attempt wire = link_->try_transmit(start_s, bytes, rng);
    bool acked = false;
    if (wire.delivered && !wire.corrupted) {
      if (first_arrival_s < 0.0) {
        first_arrival_s = wire.arrival_s;
        if (lp.duplicate_prob > 0.0 && rng.bernoulli(lp.duplicate_prob)) {
          outcome.duplicated = true;
          outcome.duplicate_arrival_s = wire.arrival_s + lp.latency_s;
          link_->record_duplicate();
        }
      } else {
        // A retransmit of a payload the receiver already holds (its ack was
        // lost): deduplicated on arrival, accounted as a link duplicate.
        link_->record_duplicate();
      }
      // The ack crosses the reverse path, modelled with the same loss
      // probability; its serialization time only extends the exchange.
      if (!rng.bernoulli(lp.drop_prob)) {
        acked = true;
        ++stats_.acks;
        static obs::Counter& net_channel_acks = obs::registry().counter("net.channel.acks");
        net_channel_acks.add();
      }
    } else if (wire.delivered && wire.corrupted) {
      // Receiver recomputes the payload checksum, rejects the frame and
      // stays silent — the sender sees a timeout and retransmits, so ack
      // mode *repairs* corruption instead of merely detecting it.
      ++stats_.corrupt_rejected;
      static obs::Counter& net_channel_corrupt_rejected =
          obs::registry().counter("net.channel.corrupt_rejected");
      net_channel_corrupt_rejected.add();
    }
    if (acked) break;
    ++stats_.timeouts;
    static obs::Counter& net_channel_timeouts = obs::registry().counter("net.channel.timeouts");
    net_channel_timeouts.add();
    if (attempt < params_.max_attempts) {
      // Capped exponential backoff with deterministic seeded jitter: retry k
      // waits min(base * 2^(k-1), cap) * (1 + uniform[0, jitter)).
      double wait_s = std::min(
          params_.backoff_base_s *
              static_cast<double>(std::uint64_t{1} << std::min<std::size_t>(attempt - 1, 32)),
          std::max(params_.backoff_cap_s, params_.backoff_base_s));
      if (params_.backoff_jitter > 0.0) {
        wait_s *= 1.0 + rng.uniform(0.0, params_.backoff_jitter);
      }
      ++stats_.backoff_waits;
      stats_.backoff_wait_s += wait_s;
      static obs::Counter& net_channel_backoff_waits =
          obs::registry().counter("net.channel.backoff_waits");
      net_channel_backoff_waits.add();
      start_s = wire.done_s + params_.ack_timeout_s + wait_s;
    }
  }

  if (first_arrival_s >= 0.0) {
    // The payload reached the receiver intact at least once — it is
    // delivered even if every ack was lost and the sender gave up.
    outcome.delivered = true;
    outcome.arrival_s = first_arrival_s;
    ++stats_.delivered;
    link_->record_delivery(bytes);
  } else {
    link_->record_drop();
  }
  return outcome;
}

}  // namespace iotml::net
