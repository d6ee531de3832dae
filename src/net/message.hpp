#pragma once

#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "data/dataset.hpp"

namespace iotml::net {

/// Fixed per-message framing overhead (ids, addresses, timestamps). The
/// trace context (8-byte trace id + 2-byte hop index, see TraceContext)
/// rides inside this allowance — real telemetry headers pack alongside the
/// addressing fields, so tracing adds no marginal wire cost and enabling it
/// changes no simulated number.
inline constexpr std::size_t kMessageHeaderBytes = 24;

/// Causal trace tag carried on every message. `id` names this frame in the
/// journey log; `hop` counts wire hops from the stream's originator (0 for
/// device->edge uplink or core->edge downlink, 1 for the second hop).
/// Retransmits of a frame keep its context — a retry is the same causal
/// step, just a later attempt.
struct TraceContext {
  std::uint64_t id = 0;
  std::uint16_t hop = 0;
};

/// On-the-wire byte cost of a TraceContext (id + hop), accounted inside
/// kMessageHeaderBytes.
inline constexpr std::size_t kTraceContextBytes = 10;
static_assert(kTraceContextBytes < kMessageHeaderBytes,
              "trace context must fit inside the fixed header allowance");

/// One dataset chunk in flight between tiers. `origin_s` carries the
/// virtual creation time of every device chunk folded into the payload, so
/// the core can account a full end-to-end latency distribution even after
/// edge-side batching.
///
/// Ownership: a payload has one owner at a time and is moved, never copied,
/// per hop — from the sender's buffer into the message, and at arrival into
/// the receiver's buffer. The one non-duplicate arrival consumes the message:
/// it moves `payload` out (or drops it: corrupt frame, dead receiver) and
/// clears `tdf_frame`, so nothing already forwarded stays retained. A
/// straggler duplicate reads only the header fields.
struct Message {
  std::uint64_t id = 0;
  std::size_t src = 0;
  std::size_t dst = 0;
  double sent_s = 0.0;
  std::uint64_t checksum = 0;  ///< payload_checksum() stamped at send time
  TraceContext trace;          ///< causal tag, preserved across retries
  std::vector<double> origin_s;
  data::Dataset payload;

  /// When non-empty, this message's rows crossed the wire as an encoded
  /// TDF telemetry frame (src/tdf/) instead of the abstract payload model:
  /// the link is charged header + frame bytes (origins ride inside the
  /// frame), and the receiver decodes the frame back to rows. `payload`
  /// then holds the device-encoded rows the decode must reproduce
  /// byte-for-byte — simulator-side ground truth, not wire bytes.
  std::vector<std::uint8_t> tdf_frame;
};
static_assert(std::is_nothrow_move_constructible_v<Message>,
              "message-table growth must move payloads, not copy them");

/// FNV-1a over the payload's shape, column names, presence bitmap, labels
/// and cell bits. Senders stamp Message::checksum with this; receivers
/// recompute and reject any frame whose stored and recomputed sums differ —
/// a corrupted payload is detected, never silently scored.
std::uint64_t payload_checksum(const data::Dataset& ds);

/// Serialization cost model for a dataset on the wire: a small per-column
/// header (name + type tag), 8 bytes per numeric cell, 2 bytes per
/// categorical cell (dictionary index), and a presence bitmap of one bit
/// per cell. NaN-valued numeric cells are charged as missing (bitmap bit
/// only) — the real telemetry codec normalizes NaN readings to missing on
/// the wire, and the counterfactual ledger must compare like with like.
/// This is what a compact row-batch encoding costs, and it is what the
/// link bandwidth model charges.
std::size_t wire_size_bytes(const data::Dataset& ds);

/// Full wire size of a message: header + payload + 8 bytes per origin
/// stamp — or header + encoded frame when the message carries a TDF frame
/// (whose origins ride inside it).
std::size_t wire_size_bytes(const Message& m);

}  // namespace iotml::net
