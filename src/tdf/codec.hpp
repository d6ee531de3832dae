#pragma once

#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "data/dataset.hpp"
#include "tdf/schema.hpp"

namespace iotml::tdf {

/// "IOTF" frame magic, little-endian on the wire like every other format in
/// the tree ("IOTP" ota patches, deploy artifacts).
inline constexpr std::uint8_t kFrameMagic[4] = {'I', 'O', 'T', 'F'};
inline constexpr std::uint8_t kFrameVersion = 1;

/// Frame flag bits.
inline constexpr std::uint8_t kFlagSchemaInline = 0x01;

/// Fixed frame cost before the column blocks: magic(4) + version(1) +
/// flags(1) + schema id(4) + device(4) + seq(4) + rows(2) + cols(2), plus
/// the FNV-1a32 trailer(4).
inline constexpr std::size_t kFrameOverheadBytes = 26;

/// What a frame decodes back to.
struct Frame {
  std::uint32_t schema_id = 0;
  std::uint32_t device_id = 0;
  std::uint32_t seq = 0;
  bool schema_inline = false;
  data::Dataset rows;
  std::vector<double> origin_s;
};
static_assert(std::is_nothrow_move_constructible_v<Frame>,
              "decoded rows move into the edge buffer");

/// Quantize a dataset in place to the wire resolution: every numeric cell
/// is rounded to the nearest multiple of 2^-scale_bits (half away from
/// zero), and NaN-valued cells are normalized to missing — a NaN reading
/// carries no more telemetry than no reading, so the codec charges both
/// one presence bit (net::wire_size_bytes prices the legacy model the same
/// way, keeping the counterfactual ledger like-with-like). Quantized values
/// are dyadic rationals, exactly representable in a double: re-quantizing
/// is the identity, and the frame codec's scaled-integer fast path engages.
void quantize(data::Dataset& ds, std::uint8_t scale_bits);

/// Quantize one value (NaN and infinities pass through untouched; the
/// encoder handles non-finite cells via the raw-bits path or the missing
/// bitmap).
double quantize_value(double v, std::uint8_t scale_bits);

/// Encode one batch of rows as a TDF frame. Column blocks are tagged per
/// column per frame: scaled varint deltas (or delta-of-deltas — whichever
/// is smaller; timestamps collapse to ~1 byte/row this way) when every
/// present value is representable at the schema's fixed-point scale, a
/// lossless XOR-of-previous raw-bits varint stream otherwise, and an
/// inline dictionary + varint codes for categorical columns. Missing cells
/// cost one presence-bitmap bit; all-present columns skip the bitmap.
///
/// `origin_s` rides in the frame (delta-encoded) so the wire carries the
/// provenance timestamps the simulator otherwise prices at 8 bytes each.
/// When `include_schema` is set the negotiation blob is embedded — the
/// once-per-session handshake. The dataset's columns must match the schema
/// field-for-field; labels must be absent (device telemetry never uplinks
/// ground truth). Throws InvalidArgument on mismatch.
std::vector<std::uint8_t> encode_frame(const Schema& schema,
                                       const data::Dataset& ds,
                                       const std::vector<double>& origin_s,
                                       std::uint32_t device_id, std::uint32_t seq,
                                       bool include_schema);

/// Decode a frame. Inline schemas are registered into `registry`
/// (idempotently); frames referencing an unknown schema id throw. Any
/// structural damage — bad magic, truncation, a flipped bit anywhere (the
/// FNV-1a32 trailer is verified first) — throws InvalidArgument, so corrupt
/// frames are rejected before a single cell is materialized.
Frame decode_frame(const std::vector<std::uint8_t>& bytes, SchemaRegistry& registry);

/// Cheap structural check: magic, version and trailer checksum only. What a
/// receiver uses to reject a damaged frame without attempting a decode.
bool frame_intact(const std::vector<std::uint8_t>& bytes);

}  // namespace iotml::tdf
