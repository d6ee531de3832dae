#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace iotml::ota {

/// Chunked transport of an encoded patch. The sender splits the patch byte
/// stream into fixed-size chunks, each framed with the target version id,
/// its index, the chunk count, the total patch size and an FNV-1a32 over
/// the payload — so every chunk is independently verifiable and a transfer
/// interrupted at any point resumes from exactly the chunks that are still
/// missing. The device never touches its current image until the whole
/// patch has been reassembled, decoded and applied (see DeviceImageStore),
/// which is what makes a mid-patch crash harmless: the staged chunks are
/// either resumed or discarded, the running image is never torn.

/// Per-chunk framing bytes on the wire: version id + index + count +
/// patch size + payload checksum, each u32.
inline constexpr std::size_t kChunkFramingBytes = 20;

/// Largest patch a receiver stages. A frame claiming more is rejected
/// before anything is allocated, so a frame's u32 `patch_size` cannot make
/// the receiver commit gigabytes. Compiled-model patches are hundreds of
/// bytes to a few KB. Staging holds `patch_size` bytes plus one flag per
/// chunk, and every chunk carries at least one byte, so a transfer never
/// stages more than twice this.
inline constexpr std::size_t kMaxPatchBytes = std::size_t{1} << 20;

/// One chunk frame. `payload` is patch bytes [index*chunk, ...); `checksum`
/// is FNV-1a32 over the payload, verified by the applier before the chunk
/// is accepted.
struct ChunkFrame {
  std::uint32_t version_id = 0;   ///< target version this chunk belongs to
  std::uint32_t index = 0;
  std::uint32_t total = 0;        ///< chunk count of the whole patch
  std::uint32_t patch_size = 0;   ///< encoded patch bytes overall
  std::vector<std::uint8_t> payload;
  std::uint32_t checksum = 0;

  std::size_t wire_bytes() const noexcept {
    return kChunkFramingBytes + payload.size();
  }
};

/// Sender-side view of an encoded patch split into fixed-size chunks.
/// Throws InvalidArgument when chunk_bytes == 0 or the patch is empty.
class ChunkedPatch {
 public:
  ChunkedPatch() = default;
  ChunkedPatch(std::vector<std::uint8_t> patch_bytes, std::size_t chunk_bytes,
               std::uint32_t version_id);

  std::size_t num_chunks() const noexcept { return num_chunks_; }
  std::size_t chunk_bytes() const noexcept { return chunk_bytes_; }
  std::uint32_t version_id() const noexcept { return version_id_; }
  const std::vector<std::uint8_t>& patch_bytes() const noexcept { return bytes_; }
  bool empty() const noexcept { return bytes_.empty(); }

  /// Build the frame for chunk `index` (checksum included). Throws
  /// InvalidArgument when index is out of range.
  ChunkFrame frame(std::size_t index) const;

  /// Wire bytes of every chunk frame summed — what one loss-free transfer
  /// of this patch costs on a single hop.
  std::size_t total_wire_bytes() const noexcept;

 private:
  std::vector<std::uint8_t> bytes_;
  std::size_t chunk_bytes_ = 0;
  std::size_t num_chunks_ = 0;
  std::uint32_t version_id_ = 0;
};

/// Receiver-side resumable reassembly. Chunks arrive in any order, possibly
/// duplicated, possibly corrupt; the applier verifies each frame's checksum
/// and consistency with the announced transfer shape (at most
/// kMaxPatchBytes) before accepting it, and stages its payload in place in
/// one patch-sized buffer. `missing()` drives resume rounds; `complete()`
/// gates the commit.
class PatchApplier {
 public:
  PatchApplier() = default;

  enum class Accept : std::uint8_t {
    kAccepted,          ///< fresh chunk, checksum verified, stored
    kDuplicate,         ///< already held (idempotent)
    kChecksumMismatch,  ///< payload does not hash to the stamped checksum
    kShapeMismatch      ///< frame disagrees with the announced transfer
  };

  /// Feed one chunk frame. The first accepted frame fixes the transfer
  /// shape (version id, chunk count, patch size); later frames must agree.
  /// A frame claiming a patch over kMaxPatchBytes is a shape mismatch.
  Accept accept(const ChunkFrame& frame);

  /// Drop all staged state (a canceled or superseded transfer). The
  /// device's running image is untouched by construction.
  void reset();

  bool started() const noexcept { return total_ > 0; }
  std::uint32_t version_id() const noexcept { return version_id_; }
  std::size_t verified_chunks() const noexcept { return verified_; }
  std::size_t total_chunks() const noexcept { return total_; }
  bool complete() const noexcept { return total_ > 0 && verified_ == total_; }

  /// Chunk indices not yet verified, ascending. Empty before the first
  /// accepted frame (the shape is unknown) and when complete.
  std::vector<std::size_t> missing() const;

  /// The reassembled patch bytes. Throws InvalidArgument unless complete().
  std::vector<std::uint8_t> assemble() const;

 private:
  std::uint32_t version_id_ = 0;
  std::size_t total_ = 0;
  std::size_t patch_size_ = 0;
  std::size_t whole_ = 0;  ///< sender's fixed chunk size, learned from frames
  std::size_t verified_ = 0;
  std::vector<std::uint8_t> have_;    ///< per-chunk verified flag
  std::vector<std::uint8_t> staged_;  ///< patch bytes; chunk i at i * whole_
};

}  // namespace iotml::ota
