#pragma once

// Template-based packet compression (§4, "Compression").
//
// "Performance testing packets often look similar to one another. They are
// often generated from the same template, where each packet may have a
// slight different marking, for example, having a different sequence number.
// By exploiting the similarities across packets, we could achieve a high
// compression ratio."
//
// Scheme: each side of a tunnel connection keeps a ring of the last
// kRingSize recorded frames that crossed it (in stream order — the transport
// is reliable and ordered, so encoder and decoder rings stay in lockstep).
// Rings advance only on recorded frames: everything the compressor saw,
// whether it went out compressed or raw. A frame sent while the sender's
// compression is off carries wire::kFlagUnrecorded and neither ring records
// it. A frame is encoded as a byte-aligned diff against the best recent
// reference: alternating copy-from-reference / literal runs. Template
// traffic collapses to a few bytes; incompressible traffic is sent raw (the
// codec returns nullopt and the caller clears the compressed flag).

#include <array>
#include <cstdint>
#include <optional>

#include "util/bytes.h"
#include "util/metrics.h"
#include "util/result.h"

namespace rnl::wire {

struct CompressionStats {
  std::uint64_t frames_in = 0;
  std::uint64_t frames_compressed = 0;
  std::uint64_t bytes_in = 0;
  std::uint64_t bytes_out = 0;  // compressed frames only

  [[nodiscard]] double ratio() const {
    return bytes_out == 0 ? 1.0
                          : static_cast<double>(bytes_in) /
                                static_cast<double>(bytes_out);
  }
};

class TemplateCompressor {
 public:
  /// Ring capacity is a protocol constant (the decoder must be able to
  /// resolve any reference age the encoder emits); the encoder's search
  /// depth is a local cost/ratio trade-off and is tunable per instance
  /// (see bench_ablation_compression).
  static constexpr std::size_t kRingSize = 16;
  static constexpr std::size_t kDefaultSearchDepth = 8;

  explicit TemplateCompressor(
      std::size_t search_depth = kDefaultSearchDepth)
      : search_depth_(search_depth > kRingSize ? kRingSize : search_depth) {}

  /// Attempts to compress `frame`. Returns the encoded bytes if strictly
  /// smaller than the original, nullopt otherwise. Either way the caller
  /// MUST send the frame (raw or compressed, never flagged unrecorded) and
  /// the codec records it as the newest ring entry — encoder and decoder
  /// see the same history.
  std::optional<util::Bytes> compress(util::BytesView frame);

  /// Forgets the entire reference ring. Lockstep is per *session*: when the
  /// tunnel is re-established (peer restart, RIS reconnect) the other side
  /// starts from an empty ring, so continuing to emit references against
  /// pre-restart history would desynchronize the codec permanently. Both
  /// ends call reset() when a new session epoch begins. Cumulative stats
  /// survive the reset — only the compression state is per-session.
  void reset();

  [[nodiscard]] const CompressionStats& stats() const { return stats_; }
  [[nodiscard]] std::size_t search_depth() const { return search_depth_; }

  /// Each successfully compressed frame records its per-frame ratio x100
  /// (100 = 1.0x, 2500 = 25x) into `histogram` — the paper's
  /// template-traffic claim as a distribution. Non-owning; nullptr disables.
  void set_ratio_histogram(util::Histogram* histogram) {
    ratio_hist_ = histogram;
  }

 private:
  std::size_t search_depth_;
  std::array<util::Bytes, kRingSize> ring_;
  std::uint64_t count_ = 0;  // frames committed so far
  CompressionStats stats_;
  util::Histogram* ratio_hist_ = nullptr;
};

class TemplateDecompressor {
 public:
  /// Inflates an encoded frame. On success the original is recorded in the
  /// ring. Recorded raw frames (no wire::kFlagUnrecorded) must be recorded
  /// via note_raw so the rings stay aligned; unrecorded ones must not be.
  util::Result<util::Bytes> decompress(util::BytesView encoded);
  void note_raw(util::BytesView frame);
  /// Forgets the reference ring (see TemplateCompressor::reset).
  void reset();

 private:
  std::array<util::Bytes, TemplateCompressor::kRingSize> ring_;
  std::uint64_t count_ = 0;
};

}  // namespace rnl::wire
