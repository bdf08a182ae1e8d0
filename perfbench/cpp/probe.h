#pragma once

// Bench-side probe device. One probe sits behind each RIS site with a
// single port; the two probes of a user pair each send one flow toward the
// other and check the flow coming back.
//
// Every probe frame carries its pair, direction, class, sequence number (or
// marker id), the due time it was scheduled for, and a checksum over those
// header fields. The rest of the frame is a per-flow padding pattern drawn
// from the seed; the receiver compares it byte for byte. A frame is
// accepted only if its size, header checksum and padding are intact, and a
// data frame only counts as in order if it carries the next sequence
// number.

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "devices/device.h"
#include "util/bytes.h"

namespace rnlb {

enum class FrameClass : std::uint8_t {
  kData = 0,           // flow traffic (open loop, saturation, background)
  kDeployProbe = 1,    // first frame across a freshly deployed wire
  kAfterTeardown = 2,  // sent after teardown; must never arrive
};

class Probe final : public rnl::devices::Device {
 public:
  /// `dir_out` is the direction id this probe stamps (0: a->b, 1: b->a).
  Probe(rnl::simnet::Network& net, const std::string& name,
        std::size_t frame_bytes, std::uint16_t pair, std::uint8_t dir_out,
        std::uint64_t seed);

  std::string exec(const std::string& line) override;
  [[nodiscard]] std::string prompt() const override { return name() + ">"; }
  [[nodiscard]] std::string running_config() const override { return {}; }

  /// Pair and direction of the flow this probe sends.
  [[nodiscard]] std::uint32_t flow_key() const {
    return (static_cast<std::uint32_t>(pair_) << 8) | dir_out_;
  }
  /// The probe receiving this probe's flow (window checks read its count).
  void set_peer(Probe* peer) { peer_ = peer; }
  [[nodiscard]] Probe* peer() const { return peer_; }

  // -- Transmit side (owner thread only) --

  /// Sends `count` back-to-back data frames stamped with `due_ns`. Frames
  /// with `timed` set are latency samples at the receiver.
  void send_data(std::int64_t due_ns, bool timed, std::uint32_t count);
  /// Sends one marker frame of class `cls` carrying `id`.
  void send_marker(FrameClass cls, std::uint64_t id);
  [[nodiscard]] std::uint64_t tx_frames() const {
    // Relaxed: a monotonic count; readers only compare against rx counts.
    return tx_data_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t tx_markers() const { return tx_markers_; }

  // Open-loop sender state, owned by the sending thread.
  std::int64_t next_due_ns = 0;
  std::uint64_t drive_generation = 0;
  std::int64_t max_lateness_ns = 0;

  // -- Receive side --

  /// Intact data frames received (in order or not).
  [[nodiscard]] std::uint64_t rx_frames() const {
    return rx_data_.load(std::memory_order_acquire);
  }
  [[nodiscard]] std::int64_t last_rx_ns() const {
    return last_rx_ns_.load(std::memory_order_acquire);
  }
  /// Id and arrival time of the last deploy probe received.
  [[nodiscard]] std::uint64_t marker_id() const {
    return marker_id_.load(std::memory_order_acquire);
  }
  [[nodiscard]] std::int64_t marker_rx_ns() const {
    return marker_rx_ns_.load(std::memory_order_acquire);
  }

  /// Owner-thread tallies; read after the owning thread has stopped.
  std::uint64_t out_of_order = 0;
  std::uint64_t corrupt = 0;
  std::uint64_t after_teardown = 0;
  /// Timed frames, 8 bytes each so the samples barely show in peak RSS:
  /// due time in us since the process's first clock read, and ns from the
  /// due time to arrival here.
  struct Timed {
    std::uint32_t due_us;
    std::uint32_t latency_ns;
  };
  std::vector<Timed> latency;

 private:
  void on_frame(rnl::util::BytesView frame);
  void stamp(FrameClass cls, std::uint64_t seq, std::int64_t due_ns,
             bool timed);

  std::size_t frame_bytes_;
  std::uint16_t pair_;
  std::uint8_t dir_out_;
  Probe* peer_ = nullptr;
  rnl::util::Bytes tx_frame_;     // reused: only the header changes per frame
  rnl::util::Bytes rx_template_;  // expected padding of the incoming flow
  std::atomic<std::uint64_t> tx_data_{0};
  std::uint64_t tx_markers_ = 0;
  std::uint64_t rx_next_ = 0;
  std::atomic<std::uint64_t> rx_data_{0};
  std::atomic<std::int64_t> last_rx_ns_{0};
  std::atomic<std::uint64_t> marker_id_{0};
  std::atomic<std::int64_t> marker_rx_ns_{0};
};

/// Id carried by probe spans: pair, direction and sequence number.
inline std::uint64_t frame_id(std::uint16_t pair, std::uint8_t dir,
                              std::uint64_t seq) {
  return (static_cast<std::uint64_t>(pair) << 48) |
         (static_cast<std::uint64_t>(dir) << 40) | (seq & 0xFFFFFFFFFFull);
}

}  // namespace rnlb
