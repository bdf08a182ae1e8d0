#include "probe.h"

#include <algorithm>
#include <cstring>

#include "bench_util.h"
#include "devices/firmware.h"
#include "trace.h"

namespace rnlb {

namespace {

// Frame layout (big-endian fields after the Ethernet header):
//   [0,12)  dst/src MAC        [12,14) EtherType 0x88B5 (local experimental)
//   [14,18) magic "RNLB"       [18,20) pair      [20] direction
//   [21]    class              [22]    timed      [23] reserved
//   [24,32) sequence / id      [32,40) due time (ns, monotonic clock)
//   [40,44) FNV-1a over [14,40)
//   [44,N)  per-flow padding pattern
constexpr std::size_t kHeaderEnd = 44;
constexpr std::uint8_t kMagic[4] = {'R', 'N', 'L', 'B'};

std::uint32_t fnv1a32(const std::uint8_t* data, std::size_t size) {
  std::uint32_t hash = 2166136261u;
  for (std::size_t i = 0; i < size; ++i) {
    hash ^= data[i];
    hash *= 16777619u;
  }
  return hash;
}

void put_be(std::uint8_t* out, std::uint64_t value, int bytes) {
  for (int i = bytes - 1; i >= 0; --i) {
    out[i] = static_cast<std::uint8_t>(value);
    value >>= 8;
  }
}

std::uint64_t get_be(const std::uint8_t* in, int bytes) {
  std::uint64_t value = 0;
  for (int i = 0; i < bytes; ++i) value = (value << 8) | in[i];
  return value;
}

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

/// Template frame of flow (pair, dir): header skeleton plus padding drawn
/// from the seed.
rnl::util::Bytes flow_template(std::size_t size, std::uint16_t pair,
                               std::uint8_t dir, std::uint64_t seed) {
  rnl::util::Bytes frame(size, 0);
  const std::uint8_t mac_dst[6] = {0x02, 0, 0, 0, static_cast<std::uint8_t>(pair),
                                   static_cast<std::uint8_t>(dir ^ 1)};
  const std::uint8_t mac_src[6] = {0x02, 0, 0, 0, static_cast<std::uint8_t>(pair),
                                   dir};
  std::memcpy(frame.data(), mac_dst, 6);
  std::memcpy(frame.data() + 6, mac_src, 6);
  frame[12] = 0x88;
  frame[13] = 0xB5;
  std::memcpy(frame.data() + 14, kMagic, 4);
  put_be(frame.data() + 18, pair, 2);
  frame[20] = dir;
  std::uint64_t state = seed ^ (static_cast<std::uint64_t>(pair) << 8) ^ dir;
  for (std::size_t i = kHeaderEnd; i < size; i += 8) {
    std::uint64_t word = splitmix64(state);
    for (std::size_t b = 0; b < 8 && i + b < size; ++b) {
      frame[i + b] = static_cast<std::uint8_t>(word >> (8 * b));
    }
  }
  return frame;
}

}  // namespace

Probe::Probe(rnl::simnet::Network& net, const std::string& name,
             std::size_t frame_bytes, std::uint16_t pair, std::uint8_t dir_out,
             std::uint64_t seed)
    : Device(net, name,
             rnl::devices::FirmwareCatalog::instance().default_image()),
      frame_bytes_(frame_bytes < kHeaderEnd ? kHeaderEnd : frame_bytes),
      pair_(pair),
      dir_out_(dir_out),
      tx_frame_(flow_template(frame_bytes_, pair, dir_out, seed)),
      rx_template_(flow_template(frame_bytes_, pair,
                                 static_cast<std::uint8_t>(dir_out ^ 1), seed)) {
  add_port("eth0");
  port(0).set_receive_handler(
      [this](rnl::util::BytesView frame) { on_frame(frame); });
}

std::string Probe::exec(const std::string& line) {
  if (auto common = handle_common_command(line)) return *common;
  return {};
}

void Probe::stamp(FrameClass cls, std::uint64_t seq, std::int64_t due_ns,
                  bool timed) {
  std::uint8_t* h = tx_frame_.data();
  h[21] = static_cast<std::uint8_t>(cls);
  h[22] = timed ? 1 : 0;
  put_be(h + 24, seq, 8);
  put_be(h + 32, static_cast<std::uint64_t>(due_ns), 8);
  put_be(h + 40, fnv1a32(h + 14, 26), 4);
}

void Probe::send_data(std::int64_t due_ns, bool timed, std::uint32_t count) {
  std::uint64_t seq = tx_data_.load(std::memory_order_relaxed);
  trace::Span span(trace::Kind::kProbe, frame_id(pair_, dir_out_, seq));
  for (std::uint32_t i = 0; i < count; ++i, ++seq) {
    stamp(FrameClass::kData, seq, due_ns, timed);
    port(0).transmit(tx_frame_);
    // Relaxed: single writer; readers compare it with the peer's rx count.
    tx_data_.store(seq + 1, std::memory_order_relaxed);
  }
}

void Probe::send_marker(FrameClass cls, std::uint64_t id) {
  trace::Span span(trace::Kind::kProbe, frame_id(pair_, dir_out_, id));
  stamp(cls, id, now_ns(), false);
  port(0).transmit(tx_frame_);
  ++tx_markers_;
}

void Probe::on_frame(rnl::util::BytesView frame) {
  const std::int64_t now = now_ns();
  const std::uint8_t* h = frame.data();
  const std::uint8_t expected_dir = static_cast<std::uint8_t>(dir_out_ ^ 1);
  if (frame.size() != frame_bytes_ || std::memcmp(h + 14, kMagic, 4) != 0 ||
      get_be(h + 18, 2) != pair_ || h[20] != expected_dir ||
      get_be(h + 40, 4) != fnv1a32(h + 14, 26) ||
      std::memcmp(h + kHeaderEnd, rx_template_.data() + kHeaderEnd,
                  frame_bytes_ - kHeaderEnd) != 0) {
    ++corrupt;
    return;
  }
  const std::uint64_t seq = get_be(h + 24, 8);
  trace::Span span(trace::Kind::kProbe, frame_id(pair_, expected_dir, seq));
  switch (static_cast<FrameClass>(h[21])) {
    case FrameClass::kData: {
      if (seq != rx_next_) ++out_of_order;
      if (seq >= rx_next_) rx_next_ = seq + 1;
      if (h[22] != 0) {
        const auto due = static_cast<std::int64_t>(get_be(h + 32, 8));
        const std::int64_t lat = now - due;
        latency.push_back(
            {static_cast<std::uint32_t>((due - clock_epoch_ns()) / 1000),
             static_cast<std::uint32_t>(std::clamp<std::int64_t>(lat, 0, 0xFFFFFFFFll))});
      }
      last_rx_ns_.store(now, std::memory_order_release);
      // Single writer: a plain increment published with release.
      rx_data_.store(rx_data_.load(std::memory_order_relaxed) + 1,
                     std::memory_order_release);
      break;
    }
    case FrameClass::kDeployProbe:
      marker_rx_ns_.store(now, std::memory_order_release);
      marker_id_.store(seq, std::memory_order_release);
      break;
    case FrameClass::kAfterTeardown:
      ++after_teardown;
      break;
    default:
      ++corrupt;
      break;
  }
}

}  // namespace rnlb
