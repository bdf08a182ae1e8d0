#pragma once

// Outside-in tracing seam. The benchmark records spans around the calls it
// makes into each layer and around the callbacks each layer makes back out
// (transport sends and receive handlers), never inside the library. A span
// carries its kind, start, end, parent and — for probe work — the probe's
// frame id. Self time is a span's duration minus the time its child spans
// cover; summing self time per kind gives the per-layer breakdown.
//
// Spans are recorded per thread into heap-owned logs (shard threads exit
// before the report is built) and attributed to the phase that was current
// when they opened. Phase kOff records nothing: the untraced sub-windows of
// the traced pass and the whole untraced pass run with recording off, and
// the untraced pass does not install the decorators at all.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/api.h"
#include "routeserver/sharded.h"
#include "simnet/network.h"
#include "transport/tcp.h"
#include "transport/transport.h"
#include "util/json.h"

namespace rnlb::trace {

namespace core = rnl::core;
namespace routeserver = rnl::routeserver;
namespace simnet = rnl::simnet;
namespace transport = rnl::transport;
namespace util = rnl::util;
namespace wire = rnl::wire;

enum class Kind : std::uint8_t {
  kSendServer,   // Transport::send on a route-server end (egress)
  kSendRis,      // Transport::send on a RIS end (uplink)
  kIngest,       // route-server end receive handler
  kReplay,       // RIS end receive handler
  kRunFor,       // Scheduler::run_for (simnet dispatch + RIS capture path)
  kPoll,         // TcpEventLoop::run_once
  kShardLoop,    // shard loop outside the bench pump (sharded only)
  kPump,         // the bench's shard pump
  kProbe,        // probe device work (emit / receive check)
  kApiDesign,    // ApiServer::handle, design.* methods
  kApiReserve,   // ApiServer::handle, reserve
  kApiDeploy,    // ApiServer::handle, deploy
  kApiTeardown,  // ApiServer::handle, teardown
  kApiRead,      // ApiServer::handle, inventory.list / stats
  kConnect,      // ShardedRouteServer::connect_ports
  kCount
};
constexpr std::size_t kKinds = static_cast<std::size_t>(Kind::kCount);
const char* kind_name(Kind kind);

enum Phase : int { kOff = 0, kChurn = 1, kOpen = 2, kSat = 3, kPhases = 4 };

/// Per (phase, kind) accumulator. `aux` is a kind-specific count (bytes
/// sent, simnet events, empty polls, decoded frames); `aux_max` a
/// kind-specific high-water mark (queued egress bytes after a send).
struct Acc {
  std::uint64_t count = 0;
  std::int64_t total_ns = 0;
  std::int64_t self_ns = 0;
  std::uint64_t aux = 0;
  std::uint64_t aux_max = 0;

  void merge(const Acc& other) {
    count += other.count;
    total_ns += other.total_ns;
    self_ns += other.self_ns;
    aux += other.aux;
    if (other.aux_max > aux_max) aux_max = other.aux_max;
  }
};

struct RawSpan {
  std::int64_t start = 0;
  std::int64_t end = 0;
  std::int32_t parent = -1;  // index into the same thread's raw spans
  Kind kind = Kind::kCount;
  std::uint8_t phase = 0;
  std::uint64_t frame = 0;
};

/// One thread's spans. Written only by its thread; read after the thread
/// has been joined (or, for the main thread, after the run). Every span
/// lands in `acc`; only the first kRawCap are also kept raw for the dump.
struct ThreadLog {
  static constexpr std::size_t kRawCap = 1 << 17;
  Acc acc[kPhases][kKinds];
  std::vector<RawSpan> raw;
  struct Open {
    Kind kind;
    std::uint8_t phase;
    std::int64_t start;
    std::int64_t child_ns;
    std::int32_t raw_index;
  };
  std::vector<Open> stack;
};

/// Recording phase (kOff disables recording).
void set_phase(int phase);
int phase();

/// Opens a span on this thread if recording; returns whether it did.
bool begin(Kind kind, std::uint64_t frame = 0);
/// Closes this thread's innermost span.
void end();
/// Closes this thread's innermost span if it is of `kind`.
void end_if(Kind kind);
/// Adds to / raises the innermost open span's accumulator aux fields.
void add_aux(std::uint64_t value);
void max_aux(std::uint64_t value);

class Span {
 public:
  explicit Span(Kind kind, std::uint64_t frame = 0)
      : open_(begin(kind, frame)) {}
  ~Span() {
    if (open_) end();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  [[nodiscard]] bool open() const { return open_; }

 private:
  bool open_;
};

/// Every thread log created so far (stable pointers).
std::vector<ThreadLog*> all_logs();
/// Sum of one phase's accumulators over every thread.
std::vector<Acc> totals(int phase);
/// Writes every thread's raw spans as CSV to `path`.
bool write_spans(const std::string& path);

/// The first kByteCap inbound bytes of one route-server connection, recorded
/// from the connection's start (so the stream decodes from a message
/// boundary) for timing the tunnel decoder after the run.
struct WireCapture {
  static constexpr std::size_t kByteCap = 2u << 20;
  std::vector<util::Bytes> chunks;
  std::size_t bytes = 0;
  bool full = false;  // a chunk did not fit: stop so the stream stays whole
};

/// Decorator over a transport end handed to RouteServer::accept,
/// ShardedRouteServer::accept or RouterInterface::join: times send() and the
/// receive handler the owner installs. Installed only in the traced pass.
class TimedTransport final : public transport::Transport {
 public:
  enum class Role { kServerEnd, kRisEnd };
  TimedTransport(std::unique_ptr<transport::Transport> inner, Role role,
                 WireCapture* capture = nullptr);

  void send(util::BytesView bytes) override;
  void close() override { inner_->close(); }
  [[nodiscard]] bool is_open() const override { return inner_->is_open(); }
  void set_receive_handler(ReceiveHandler handler) override;
  void set_close_handler(CloseHandler handler) override {
    inner_->set_close_handler(std::move(handler));
  }
  [[nodiscard]] std::size_t queued_bytes() const override {
    return inner_->queued_bytes();
  }
  void set_egress_watermarks(std::size_t high, std::size_t low) override {
    inner_->set_egress_watermarks(high, low);
  }
  [[nodiscard]] bool writable() const override { return inner_->writable(); }
  void set_drain_handler(DrainHandler handler) override {
    inner_->set_drain_handler(std::move(handler));
  }

 private:
  std::unique_ptr<transport::Transport> inner_;
  Role role_;
  WireCapture* capture_;
};

/// Wraps `end` in a TimedTransport when `traced`, else passes it through.
std::unique_ptr<transport::Transport> maybe_wrap(
    std::unique_ptr<transport::Transport> end, TimedTransport::Role role,
    bool traced, WireCapture* capture = nullptr);

// -- Timed call wrappers (record only while a phase is on) --
std::size_t run_for(simnet::Network& net, util::Duration d);
std::size_t run_once(transport::TcpEventLoop& loop);
util::Json handle(core::ApiServer& api, const util::Json& request, Kind kind);
util::Status connect_ports(routeserver::ShardedRouteServer& server,
                           wire::PortId a, wire::PortId b);

/// Replays captured uplink bytes through fresh tunnel decoders; returns
/// {elapsed ns, data frames decoded}.
std::pair<std::int64_t, std::uint64_t> replay_decode(
    const std::vector<WireCapture*>& captures);

}  // namespace rnlb::trace
