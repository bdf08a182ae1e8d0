#pragma once

// Shard-per-core route server (§4 scaled out; DESIGN.md §12).
//
// The paper's answer to the central route server bottleneck is *distributed*
// route servers — one per user, since "routing matrices of different users
// never overlap". This layer finishes that thought for one process: N
// independent RouteServer shards, each a complete single-threaded world
// (own scheduler slice, own MetricsRegistry, own flat port tables, capture
// taps, egress regimes and coalesced egress queues), placed by hashing the
// site (lab/user) name. A shard never takes a lock on its per-frame path;
// everything crossing shard boundaries goes through exactly two mechanisms:
//
//   - Cross-shard wires: when a deployed design really does wire two ports
//     owned by different shards, each side installs a remote WireEnd
//     (RouteServer::connect_port_remote). Frames crossing over are copied
//     into one open batch per destination shard, in tunnel framing, and
//     each batch goes as one element through a lock-free SPSC ring
//     (util::SpscRing) toward the owning shard at the producer's end of
//     burst — one ring per ordered shard pair, so single-producer/single-
//     consumer holds by construction. A full ring drops the batch and
//     counts its frames, like a congested physical wire.
//   - Command queues: rare control-plane work (place a joining site, clear
//     the far end of a torn-down wire, snapshot stats/metrics) is posted to
//     the owning shard's mutex-guarded queue and runs on its thread between
//     bursts. run_on_shard() posts and waits; shards themselves only ever
//     post (never wait), so there is no cross-shard deadlock.
//
// Id space: shard s hands out router/port ids s+1, s+1+N, ... (stride N via
// RouteServer::set_id_allocation), so ids are process-unique and any port
// maps to its owner in one modulo — no shared allocator, no lookup table.
//
// Threading modes: cooperative (no start(); the caller pumps every shard
// from one thread — deterministic tests, sim worlds sharing a scheduler)
// and threaded (start() spawns one loop thread per shard; stop() joins).
// Snapshot APIs (stats, metrics_json, inventory) work in both: they hop to
// each shard via run_on_shard and merge, so probe callbacks always read
// their instruments from the owning thread.

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "routeserver/routeserver.h"
#include "util/spsc.h"

namespace rnl::routeserver {

/// One burst's frames from one shard to another, the element of a
/// cross-shard wire ring. `bytes` holds `frames` kData tunnel messages
/// (wire::encode_message_into), each addressed by port id to a port the
/// consumer shard owns and carrying its trace id: a shard link carries the
/// same bytes a site link does. An owning copy, because the producer's
/// views die with its decode burst.
struct CrossShardBatch {
  util::Bytes bytes;
  std::uint32_t frames = 0;
};

class ShardedRouteServer {
 public:
  static constexpr std::size_t kDefaultWireRingCapacity = 4096;

  struct Options {
    std::size_t shards = 1;
    /// Base seed for internally-owned shard schedulers (shard s gets
    /// derive_seed(seed, "shard<s>")).
    std::uint64_t seed = 1;
    /// Slots per cross-shard wire ring (rounded up to a power of two). A
    /// slot holds one batch: the frames one burst sent toward that shard.
    /// The wire also admits at most this many frames in flight, so it
    /// congests at the depth it did when each slot held one frame.
    std::size_t wire_ring_capacity = kDefaultWireRingCapacity;
    /// Virtual time each pump iteration advances a shard's scheduler.
    util::Duration pump_slice{util::Duration::microseconds(100)};
    /// Optional external schedulers, one per shard (sim benches own the
    /// shard worlds; the shard loop then drives RIS sites and the server
    /// slice together). Empty: each shard owns a fresh scheduler.
    std::vector<simnet::Scheduler*> schedulers;
    /// Optional shared tracer: each shard registers a distinct span ring
    /// ("shard<s>") and its forward histogram joins the tail aggregation.
    util::Tracer* tracer = nullptr;
  };

  explicit ShardedRouteServer(Options options);
  ~ShardedRouteServer();
  ShardedRouteServer(const ShardedRouteServer&) = delete;
  ShardedRouteServer& operator=(const ShardedRouteServer&) = delete;

  [[nodiscard]] std::size_t shard_count() const { return shards_.size(); }
  /// Owner of a (striped) port id: (id - 1) % shard_count.
  [[nodiscard]] static std::size_t shard_of_port(wire::PortId port,
                                                 std::size_t shard_count);
  [[nodiscard]] std::size_t shard_of_port(wire::PortId port) const {
    return shard_of_port(port, shards_.size());
  }
  /// Placement hash (FNV-1a of the site name, mod shard count) — the
  /// matrix already partitions by lab/user, so hashing the site name keeps
  /// almost every wire shard-local.
  [[nodiscard]] std::size_t shard_of_site(std::string_view site_name) const;

  /// Direct shard access. Control-plane calls into a shard's RouteServer
  /// must run on its thread (run_on_shard) once start() has been called.
  [[nodiscard]] RouteServer& shard(std::size_t s) {
    return *shards_[s]->server;
  }
  [[nodiscard]] util::MetricsRegistry& shard_metrics(std::size_t s) {
    return *shards_[s]->metrics;
  }
  [[nodiscard]] simnet::Scheduler& shard_scheduler(std::size_t s) {
    return *shards_[s]->scheduler;
  }

  // -- Site intake --

  /// Hands a transport whose site is already known to belong to shard `s`
  /// (cooperative mode, or from a command already on the shard's thread).
  void accept(std::size_t s, std::unique_ptr<transport::Transport> transport);

  /// Front door: buffers the connection, sniffs the JOIN to learn the site
  /// name, and places it on hash(site_name) at the next pump_dispatch().
  /// The transport's callbacks keep firing on the calling (dispatch)
  /// thread until placement.
  void dispatch(std::unique_ptr<transport::Transport> transport);
  /// Places every pending connection whose JOIN has arrived and reaps
  /// failed ones. Call from the dispatch thread's loop — never from inside
  /// a transport callback (placement re-targets the handlers).
  void pump_dispatch();
  [[nodiscard]] std::size_t pending_dispatch() const {
    return pending_.size();
  }
  /// Threaded placement hook: invoked by pump_dispatch with the target
  /// shard, the transport, and the bytes buffered pre-JOIN. Needed because
  /// a live transport is bound to the dispatch thread's event loop; the
  /// handler migrates it (e.g. TcpTransport::release_fd + rewrap on the
  /// shard's loop) and posts the accept. Without a handler, cooperative
  /// mode places inline; threaded mode refuses (logged + closed).
  using PlacementHandler = std::function<void(
      std::size_t, std::unique_ptr<transport::Transport>, util::Bytes)>;
  void set_placement_handler(PlacementHandler handler) {
    placement_ = std::move(handler);
  }

  // -- Control plane (callable from the control thread in either mode) --

  /// Wires two ports; same-shard pairs use the shard's local matrix,
  /// cross-shard pairs install one remote end per side.
  util::Status connect_ports(wire::PortId a, wire::PortId b,
                             wire::NetemProfile wan = {});
  void disconnect_port(wire::PortId port);
  [[nodiscard]] std::vector<InventoryRouter> inventory();
  /// Resolves ("router name", "port name") against the merged inventory.
  [[nodiscard]] wire::PortId port_id(std::string_view router_name,
                                     std::string_view port_name);
  [[nodiscard]] RouteServerStats stats();
  /// Per-shard registry snapshots merged into one registry-shaped Json
  /// (MetricsRegistry::merge_snapshots).
  [[nodiscard]] util::Json metrics_json();
  [[nodiscard]] std::size_t wire_count();
  /// Frames dropped on full cross-shard rings (every frame of a dropped
  /// batch counts).
  [[nodiscard]] std::uint64_t cross_shard_ring_drops() const;
  /// The ring carrying batches from shard `from` to shard `to`.
  [[nodiscard]] const util::SpscRing<CrossShardBatch>& wire_ring(
      std::size_t to, std::size_t from) const {
    return shards_[to]->inbound[from]->ring;
  }

  // -- Threading --

  /// Spawns one loop thread per shard: drain commands, drain wire rings,
  /// run the optional per-shard pump, advance the scheduler one slice.
  void start();
  /// Stops and joins all shard threads (final drain included). Idempotent.
  void stop();
  [[nodiscard]] bool running() const {
    return running_.load(std::memory_order_acquire);
  }
  /// Extra per-iteration work on shard `s`'s thread (e.g. a TcpEventLoop
  /// run_once). Returns whether it did anything; an idle iteration (no
  /// commands, no ring frames, no scheduler events, pump false) sleeps
  /// briefly so parked shards do not spin. Set before start().
  void set_shard_pump(std::size_t s, std::function<bool()> pump);
  /// Fire-and-forget command on shard `s` (thread-safe; shards use this to
  /// reach each other). Runs inline at the next pump in cooperative mode.
  void post(std::size_t s, std::function<void()> fn);
  /// Posts and waits (spin-yield). Control thread only — a shard calling
  /// this would stall its own loop.
  void run_on_shard(std::size_t s, std::function<void()> fn);
  /// Cooperative mode: one pump iteration for every shard plus dispatch.
  void pump_all();

  /// CPU seconds shard `s`'s loop thread has consumed
  /// (CLOCK_THREAD_CPUTIME_ID; 0 before start()). On a box with fewer
  /// cores than shards, max-over-shards of this is the scaling bench's
  /// critical-path denominator — see bench_routeserver_scaling.
  [[nodiscard]] double shard_cpu_seconds(std::size_t s) const;

 private:
  /// One cross-shard wire, shared by its producer and consumer shards.
  struct InboundWire {
    explicit InboundWire(std::size_t capacity) : ring(capacity) {}
    /// Synchronized by its own per-slot sequence words (util/spsc.h).
    util::SpscRing<CrossShardBatch> ring;
    /// Frames in batches pushed and not yet popped: the producer reserves
    /// before pushing and admits a batch only while this stays within the
    /// ring's capacity; the consumer releases after popping.
    std::atomic<std::uint64_t> queued_frames{0};
  };

  struct OpenBatch {
    util::ByteWriter writer;
    std::uint32_t frames = 0;
    /// Size of the last pushed batch: the next one reserves it up front.
    std::size_t size_hint = 0;
  };

  struct Shard {
    std::unique_ptr<simnet::Scheduler> owned_scheduler;
    simnet::Scheduler* scheduler = nullptr;
    std::unique_ptr<util::MetricsRegistry> metrics;
    std::unique_ptr<RouteServer> server;
    /// inbound[p]: the wire from producer shard p (SPSC: p's thread pushes,
    /// this shard's thread pops).
    std::vector<std::unique_ptr<InboundWire>> inbound;
    /// outbound[d]: the open batch toward shard d (this shard's thread
    /// only), pushed at the end of each burst or at the byte cap.
    std::vector<OpenBatch> outbound;
    /// Decodes popped inbound batches (this shard's thread only).
    wire::MessageDecoder inbound_decoder;
    /// Frames in batches this shard could not push (full ring). Written by
    /// this shard's thread only.
    std::atomic<std::uint64_t> ring_frame_drops{0};
    std::mutex command_mutex;
    std::deque<std::function<void()>> commands;
    std::function<bool()> pump;
    std::thread thread;
    std::atomic<std::uint64_t> cpu_ns{0};
  };

  struct PendingSite {
    std::unique_ptr<transport::Transport> transport;
    util::Bytes buffered;
    wire::MessageDecoder sniffer;
    std::string site_name;
    bool ready = false;
    bool failed = false;
  };

  void shard_loop(std::size_t s);
  /// One pump iteration; returns true if any work happened.
  bool pump_shard(std::size_t s);
  std::size_t drain_commands(std::size_t s);
  std::size_t drain_wires(std::size_t s);
  /// Producer side of the cross-shard wires, on shard `s`'s thread.
  void append_remote(std::size_t s, wire::PortId dst, util::BytesView frame,
                     std::uint64_t trace_id);
  void push_batch(std::size_t s, std::size_t d);
  void flush_remote(std::size_t s);
  void on_dispatch_data(PendingSite* pending, util::BytesView chunk);
  void place(PendingSite* pending);

  Options options_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<bool> running_{false};
  std::atomic<bool> stop_requested_{false};
  std::vector<std::unique_ptr<PendingSite>> pending_;
  PlacementHandler placement_;
};

}  // namespace rnl::routeserver
