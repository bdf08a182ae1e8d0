// Workload sim-sharded-cross: a ShardedRouteServer with three shard threads
// and a control thread that mostly sleeps. Six user pairs over SimStream,
// placed with accept(s, ...) so that four of the six wires cross shards:
//
//   pair  0: shard 0 <-> 0   pair 2, 3: shard 2 <-> 0
//   pair  1: shard 1 <-> 1   pair 4, 5: shard 2 <-> 1
//
// Every shard holds four sites. Each shard's sim world (its sites, probes
// and the SimStreams to its route-server shard) runs on the shard's own
// scheduler, which the shard loop advances; the probes are driven from the
// shard pump. Frames are 1500 bytes. No syscalls on the data path.
//
// Phases: wire churn through the sharded control plane (disconnect, a frame
// that must not arrive, reads, connect, first frame across), then an open
// loop at a fixed offered rate, then closed-window saturation.

#include <array>
#include <memory>
#include <thread>

#include "common.h"
#include "ris/ris.h"
#include "routeserver/sharded.h"
#include "transport/sim_stream.h"

namespace rnlb {

namespace {

using namespace rnl;

constexpr std::size_t kShards = 3;
constexpr std::size_t kFrameBytes = 1500;
constexpr std::array<std::pair<std::size_t, std::size_t>, 6> kPlacement = {
    {{0, 0}, {1, 1}, {2, 0}, {2, 0}, {2, 1}, {2, 1}}};
constexpr double kChurnShare = 0.15;
constexpr double kOpenShare = 0.35;
/// Open loop: each of the twelve senders offers this many frames per
/// second. Low enough that the backlog a stalled shard thread builds up in
/// 50 ms stays under the route server's egress high watermark.
constexpr double kOpenRatePerSender = 3'000;
constexpr std::uint32_t kOpenBurst = 2;
constexpr std::uint32_t kSatWindow = 128;
constexpr std::uint32_t kSatBurst = 16;

struct ShardWorld {
  std::unique_ptr<util::MetricsRegistry> metrics;
  std::unique_ptr<simnet::Network> net;
  std::vector<std::unique_ptr<ris::RouterInterface>> sites;
  std::vector<Probe*> senders;
  // Pump tallies by Mode; written by the shard thread, read after stop().
  std::array<std::uint64_t, 3> pumps{};
  std::array<std::uint64_t, 3> idle_pumps{};
};

struct Pair {
  Probe* a = nullptr;
  Probe* b = nullptr;
  std::size_t shard_a = 0;
  std::size_t shard_b = 0;
  wire::PortId port_a = 0;
  wire::PortId port_b = 0;
};

/// Destroyed bottom-up: the server (joining its threads) first, then the
/// shard worlds, then the probes and captures their handlers point at.
struct World {
  Drive drive;
  std::vector<std::unique_ptr<trace::WireCapture>> captures;
  std::vector<std::unique_ptr<Probe>> probes;
  std::vector<ShardWorld> shards;
  std::unique_ptr<routeserver::ShardedRouteServer> server;
  std::vector<Pair> pairs;
  std::vector<Probe*> all;
};

std::string site_name(std::size_t pair, std::uint8_t dir) {
  return "x" + std::to_string(pair) + (dir == 0 ? "a" : "b");
}

std::unique_ptr<World> build(const Options& o, Report& report) {
  auto w = std::make_unique<World>();
  w->drive.seed = o.seed;
  routeserver::ShardedRouteServer::Options options;
  options.shards = kShards;
  options.seed = o.seed;
  w->shards.resize(kShards);
  for (std::size_t s = 0; s < kShards; ++s) {
    w->shards[s].metrics = std::make_unique<util::MetricsRegistry>();
    w->shards[s].net = std::make_unique<simnet::Network>(mix(o.seed, s));
    options.schedulers.push_back(&w->shards[s].net->scheduler());
  }
  w->server = std::make_unique<routeserver::ShardedRouteServer>(options);

  for (std::size_t p = 0; p < kPlacement.size(); ++p) {
    Pair pair;
    pair.shard_a = kPlacement[p].first;
    pair.shard_b = kPlacement[p].second;
    for (std::uint8_t dir = 0; dir < 2; ++dir) {
      const std::size_t s = dir == 0 ? pair.shard_a : pair.shard_b;
      ShardWorld& shard = w->shards[s];
      shard.sites.push_back(std::make_unique<ris::RouterInterface>(
          *shard.net, site_name(p, dir), shard.metrics.get()));
      ris::RouterInterface& site = *shard.sites.back();
      w->probes.push_back(std::make_unique<Probe>(
          *shard.net, "probe", kFrameBytes, static_cast<std::uint16_t>(p), dir,
          o.seed));
      Probe* probe = w->probes.back().get();
      const std::size_t index = site.add_router(probe, "bench probe", "probe.png");
      site.map_port(index, 0, "eth0");
      trace::WireCapture* capture = nullptr;
      if (o.traced) {
        w->captures.push_back(std::make_unique<trace::WireCapture>());
        capture = w->captures.back().get();
      }
      transport::SimStreamOptions stream;
      stream.wan = wire::NetemProfile::lan();
      auto [ris_end, server_end] =
          transport::make_sim_stream_pair(shard.net->scheduler(), stream);
      w->server->accept(s, trace::maybe_wrap(std::move(server_end),
                                             trace::TimedTransport::Role::kServerEnd,
                                             o.traced, capture));
      site.join(trace::maybe_wrap(std::move(ris_end),
                                  trace::TimedTransport::Role::kRisEnd, o.traced));
      shard.senders.push_back(probe);
      w->all.push_back(probe);
      (dir == 0 ? pair.a : pair.b) = probe;
    }
    pair.a->set_peer(pair.b);
    pair.b->set_peer(pair.a);
    w->pairs.push_back(pair);
  }

  // Cooperative warm-up: complete every JOIN before the shard threads exist.
  auto all_joined = [&] {
    for (const ShardWorld& shard : w->shards) {
      for (const auto& site : shard.sites) {
        if (!site->joined()) return false;
      }
    }
    return true;
  };
  for (int i = 0; i < 10'000 && !all_joined(); ++i) {
    for (ShardWorld& shard : w->shards) {
      shard.net->run_for(util::Duration::microseconds(100));
    }
    w->server->pump_all();
  }
  if (!all_joined()) {
    report.violation("sharded join handshake did not complete");
    return nullptr;
  }
  for (std::size_t p = 0; p < w->pairs.size(); ++p) {
    Pair& pair = w->pairs[p];
    pair.port_a = w->server->port_id(site_name(p, 0) + "/probe", "eth0");
    pair.port_b = w->server->port_id(site_name(p, 1) + "/probe", "eth0");
    const util::Status status = w->server->connect_ports(pair.port_a, pair.port_b);
    if (!status.ok()) {
      report.violation("connect_ports failed: " + status.error());
      return nullptr;
    }
  }

  World* raw = w.get();
  for (std::size_t s = 0; s < kShards; ++s) {
    w->server->set_shard_pump(s, [raw, s] {
      // The shard loop outside this pump (commands, wire rings, the
      // scheduler slice) is timed as the span between two pump calls.
      trace::end_if(trace::Kind::kShardLoop);
      bool busy = false;
      {
        trace::Span span(trace::Kind::kPump);
        ShardWorld& shard = raw->shards[s];
        const int mode = raw->drive.mode.load(std::memory_order_acquire);
        if (mode != static_cast<int>(Mode::kIdle)) {
          const std::int64_t now = now_ns();
          for (Probe* p : shard.senders) busy = drive(*p, raw->drive, now) || busy;
        }
        ++shard.pumps[static_cast<std::size_t>(mode)];
        if (!busy) ++shard.idle_pumps[static_cast<std::size_t>(mode)];
      }
      trace::begin(trace::Kind::kShardLoop);
      return busy;
    });
  }
  return w;
}

struct ChurnLog {
  std::vector<Sample> deploy_ms;  // connect_ports call -> first frame across
  std::vector<Sample> first_us;   // connect_ports return -> first frame
  std::vector<Sample> read_us;
  std::vector<double> cross_connect_us;
  std::uint64_t cycles = 0;
};

/// One churn cycle on `pair`: teardown, a frame that must be dropped,
/// four reads, connect, first frame across.
void churn_cycle(World& w, Pair& pair, std::uint64_t id, Report& report,
                 ChurnLog& log) {
  routeserver::ShardedRouteServer& server = *w.server;
  report.attempted += 2;  // disconnect + connect
  server.disconnect_port(pair.port_a);
  const std::uint64_t drops = server.stats().unrouted_drops;
  Probe* a = pair.a;
  server.post(pair.shard_a, [a, id] { a->send_marker(FrameClass::kAfterTeardown, id); });
  if (!wait_until([&] { return server.stats().unrouted_drops > drops; }, 2.0)) {
    report.violation("frame sent after teardown was not dropped");
  }
  for (int i = 0; i < 4; ++i) {
    const std::int64_t t0 = now_ns();
    if (i % 2 == 0) {
      report.check(!server.inventory().empty(), "inventory read came back empty");
    } else {
      report.check(server.stats().sites_joined == 2 * kPlacement.size(),
                   "stats read lost sites");
    }
    log.read_us.push_back({t0, static_cast<double>(now_ns() - t0) / 1e3});
    ++report.attempted;
  }
  const std::int64_t t_request = now_ns();
  const util::Status status = trace::connect_ports(server, pair.port_a, pair.port_b);
  const std::int64_t t_return = now_ns();
  if (pair.shard_a != pair.shard_b) {
    log.cross_connect_us.push_back(static_cast<double>(t_return - t_request) / 1e3);
  }
  if (!status.ok()) {
    report.violation("connect_ports failed: " + status.error());
    return;
  }
  server.post(pair.shard_a, [a, id] { a->send_marker(FrameClass::kDeployProbe, id); });
  if (wait_until([&] { return pair.b->marker_id() == id; }, 2.0)) {
    const std::int64_t arrived = pair.b->marker_rx_ns();
    log.deploy_ms.push_back({t_request, static_cast<double>(arrived - t_request) / 1e6});
    log.first_us.push_back({t_return, static_cast<double>(arrived - t_return) / 1e3});
  } else {
    report.violation("deploy probe never crossed the connected wire");
  }
}

}  // namespace

Report run_sim_sharded_cross(const Options& o) {
  Report report;
  const std::unique_ptr<World> w = timed_setups<World>(o, report, build);
  if (!w) return report;
  routeserver::ShardedRouteServer& server = *w->server;
  std::vector<double> cpu_before(kShards), cpu_after(kShards);
  server.start();
  for (std::size_t s = 0; s < kShards; ++s) cpu_before[s] = server.shard_cpu_seconds(s);

  ChurnLog log;
  Phases p;
  p.churn = [&](double seconds) {
    const std::int64_t t0 = now_ns();
    while (now_ns() - t0 < static_cast<std::int64_t>(seconds * 1e9)) {
      const std::uint64_t id = ++log.cycles;
      churn_cycle(*w, w->pairs[mix(o.seed, id) % w->pairs.size()], id, report, log);
    }
  };
  // The control thread sleeps while the shard threads drive the probes.
  p.step = [] { std::this_thread::sleep_for(std::chrono::microseconds(200)); };
  p.routed = [&] { return server.stats().frames_routed; };
  p.probes = w->all;
  p.drive = &w->drive;
  p.churn_share = kChurnShare;
  p.open_share = kOpenShare;
  p.open_interval_ns = static_cast<std::int64_t>(kOpenBurst * 1e9 / kOpenRatePerSender);
  p.open_burst = kOpenBurst;
  p.sat_burst = kSatBurst;
  p.sat_window = kSatWindow;
  const PhaseResults results = run_rounds(o, p);
  for (std::size_t s = 0; s < kShards; ++s) cpu_after[s] = server.shard_cpu_seconds(s);
  server.stop();
  report.set("peak_rss_mb", peak_rss_mb(), "MiB");

  report.set("cycles_per_s", static_cast<double>(log.cycles) / results.churn_wall_s, "1/s");
  report.samples["cycles_per_s"] = static_cast<double>(log.cycles);
  set_percentiles(report, log.deploy_ms, "deploy_p50_ms", "deploy_p90_ms", 0.90, "ms");
  set_percentiles(report, log.read_us, "read_p50_us", "read_p99_us", 0.99, "us");
  set_percentiles(report, latency_samples(w->all), "lat_p50_us", "lat_p90_us", 0.90, "us");
  report_open(report, results, w->all,
              kOpenRatePerSender * static_cast<double>(w->all.size()));
  LayerInputs in;
  report_sat(report, results.sat, o.traced ? &in : nullptr);

  const routeserver::RouteServerStats stats = server.stats();
  const std::uint64_t ring_drops = server.cross_shard_ring_drops();
  report.notes["drops.shed"] = static_cast<double>(stats.shed_data_frames);
  report.notes["drops.stale_epoch"] = static_cast<double>(stats.stale_epoch_drops);
  report.notes["drops.spoofed_port"] = static_cast<double>(stats.spoofed_port_drops);
  report.notes["drops.unrouted"] = static_cast<double>(stats.unrouted_drops);
  report.notes["drops.ring"] = static_cast<double>(ring_drops);
  report.notes["sites_lost"] = static_cast<double>(stats.sites_lost);
  report.check(stats.cross_shard_frames_out > 0, "no frame crossed shards");
  report.check(ring_drops == 0, "cross-shard wire rings dropped frames");
  report.check(route_drops(stats) == log.cycles,
               "route server dropped frames other than the after-teardown probes");
  account_frames(report, w->all);

  if (o.traced) {
    in.sat = trace::totals(trace::kSat);
    in.open = trace::totals(trace::kOpen);
    in.threads = static_cast<double>(kShards);
    in.stats = stats;
    for (auto& c : w->captures) in.captures.push_back(c.get());
    report.check(set_layer_metrics(report, in),
                 "layer self times do not add up to traced wall time");
    report.set("sharded.cross_shard_frames",
               static_cast<double>(stats.cross_shard_frames_out), "count");
    report.set("sharded.ring_drops", static_cast<double>(ring_drops), "count");
    double max_cpu = 0, sum_cpu = 0;
    for (std::size_t s = 0; s < kShards; ++s) {
      const double cpu = cpu_after[s] - cpu_before[s];
      max_cpu = std::max(max_cpu, cpu);
      sum_cpu += cpu;
    }
    report.set("sharded.cpu_imbalance",
               sum_cpu > 0 ? max_cpu / (sum_cpu / kShards) : 0, "ratio");
    double pumps = 0, idle = 0;
    for (const ShardWorld& shard : w->shards) {
      pumps += static_cast<double>(shard.pumps[static_cast<std::size_t>(Mode::kSat)]);
      idle += static_cast<double>(shard.idle_pumps[static_cast<std::size_t>(Mode::kSat)]);
    }
    report.set("sharded.idle_pump_frac", pumps > 0 ? idle / pumps : 0, "ratio");
    report.set("sharded.cross_connect_us", median(log.cross_connect_us), "us");
    report.set("labservice.first_frame_us", median(log.first_us), "us");
  }
  return report;
}

}  // namespace rnlb
