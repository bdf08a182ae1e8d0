// Workload lab-churn: a Testbed with a JournalStore attached under
// production options (fsync on, default compaction) and 16 sites. One
// closed-loop API client runs the full lab cycle on seven user pairs over
// SimStream in a seeded order (see ApiChurn). One background pair, whose
// two sites dial the route server over real loopback TCP, sends 64-byte
// frames at a low fixed rate across a wire deployed for the whole run; its
// latency shows what the service plane's work costs the data plane on the
// same thread. Each round ends with a closed-window saturation phase on the
// background pair, which carries the TCP transport, route-server ingest and
// egress and RIS uplink/replay layers. One thread runs everything:
// Scheduler::run_for and TcpEventLoop::run_once, alternately.
//
// Afterwards the journal is reopened and must recover the calendar's
// reservation count with no quarantined records.

#include <filesystem>
#include <memory>

#include "api_churn.h"
#include "common.h"
#include "core/journal.h"
#include "core/reservation.h"
#include "transport/tcp.h"

namespace rnlb {

namespace {

using namespace rnl;

constexpr std::size_t kPairs = 8;  // pair 0: background over TCP; 1..7 churn
constexpr std::size_t kFrameBytes = 64;
constexpr double kChurnShare = 0.7;
/// Background flow: each direction offers this many frames per second.
constexpr double kBackgroundRatePerSender = 1'000;
constexpr std::uint32_t kBackgroundBurst = 1;
/// Virtual seconds the background wire is reserved for (the whole run).
constexpr std::int64_t kBackgroundHoldS = 1'000'000'000;
/// Saturation: at most kSatWindow frames unacknowledged per sender.
constexpr std::uint32_t kSatWindow = 512;
constexpr std::uint32_t kSatBurst = 32;

/// Destroyed bottom-up: the service lets go of the journal, the journal
/// (which publishes into the testbed's registry) goes before the testbed,
/// the listener and testbed (sites, server, their transports) before the
/// probes and captures their handlers point at, and the poll loop last.
struct World {
  transport::TcpEventLoop loop;
  std::vector<std::unique_ptr<trace::WireCapture>> captures;
  std::vector<std::unique_ptr<Probe>> probes;
  std::unique_ptr<core::Testbed> bed;
  std::unique_ptr<transport::TcpListener> listener;
  std::unique_ptr<core::JournalStore> journal;
  std::vector<ApiPair> pairs;
  std::vector<Probe*> background;
  std::vector<Probe*> all;
  Drive drive;
  std::string journal_dir;

  ~World() {
    if (bed) bed->service().attach_store(nullptr);
  }

  trace::WireCapture* new_capture(bool traced) {
    if (!traced) return nullptr;
    captures.push_back(std::make_unique<trace::WireCapture>());
    return captures.back().get();
  }

  void pump() {
    trace::run_for(bed->net(), util::Duration::microseconds(1));
    trace::run_once(loop);
  }
};

std::unique_ptr<World> build(const Options& o, Report& report) {
  auto w = std::make_unique<World>();
  w->drive.seed = o.seed;
  w->journal_dir = o.work_dir + "/journal-lab-churn";
  std::error_code ec;
  std::filesystem::remove_all(w->journal_dir, ec);
  w->bed = std::make_unique<core::Testbed>(o.seed, wire::NetemProfile::lan());
  core::Testbed& bed = *w->bed;
  w->journal = std::make_unique<core::JournalStore>(w->journal_dir, &bed.metrics());
  bed.service().attach_store(w->journal.get());
  w->listener = std::make_unique<transport::TcpListener>(w->loop);
  World* raw = w.get();
  const bool traced = o.traced;
  const util::Status listening = w->listener->listen(
      0, [raw, traced](std::unique_ptr<transport::TcpTransport> t) {
        raw->bed->server().accept(
            trace::maybe_wrap(std::move(t), trace::TimedTransport::Role::kServerEnd,
                              traced, raw->new_capture(traced)));
      });
  if (!listening.ok()) {
    report.violation("listen failed: " + listening.error());
    return nullptr;
  }

  std::vector<ris::RouterInterface*> sites;
  for (std::size_t p = 0; p < kPairs; ++p) {
    ApiPair pair;
    pair.user = "user" + std::to_string(p);
    for (std::uint8_t dir = 0; dir < 2; ++dir) {
      const std::string name = "s" + std::to_string(p) + (dir == 0 ? "a" : "b");
      ris::RouterInterface& site = bed.add_site(name);
      w->probes.push_back(std::make_unique<Probe>(
          bed.net(), "probe", kFrameBytes, static_cast<std::uint16_t>(p), dir,
          o.seed));
      Probe* probe = w->probes.back().get();
      const std::size_t index = site.add_router(probe, "bench probe", "probe.png");
      site.map_port(index, 0, "eth0");
      std::unique_ptr<transport::Transport> ris_end;
      if (p == 0) {
        auto client = transport::tcp_connect(w->loop, w->listener->port());
        if (!client.ok()) {
          report.violation("connect failed: " + client.error());
          return nullptr;
        }
        ris_end = std::move(*client);
      } else {
        transport::SimStreamOptions stream;
        stream.wan = wire::NetemProfile::lan();
        stream.metrics = &bed.metrics();
        auto ends = transport::make_sim_stream_pair(bed.net().scheduler(), stream);
        bed.server().accept(trace::maybe_wrap(
            std::move(ends.second), trace::TimedTransport::Role::kServerEnd,
            traced, w->new_capture(traced)));
        ris_end = std::move(ends.first);
      }
      site.join(trace::maybe_wrap(std::move(ris_end),
                                  trace::TimedTransport::Role::kRisEnd, traced));
      sites.push_back(&site);
      w->all.push_back(probe);
      (dir == 0 ? pair.a : pair.b) = probe;
    }
    pair.a->set_peer(pair.b);
    pair.b->set_peer(pair.a);
    w->pairs.push_back(pair);
  }
  auto joined = [&] {
    for (const ris::RouterInterface* site : sites) {
      if (!site->joined()) return false;
    }
    return true;
  };
  for (int i = 0; i < 100'000 && !joined(); ++i) w->pump();
  if (!joined()) {
    report.violation("site join handshake did not complete");
    return nullptr;
  }
  for (std::size_t p = 0; p < kPairs; ++p) {
    ApiPair& pair = w->pairs[p];
    const std::string a = "s" + std::to_string(p) + "a/probe";
    const std::string b = "s" + std::to_string(p) + "b/probe";
    pair.router_a = bed.router_id(a);
    pair.router_b = bed.router_id(b);
    pair.port_a = bed.port_id(a, "eth0");
    pair.port_b = bed.port_id(b, "eth0");
  }
  w->background = {w->pairs[0].a, w->pairs[0].b};
  // The background wire is deployed through the API like any lab.
  ApiChurn setup(bed, [raw] { raw->pump(); }, report);
  if (setup.deploy_for({&w->pairs[0]}, "background", kBackgroundHoldS) == 0) {
    return nullptr;
  }
  return w;
}

}  // namespace

Report run_lab_churn(const Options& o) {
  Report report;
  const std::unique_ptr<World> w = timed_setups<World>(o, report, build);
  if (!w) return report;
  core::Testbed& bed = *w->bed;
  core::JournalStore& journal = *w->journal;

  // Every pump advances the sim world and lets the background flow send
  // whatever is due (or, in saturation, whatever its window allows).
  auto pump = [&] {
    const std::int64_t now = now_ns();
    for (Probe* p : w->background) drive(*p, w->drive, now);
    w->pump();
  };
  ApiChurn churn(bed, pump, report);
  if (o.traced) churn.journal = &journal;
  std::vector<ApiPair*> churn_pairs;
  for (std::size_t i = 1; i < kPairs; ++i) churn_pairs.push_back(&w->pairs[i]);
  const core::JournalStats journal_before = journal.stats();

  Phases p;
  // Churn with the background flow at its fixed rate; the flow drains
  // before each saturation window.
  p.churn = [&](double seconds) {
    const auto interval =
        static_cast<std::int64_t>(kBackgroundBurst * 1e9 / kBackgroundRatePerSender);
    w->drive.arm(Mode::kOpen, now_ns(), interval, kBackgroundBurst, 0);
    churn.churn_for(seconds, churn_pairs, o.seed);
    w->drive.idle();
    report.check(wait_until(
                     [&] {
                       pump();
                       return total_rx(w->background) == total_tx(w->background);
                     },
                     5.0),
                 "background flow did not drain");
  };
  p.step = pump;
  p.routed = [&] { return bed.server().stats().frames_routed; };
  p.probes = w->background;
  p.drive = &w->drive;
  p.churn_share = kChurnShare;
  p.sat_burst = kSatBurst;
  p.sat_window = kSatWindow;
  p.rotate_cpu = true;
  const PhaseResults results = run_rounds(o, p);
  report.set("peak_rss_mb", peak_rss_mb(), "MiB");
  const core::JournalStats journal_after = journal.stats();

  report.set("cycles_per_s", static_cast<double>(churn.cycles) / results.churn_wall_s, "1/s");
  report.samples["cycles_per_s"] = static_cast<double>(churn.cycles);
  set_percentiles(report, churn.deploy_ms, "deploy_p50_ms", "deploy_p90_ms", 0.90, "ms");
  set_percentiles(report, churn.read_us, "read_p50_us", "read_p99_us", 0.99, "us");
  set_percentiles(report, latency_samples(w->background), "lat_p50_us",
                  "lat_p90_us", 0.90, "us");
  report.notes["background_offered_fps"] = 2 * kBackgroundRatePerSender;
  LayerInputs in;
  report_sat(report, results.sat, o.traced ? &in : nullptr);

  const auto stats = bed.server().stats();
  report.check(route_drops(stats) == churn.cycles,
               "route server dropped frames other than the after-teardown probes");
  account_frames(report, w->all);

  // -- Recovery: reopen the journal the run left behind. --
  const std::size_t expected = bed.service().calendar().size();
  bed.service().attach_store(nullptr);
  w->journal.reset();
  core::ReservationCalendar recovered;
  const std::int64_t t_open = now_ns();
  core::JournalStore reopened(w->journal_dir);
  reopened.register_stream(
      "reservations",
      core::JournalStore::StreamHooks{
          [&] { return recovered.to_json(); },
          [&](const util::Json& state) { recovered.restore(state); },
          [&](const util::Json& event) { recovered.apply(event); },
      });
  const double recover_ms = static_cast<double>(now_ns() - t_open) / 1e6;
  ++report.attempted;
  report.check(recovered.size() == expected,
               "journal recovered " + std::to_string(recovered.size()) +
                   " reservations, expected " + std::to_string(expected));
  report.check(reopened.stats().quarantined_records == 0,
               "journal recovery quarantined records");

  if (o.traced) {
    in.sat = trace::totals(trace::kSat);
    // The background flow's fixed-rate phase is the churn.
    in.open = trace::totals(trace::kChurn);
    in.stats = stats;
    for (auto& c : w->captures) in.captures.push_back(c.get());
    report.check(set_layer_metrics(report, in),
                 "layer self times do not add up to traced wall time");
    set_api_metrics(report, churn);
    const double cycles = churn.cycles ? static_cast<double>(churn.cycles) : 1;
    report.set("journal.appends_per_cycle",
               static_cast<double>(journal_after.events_appended -
                                   journal_before.events_appended) / cycles,
               "count");
    report.set("journal.compactions",
               static_cast<double>(journal_after.compactions - journal_before.compactions),
               "count");
    report.set("journal.bytes_per_cycle", median(churn.journal_bytes), "bytes");
    report.set("journal.recover_ms", recover_ms, "ms");
  }
  report.notes["journal_recover_ms"] = recover_ms;
  return report;
}

}  // namespace rnlb
