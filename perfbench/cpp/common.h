#pragma once

// Pieces shared by the three workloads: the load generator's drive state,
// measurement windows, latency summaries, frame-level correctness and the
// per-layer figures derived from the traced pass.

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "probe.h"
#include "routeserver/routeserver.h"
#include "trace.h"

namespace rnlb {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool traced = false;
  /// Self-test size: tiny phases, one set-up, for checking the output shape.
  bool tiny = false;
  /// Scratch directory inside the checkout (journal files, span dumps).
  std::string work_dir = ".bench_work";
};

Report run_sim_sharded_cross(const Options& options);
Report run_lab_churn(const Options& options);

/// World set-ups per run; setup_s is their median.
constexpr int kSetups = 21;

/// Builds the world kSetups times (once with o.tiny), keeps the last one,
/// and reports the median build time as setup_s. Returns nullptr when a
/// build fails (the build records why).
template <typename World, typename Build>
std::unique_ptr<World> timed_setups(const Options& o, Report& report,
                                    Build build) {
  std::vector<double> setups;
  std::unique_ptr<World> world;
  for (int i = 0; i < (o.tiny ? 1 : kSetups); ++i) {
    world.reset();
    const std::int64_t t0 = now_ns();
    world = build(o, report);
    setups.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    if (!world) return nullptr;
  }
  report.set("setup_s", median(setups), "s");
  report.samples["setup_s"] = static_cast<double>(setups.size());
  return world;
}

/// What a sender does on each drive() call.
enum class Mode : int { kIdle = 0, kOpen = 1, kSat = 2 };

/// Load-generator settings, published by the controlling thread and read by
/// whichever thread owns each sender. arm() bumps `generation`, which makes
/// every sender restart its open-loop schedule from `start_ns`.
struct Drive {
  std::atomic<int> mode{0};
  std::atomic<std::uint64_t> generation{0};
  std::atomic<std::int64_t> start_ns{0};
  std::atomic<std::int64_t> interval_ns{1};
  std::atomic<std::uint32_t> burst{1};
  std::atomic<std::uint32_t> window{0};
  std::uint64_t seed = 1;

  void arm(Mode m, std::int64_t start, std::int64_t interval,
           std::uint32_t burst_frames, std::uint32_t window_frames);
  void idle() { mode.store(static_cast<int>(Mode::kIdle), std::memory_order_release); }
};

/// Lets `sender` emit whatever its mode allows at `now`: due bursts in the
/// open loop (each stamped with its due time), or bursts while fewer than
/// `window` frames are unacknowledged by its peer in saturation. Returns
/// whether it sent anything.
bool drive(Probe& sender, const Drive& d, std::int64_t now);

/// One timed window: opens at the start barrier, closes at the last
/// delivery of a frame sent inside it.
struct Window {
  std::int64_t t0 = 0;
  std::int64_t t_last = 0;
  std::uint64_t delivered = 0;
  std::int64_t cpu_ns = 0;
  bool drained = true;
  [[nodiscard]] double seconds() const {
    return static_cast<double>(t_last - t0) / 1e9;
  }
  [[nodiscard]] double fps() const {
    return t_last > t0 ? static_cast<double>(delivered) / seconds() : 0;
  }
};

std::uint64_t total_rx(const std::vector<Probe*>& probes);
std::uint64_t total_tx(const std::vector<Probe*>& probes);
std::int64_t last_rx(const std::vector<Probe*>& probes);

/// Runs one window on the calling thread: arms `d`, calls `step` (which
/// must drive the senders and pump the event sources) until `seconds` have
/// passed, then idles the senders and keeps stepping until every frame has
/// arrived or `drain_s` passes.
Window run_window(Drive& d, Mode mode, double seconds, std::int64_t interval,
                  std::uint32_t burst, std::uint32_t window,
                  const std::vector<Probe*>& probes,
                  const std::function<void()>& step, double drain_s = 5);

/// Every probe's timed-frame latencies in microseconds, keyed by due time.
std::vector<Sample> latency_samples(const std::vector<Probe*>& probes);

/// Counts lost, out-of-order, corrupt and after-teardown frames as
/// violations and every sent frame as attempted.
void account_frames(Report& report, const std::vector<Probe*>& probes);

/// Sets the median and the tail quantile `tail_q` of `samples`, with their
/// sample count. Each is the median over time slices of the slice's
/// quantile, with one slice per 1000 samples (so even a slice's p99 has ten
/// samples beyond it), at most kMaxSlices.
void set_percentiles(Report& report, const std::vector<Sample>& samples,
                     const std::string& p50_name, const std::string& tail_name,
                     double tail_q, const std::string& unit);
constexpr int kMaxSlices = 100;

struct LayerInputs;

/// Back-to-back closed-window saturation windows. With `alternate_trace`,
/// odd windows record spans (phase kSat) and even ones do not.
struct SatSeries {
  std::vector<Window> windows;
  std::vector<bool> traced;
  std::vector<double> routed;  // route-server frames_routed per window
  std::vector<double> sent;    // probe frames sent per window
};
/// fwd_fps and cpu_ns_per_frame as medians over the untraced windows; with
/// `in`, also the traced windows' totals and the trace overhead.
void report_sat(Report& report, const SatSeries& series, LayerInputs* in);

/// A workload's measured phases. run_rounds() runs them as kRounds
/// interleaved rounds of churn, open loop and saturation, so that every
/// metric samples the whole run rather than one stretch of it.
struct Phases {
  /// Runs churn cycles for the given seconds.
  std::function<void(double)> churn;
  /// Drives the senders and pumps the event sources once (or sleeps, when
  /// other threads do that).
  std::function<void()> step;
  std::function<std::uint64_t()> routed;
  std::vector<Probe*> probes;
  Drive* drive = nullptr;
  double churn_share = 0;
  double open_share = 0;  // 0: no open-loop phase; saturation takes the rest
  std::int64_t open_interval_ns = 1;
  std::uint32_t open_burst = 1;
  std::uint32_t sat_burst = 1;
  std::uint32_t sat_window = 1;
  /// Single-threaded workloads: run round r on the r-th allowed CPU (see
  /// run_rounds). Must stay false where the calling thread spawns others.
  bool rotate_cpu = false;
};
constexpr int kRounds = 20;

struct PhaseResults {
  double churn_wall_s = 0;
  std::vector<Window> opens;
  SatSeries sat;
};
/// With o.traced, each phase records spans under its own trace phase and
/// each round's saturation time is split into an untraced and a traced
/// window. With p.rotate_cpu, round r runs pinned to the r-th CPU the
/// process may use: on a shared host one CPU can be slowed by a neighbour
/// for tens of seconds, and rotating makes every run sample every CPU alike
/// instead of whichever one the scheduler happened to keep it on.
PhaseResults run_rounds(const Options& o, const Phases& phases);
/// Open-loop notes and drain checks.
void report_open(Report& report, const PhaseResults& results,
                 const std::vector<Probe*>& probes, double offered_fps);

/// Inputs for the per-layer figures of the traced saturation windows.
struct LayerInputs {
  std::vector<trace::Acc> sat;    // trace::totals(kSat)
  std::vector<trace::Acc> open;   // trace::totals(kOpen)
  double frames = 0;              // delivered in traced saturation windows
  double tx_frames = 0;           // sent in traced saturation windows
  double wall_ns = 0;             // traced saturation windows, summed
  double threads = 1;             // threads the spans cover
  double routed = 0;              // route-server frames_routed in them
  rnl::routeserver::RouteServerStats stats;  // whole run
  std::vector<trace::WireCapture*> captures;
};
/// Sets the transport / routeserver / ris / simnet / wire / closure layer
/// metrics. Returns whether the closure holds: the traced wall time not
/// covered by any layer's self time is within kClosureBound of it.
bool set_layer_metrics(Report& report, const LayerInputs& in);

/// Trace overhead from alternating untraced / traced window throughputs.
void set_trace_overhead(Report& report, const std::vector<double>& untraced,
                        const std::vector<double>& traced);

/// Closure bound: the remainder of traced wall time not covered by any
/// layer's self time, as a share of it, must stay below this.
constexpr double kClosureBound = 0.20;

/// Drops the route server counts as lost: shed, stale-epoch, spoofed-port
/// and unrouted frames.
inline std::uint64_t route_drops(const rnl::routeserver::RouteServerStats& s) {
  return s.shed_data_frames + s.stale_epoch_drops + s.spoofed_port_drops +
         s.unrouted_drops;
}

/// Peak resident set size of this process in MiB.
double peak_rss_mb();

/// Spin-waits (yielding) until `done()` or `timeout_s` passes.
bool wait_until(const std::function<bool()>& done, double timeout_s);

std::uint64_t mix(std::uint64_t a, std::uint64_t b);

}  // namespace rnlb
