#include "common.h"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <thread>

namespace rnlb {

std::uint64_t mix(std::uint64_t a, std::uint64_t b) {
  std::uint64_t z = a ^ (b + 0x9E3779B97F4A7C15ull + (a << 6) + (a >> 2));
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

void Drive::arm(Mode m, std::int64_t start, std::int64_t interval,
                std::uint32_t burst_frames, std::uint32_t window_frames) {
  // Relaxed stores, published by the release on `generation` and `mode`.
  start_ns.store(start, std::memory_order_relaxed);
  interval_ns.store(interval < 1 ? 1 : interval, std::memory_order_relaxed);
  burst.store(burst_frames == 0 ? 1 : burst_frames, std::memory_order_relaxed);
  window.store(window_frames, std::memory_order_relaxed);
  generation.fetch_add(1, std::memory_order_release);
  mode.store(static_cast<int>(m), std::memory_order_release);
}

bool drive(Probe& sender, const Drive& d, std::int64_t now) {
  const auto mode = static_cast<Mode>(d.mode.load(std::memory_order_acquire));
  if (mode == Mode::kIdle) return false;
  const std::uint64_t generation = d.generation.load(std::memory_order_acquire);
  // Relaxed: published by the acquire loads above.
  const std::int64_t interval = d.interval_ns.load(std::memory_order_relaxed);
  const std::uint32_t burst = d.burst.load(std::memory_order_relaxed);
  if (sender.drive_generation != generation) {
    sender.drive_generation = generation;
    // Each sender's first due time is offset by a seeded share of the
    // interval, so the senders do not fire in lockstep.
    const auto stagger = static_cast<std::int64_t>(
        mix(d.seed, sender.flow_key()) %
        static_cast<std::uint64_t>(interval));
    sender.next_due_ns =
        d.start_ns.load(std::memory_order_relaxed) + stagger;
  }
  bool sent = false;
  if (mode == Mode::kOpen) {
    while (sender.next_due_ns <= now) {
      const std::int64_t late = now - sender.next_due_ns;
      if (late > sender.max_lateness_ns) sender.max_lateness_ns = late;
      sender.send_data(sender.next_due_ns, true, burst);
      sender.next_due_ns += interval;
      sent = true;
    }
    return sent;
  }
  const std::uint64_t window = d.window.load(std::memory_order_relaxed);
  const Probe& peer = *sender.peer();
  while (sender.tx_frames() + burst <= peer.rx_frames() + window) {
    sender.send_data(now, false, burst);
    sent = true;
  }
  return sent;
}

std::uint64_t total_rx(const std::vector<Probe*>& probes) {
  std::uint64_t total = 0;
  for (const Probe* p : probes) total += p->rx_frames();
  return total;
}

std::uint64_t total_tx(const std::vector<Probe*>& probes) {
  std::uint64_t total = 0;
  for (const Probe* p : probes) total += p->tx_frames();
  return total;
}

std::int64_t last_rx(const std::vector<Probe*>& probes) {
  std::int64_t last = 0;
  for (const Probe* p : probes) last = std::max(last, p->last_rx_ns());
  return last;
}

Window run_window(Drive& d, Mode mode, double seconds, std::int64_t interval,
                  std::uint32_t burst, std::uint32_t window,
                  const std::vector<Probe*>& probes,
                  const std::function<void()>& step, double drain_s) {
  Window w;
  const std::uint64_t rx_before = total_rx(probes);
  w.cpu_ns = process_cpu_ns();
  w.t0 = now_ns();
  d.arm(mode, w.t0, interval, burst, window);
  const auto end = w.t0 + static_cast<std::int64_t>(seconds * 1e9);
  while (now_ns() < end) step();
  d.idle();
  w.drained = wait_until(
      [&] {
        step();
        return total_rx(probes) == total_tx(probes);
      },
      drain_s);
  w.t_last = last_rx(probes);
  w.cpu_ns = process_cpu_ns() - w.cpu_ns;
  w.delivered = total_rx(probes) - rx_before;
  return w;
}

std::vector<Sample> latency_samples(const std::vector<Probe*>& probes) {
  std::vector<Sample> all;
  for (const Probe* p : probes) {
    for (const Probe::Timed& s : p->latency) {
      all.push_back({static_cast<std::int64_t>(s.due_us) * 1000,
                     static_cast<double>(s.latency_ns) / 1e3});
    }
  }
  return all;
}

void account_frames(Report& report, const std::vector<Probe*>& probes) {
  std::uint64_t lost = 0, ooo = 0, corrupt = 0, after = 0;
  for (const Probe* p : probes) {
    report.attempted += p->tx_frames() + p->tx_markers();
    const std::uint64_t sent = p->peer()->tx_frames();
    const std::uint64_t got = p->rx_frames();
    if (sent > got) lost += sent - got;
    ooo += p->out_of_order;
    corrupt += p->corrupt;
    after += p->after_teardown;
  }
  if (lost != 0) report.violation("data frames lost", lost);
  if (ooo != 0) report.violation("data frames duplicated or reordered", ooo);
  if (corrupt != 0) report.violation("frames corrupted", corrupt);
  if (after != 0) report.violation("frames delivered after teardown", after);
}

void set_percentiles(Report& report, const std::vector<Sample>& samples,
                     const std::string& p50_name, const std::string& tail_name,
                     double tail_q, const std::string& unit) {
  const int slices = std::clamp(static_cast<int>(samples.size() / 1000), 1, kMaxSlices);
  report.set(p50_name, median(slice_quantiles(samples, slices, 0.50)), unit);
  report.set(tail_name, median(slice_quantiles(samples, slices, tail_q)), unit);
  report.samples[p50_name] = report.samples[tail_name] =
      static_cast<double>(samples.size());
  report.samples[tail_name + ".slices"] = slices;
}

PhaseResults run_rounds(const Options& o, const Phases& p) {
  PhaseResults results;
  const double sat_share = 1 - p.churn_share - p.open_share;
  const double round_s = o.seconds / kRounds;
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  sched_getaffinity(0, sizeof(allowed), &allowed);
  std::vector<int> cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &allowed)) cpus.push_back(c);
  }
  for (int r = 0; r < kRounds; ++r) {
    if (p.rotate_cpu && !cpus.empty()) {
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpus[static_cast<std::size_t>(r) % cpus.size()], &one);
      sched_setaffinity(0, sizeof(one), &one);
    }
    trace::set_phase(o.traced ? trace::kChurn : trace::kOff);
    const std::int64_t t0 = now_ns();
    p.churn(round_s * p.churn_share);
    results.churn_wall_s += static_cast<double>(now_ns() - t0) / 1e9;
    trace::set_phase(trace::kOff);
    if (p.open_share > 0) {
      trace::set_phase(o.traced ? trace::kOpen : trace::kOff);
      results.opens.push_back(run_window(*p.drive, Mode::kOpen,
                                         round_s * p.open_share, p.open_interval_ns,
                                         p.open_burst, 0, p.probes, p.step));
      trace::set_phase(trace::kOff);
    }
    const int windows = o.traced ? 2 : 1;
    for (int i = 0; i < windows; ++i) {
      const bool on = i == 1;
      const std::uint64_t routed0 = p.routed();
      const std::uint64_t sent0 = total_tx(p.probes);
      trace::set_phase(on ? trace::kSat : trace::kOff);
      results.sat.windows.push_back(run_window(*p.drive, Mode::kSat,
                                               round_s * sat_share / windows, 1,
                                               p.sat_burst, p.sat_window,
                                               p.probes, p.step));
      trace::set_phase(trace::kOff);
      results.sat.traced.push_back(on);
      results.sat.routed.push_back(static_cast<double>(p.routed() - routed0));
      results.sat.sent.push_back(static_cast<double>(total_tx(p.probes) - sent0));
    }
  }
  if (p.rotate_cpu) sched_setaffinity(0, sizeof(allowed), &allowed);
  return results;
}

void report_open(Report& report, const PhaseResults& results,
                 const std::vector<Probe*>& probes, double offered_fps) {
  std::vector<double> fps;
  bool drained = true;
  for (const Window& w : results.opens) {
    fps.push_back(w.fps());
    drained = drained && w.drained;
  }
  report.check(drained, "open-loop window did not drain");
  std::int64_t lateness = 0;
  for (const Probe* p : probes) lateness = std::max(lateness, p->max_lateness_ns);
  report.notes["open_offered_fps"] = offered_fps;
  report.notes["open_delivered_fps"] = median(fps);
  report.notes["generator_max_lateness_us"] = static_cast<double>(lateness) / 1e3;
}

void report_sat(Report& report, const SatSeries& series, LayerInputs* in) {
  std::vector<double> fps, cpu, traced;
  bool drained = true;
  for (std::size_t i = 0; i < series.windows.size(); ++i) {
    const Window& w = series.windows[i];
    drained = drained && w.drained;
    if (series.traced[i]) {
      traced.push_back(w.fps());
      if (in != nullptr) {
        in->frames += static_cast<double>(w.delivered);
        in->tx_frames += series.sent[i];
        in->wall_ns += static_cast<double>(w.t_last - w.t0);
        in->routed += series.routed[i];
      }
      continue;
    }
    fps.push_back(w.fps());
    if (w.delivered != 0) {
      cpu.push_back(static_cast<double>(w.cpu_ns) / static_cast<double>(w.delivered));
    }
  }
  report.check(drained, "saturation window did not drain");
  report.set("fwd_fps", median(fps), "1/s");
  report.set("cpu_ns_per_frame", median(cpu), "ns");
  report.samples["fwd_fps"] = static_cast<double>(fps.size());
  if (in != nullptr) set_trace_overhead(report, fps, traced);
}

bool set_layer_metrics(Report& report, const LayerInputs& in) {
  using trace::Kind;
  auto sat = [&](Kind k) -> const trace::Acc& {
    return in.sat[static_cast<std::size_t>(k)];
  };
  auto open = [&](Kind k) -> const trace::Acc& {
    return in.open[static_cast<std::size_t>(k)];
  };
  auto ratio = [](double num, double den) { return den > 0 ? num / den : 0; };
  const double f = in.frames;
  const trace::Acc& send_srv = sat(Kind::kSendServer);
  const trace::Acc& send_ris = sat(Kind::kSendRis);

  report.set("transport.send_self_ns_per_frame",
             ratio(static_cast<double>(send_srv.self_ns + send_ris.self_ns), f), "ns");
  report.set("transport.sends_per_frame",
             ratio(static_cast<double>(send_srv.count + send_ris.count), f), "count");
  report.set("transport.poll_self_ns_per_frame",
             ratio(static_cast<double>(sat(Kind::kPoll).self_ns), f), "ns");
  report.set("transport.empty_poll_frac",
             ratio(static_cast<double>(open(Kind::kPoll).aux),
                   static_cast<double>(open(Kind::kPoll).count)),
             "ratio");
  report.set("transport.queued_bytes_max",
             static_cast<double>(std::max(open(Kind::kSendServer).aux_max,
                                          open(Kind::kSendRis).aux_max)),
             "bytes");
  report.set("transport.wire_bytes_per_frame",
             ratio(static_cast<double>(send_srv.aux + send_ris.aux), f), "bytes");

  report.set("routeserver.ingest_self_ns_per_frame",
             ratio(static_cast<double>(sat(Kind::kIngest).self_ns), f), "ns");
  report.set("routeserver.fast_path_frac",
             ratio(static_cast<double>(in.stats.dataplane.fast_path_frames),
                   static_cast<double>(in.stats.frames_routed)),
             "ratio");
  report.set("routeserver.frames_per_ingest",
             ratio(in.routed, static_cast<double>(sat(Kind::kIngest).count)), "count");
  report.set("routeserver.egress_frames_per_send",
             ratio(in.routed, static_cast<double>(send_srv.count)), "count");
  report.set("routeserver.drops", static_cast<double>(route_drops(in.stats)),
             "count");

  report.set("ris.replay_self_ns_per_frame",
             ratio(static_cast<double>(sat(Kind::kReplay).self_ns), f), "ns");
  report.set("ris.capture_self_ns_per_frame",
             ratio(static_cast<double>(sat(Kind::kRunFor).self_ns +
                                       sat(Kind::kShardLoop).self_ns),
                   f),
             "ns");
  report.set("ris.uplink_frames_per_send",
             ratio(in.tx_frames, static_cast<double>(send_ris.count)), "count");
  report.set("simnet.events_per_frame",
             ratio(static_cast<double>(sat(Kind::kRunFor).aux), f), "count");

  const auto [decode_ns, decoded] = trace::replay_decode(in.captures);
  report.set("wire.decode_ns_per_frame",
             ratio(static_cast<double>(decode_ns), static_cast<double>(decoded)),
             "ns");
  report.samples["wire.decode_ns_per_frame"] = static_cast<double>(decoded);

  report.set("bench.probe_ns_per_frame",
             ratio(static_cast<double>(sat(Kind::kProbe).self_ns), f), "ns");
  report.set("bench.pump_ns_per_frame",
             ratio(static_cast<double>(sat(Kind::kPump).self_ns), f), "ns");

  double self_sum = 0;
  for (const trace::Acc& acc : in.sat) self_sum += static_cast<double>(acc.self_ns);
  const double covered = in.threads * in.wall_ns;
  report.set("layers.traced_wall_ns_per_frame", ratio(covered, f), "ns");
  report.set("layers.unaccounted_ns_per_frame", ratio(covered - self_sum, f),
             "ns");
  report.samples["layers.traced_frames"] = f;
  const double share = ratio(covered - self_sum, covered);
  report.notes["closure_share"] = share;
  return share < kClosureBound && share > -kClosureBound;
}

void set_trace_overhead(Report& report, const std::vector<double>& untraced,
                        const std::vector<double>& traced) {
  std::vector<double> ratios;
  for (std::size_t i = 0; i < untraced.size() && i < traced.size(); ++i) {
    if (traced[i] > 0) ratios.push_back(untraced[i] / traced[i]);
  }
  std::vector<double> sorted = ratios;
  const double q1 = quantile(sorted, 0.25);
  const double q3 = quantile(sorted, 0.75);
  report.set("trace_overhead", quantile(sorted, 0.5), "ratio");
  report.set("trace_overhead_iqr", q3 - q1, "ratio");
  report.samples["trace_overhead"] = static_cast<double>(ratios.size());
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

bool wait_until(const std::function<bool()>& done, double timeout_s) {
  const std::int64_t end = now_ns() + static_cast<std::int64_t>(timeout_s * 1e9);
  while (!done()) {
    if (now_ns() > end) return false;
    std::this_thread::yield();
  }
  return true;
}

}  // namespace rnlb
