// Benchmark program: runs one workload and prints its report as the last
// line of standard output.
//
//   rnl_perfbench --workload <sim-sharded-cross|lab-churn>
//                 --seed <n> --seconds <s> --trace <0|1> [--tiny]
//                 [--work-dir <dir>]
//
// --trace 0 measures the end-to-end metrics with no tracing decorators
// installed; --trace 1 installs them and reports the per-layer metrics.
// The report line is a JSON object with the environment, every metric as
// {"value", "unit"}, sample counts, and the correctness verdict. Exit code
// 1 means a correctness violation, 2 a usage error, 3 a refused build.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>

#include "common.h"
#include "util/json.h"
#include "util/logging.h"

#ifndef RNLB_BUILD_TYPE
#define RNLB_BUILD_TYPE ""
#endif
#ifndef RNLB_COMPILER
#define RNLB_COMPILER "unknown"
#endif
#ifndef RNLB_SANITIZE
#define RNLB_SANITIZE ""
#endif
#ifndef RNLB_DCHECK
#define RNLB_DCHECK ""
#endif

namespace {

using rnl::util::Json;

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Every end-to-end metric, reported by every workload with tracing off.
constexpr MetricSpec kEndToEnd[] = {
    {"fwd_fps", "1/s"},          {"cpu_ns_per_frame", "ns"},
    {"lat_p50_us", "us"},        {"lat_p90_us", "us"},
    {"deploy_p50_ms", "ms"},     {"deploy_p90_ms", "ms"},
    {"cycles_per_s", "1/s"},     {"read_p50_us", "us"},
    {"read_p99_us", "us"},       {"setup_s", "s"},
    {"peak_rss_mb", "MiB"},
};

// Every per-layer metric, reported by every workload with tracing on. A
// layer a workload does not exercise reports 0.
constexpr MetricSpec kPerLayer[] = {
    {"transport.send_self_ns_per_frame", "ns"},
    {"transport.sends_per_frame", "count"},
    {"transport.poll_self_ns_per_frame", "ns"},
    {"transport.empty_poll_frac", "ratio"},
    {"transport.queued_bytes_max", "bytes"},
    {"transport.wire_bytes_per_frame", "bytes"},
    {"routeserver.ingest_self_ns_per_frame", "ns"},
    {"routeserver.fast_path_frac", "ratio"},
    {"routeserver.frames_per_ingest", "count"},
    {"routeserver.egress_frames_per_send", "count"},
    {"routeserver.drops", "count"},
    {"ris.replay_self_ns_per_frame", "ns"},
    {"ris.capture_self_ns_per_frame", "ns"},
    {"ris.uplink_frames_per_send", "count"},
    {"simnet.events_per_frame", "count"},
    {"wire.decode_ns_per_frame", "ns"},
    {"sharded.cross_shard_frames", "count"},
    {"sharded.ring_drops", "count"},
    {"sharded.cpu_imbalance", "ratio"},
    {"sharded.idle_pump_frac", "ratio"},
    {"sharded.cross_connect_us", "us"},
    {"api.deploy_us", "us"},
    {"api.reserve_us", "us"},
    {"api.teardown_us", "us"},
    {"api.design_us", "us"},
    {"api.read_us", "us"},
    {"labservice.first_frame_us", "us"},
    {"journal.appends_per_cycle", "count"},
    {"journal.bytes_per_cycle", "bytes"},
    {"journal.compactions", "count"},
    {"journal.recover_ms", "ms"},
    {"bench.probe_ns_per_frame", "ns"},
    {"bench.pump_ns_per_frame", "ns"},
    {"trace_overhead", "ratio"},
    {"trace_overhead_iqr", "ratio"},
    {"layers.traced_wall_ns_per_frame", "ns"},
    {"layers.unaccounted_ns_per_frame", "ns"},
};

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload <sim-sharded-cross|lab-churn> "
               "--seed <n> --seconds <s> --trace <0|1> [--tiny] "
               "[--work-dir <dir>]\n",
               argv0);
  return 2;
}

/// Reasons this build must not report numbers (empty: fine).
std::string refused_build() {
  const std::string type = RNLB_BUILD_TYPE;
  if (type == "Debug" || type.empty()) {
    return "build type '" + type + "' (need an optimized build)";
  }
  const std::string sanitize = RNLB_SANITIZE;
  if (!sanitize.empty() && sanitize != "OFF") {
    return "sanitizer build (RNL_SANITIZE=" + sanitize + ")";
  }
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return "sanitizer build";
#endif
  const std::string dcheck = RNLB_DCHECK;
  if (dcheck == "ON" || dcheck == "1" || dcheck == "TRUE") {
    return "RNL_DCHECK_ENABLED build";
  }
  return {};
}

}  // namespace

int main(int argc, char** argv) {
  rnlb::clock_epoch_ns();  // fix the time origin of the latency records
  rnlb::Options o;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
    const char* v = nullptr;
    if (arg == "--tiny") {
      o.tiny = true;
    } else if ((v = value()) == nullptr) {
      return usage(argv[0]);
    } else if (arg == "--workload") {
      o.workload = v;
    } else if (arg == "--seed") {
      o.seed = std::strtoull(v, nullptr, 10);
    } else if (arg == "--seconds") {
      o.seconds = std::strtod(v, nullptr);
    } else if (arg == "--trace") {
      o.traced = std::strcmp(v, "1") == 0;
      have_trace = true;
    } else if (arg == "--work-dir") {
      o.work_dir = v;
    } else {
      return usage(argv[0]);
    }
  }
  if (o.workload.empty() || !have_trace || !(o.seconds > 0)) return usage(argv[0]);

  const std::string refused = refused_build();
  if (!refused.empty()) {
    std::fprintf(stderr, "rnl_perfbench: refusing to report from a %s\n",
                 refused.c_str());
    return 3;
  }
  rnl::util::Logger::instance().set_threshold(rnl::util::LogLevel::kWarn);
  std::error_code ec;
  std::filesystem::create_directories(o.work_dir, ec);

  rnlb::Report report;
  if (o.workload == "sim-sharded-cross") {
    report = rnlb::run_sim_sharded_cross(o);
  } else if (o.workload == "lab-churn") {
    report = rnlb::run_lab_churn(o);
  } else {
    return usage(argv[0]);
  }

  Json metrics = Json::object();
  auto emit = [&](const MetricSpec& spec, bool zero_if_missing) {
    auto it = report.metrics.find(spec.name);
    double value = 0;
    if (it != report.metrics.end()) {
      value = it->second.first;
    } else if (!zero_if_missing) {
      report.violation(std::string("metric not measured: ") + spec.name);
    }
    if (!std::isfinite(value)) {
      report.violation(std::string("metric not finite: ") + spec.name);
      value = 0;
    }
    Json m = Json::object();
    m.set("value", value);
    m.set("unit", spec.unit);
    metrics.set(spec.name, std::move(m));
  };
  if (o.traced) {
    for (const MetricSpec& spec : kPerLayer) emit(spec, true);
    rnlb::trace::write_spans(o.work_dir + "/spans-" + o.workload + ".csv");
  } else {
    for (const MetricSpec& spec : kEndToEnd) emit(spec, false);
  }

  Json env = Json::object();
  env.set("nproc", static_cast<std::uint64_t>(std::thread::hardware_concurrency()));
  env.set("build_type", RNLB_BUILD_TYPE);
  env.set("compiler", RNLB_COMPILER);
  env.set("seed", o.seed);
  env.set("workload", o.workload);
  env.set("seconds", o.seconds);
  env.set("trace", o.traced);
  Json samples = Json::object();
  for (const auto& [name, n] : report.samples) samples.set(name, n);
  Json notes = Json::object();
  for (const auto& [name, n] : report.notes) notes.set(name, n);
  Json violations = Json::array();
  for (const std::string& v : report.violations) violations.push_back(v);
  if (report.attempted == 0) report.attempted = 1;
  const bool correct = report.failed == 0;
  Json out = Json::object();
  out.set("env", std::move(env));
  out.set("correct", correct);
  out.set("attempted", report.attempted);
  out.set("failed", report.failed);
  out.set("fail_frac", static_cast<double>(report.failed) /
                           static_cast<double>(report.attempted));
  out.set("metrics", std::move(metrics));
  out.set("samples", std::move(samples));
  out.set("notes", std::move(notes));
  out.set("violations", std::move(violations));
  std::printf("%s\n", out.dump().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
