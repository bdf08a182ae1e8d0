// Tracing smoke test (scripts/check.sh --trace): boots a two-site testbed
// whose tunnels are real TCP loopback sockets, turns head sampling up to
// 1-in-1, pushes a forwarding burst through the route server, and asserts
// the tracing contract end to end:
//   - at least one trace id is complete across processes: RIS capture at
//     the sending site, decode/forward at the route server, and replay at
//     the receiving site all share the id that travelled in the tunnel
//     frame (wire::kFlagTraced + 8-byte prefix);
//   - the server-side sub-spans (matrix lookup + egress enqueue) sum to
//     within 10% of the end-to-end forward span;
//   - a frame sent from an unwired port after the burst shows up as an
//     `unrouted_drop` lifecycle instant carrying that port id;
//   - the Perfetto export is valid JSON with metadata and complete events
//     (written to disk so check.sh can re-parse it with a real JSON parser).
// Exits nonzero on any violation, so CI can run it as a self-checking gate.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "core/testbed.h"
#include "transport/tcp.h"
#include "util/json.h"
#include "util/trace.h"

using namespace rnl;

namespace {

int g_failures = 0;

void expect(bool ok, const char* what) {
  if (ok) {
    std::printf("  ok: %s\n", what);
  } else {
    std::printf("  FAIL: %s\n", what);
    ++g_failures;
  }
}

}  // namespace

int main(int argc, char** argv) {
  const char* out_path =
      argc > 1 ? argv[1] : "trace_smoke_perfetto.json";
  std::printf("trace smoke: booting two-site testbed over TCP loopback...\n");
  transport::TcpEventLoop loop;
  core::Testbed bed(7, wire::NetemProfile::lan());
  transport::TcpListener listener(loop);
  auto status =
      listener.listen(0, [&](std::unique_ptr<transport::TcpTransport> t) {
        bed.server().accept(std::move(t));
      });
  if (!status.ok()) {
    std::printf("FAIL: listen: %s\n", status.error().c_str());
    return 1;
  }
  ris::RouterInterface& west = bed.add_site("west");
  ris::RouterInterface& east = bed.add_site("east");
  // port1 is wired to east; port2 stays unwired for the drop check.
  devices::TrafficGenerator& gen_w = bed.add_traffgen(west, "gen", 2);
  devices::TrafficGenerator& gen_e = bed.add_traffgen(east, "gen", 1);
  gen_e.set_count_only(true);

  // Every frame traced: the burst is small and the assertion wants
  // certainty, not a sample.
  bed.tracer().set_enabled(true);
  bed.tracer().set_head_sample_period(1);

  for (ris::RouterInterface* site : {&west, &east}) {
    auto client = transport::tcp_connect(loop, listener.port());
    if (!client.ok()) {
      std::printf("FAIL: connect: %s\n", client.error().c_str());
      return 1;
    }
    site->join(std::move(*client));
  }
  bool joined = loop.run_until(
      [&] { return west.joined() && east.joined(); });
  if (!joined) {
    std::printf("FAIL: TCP join handshake did not complete\n");
    return 1;
  }
  status = bed.server().connect_ports(bed.port_id("west/gen", "port1"),
                                      bed.port_id("east/gen", "port1"));
  if (!status.ok()) {
    std::printf("FAIL: connect_ports: %s\n", status.error().c_str());
    return 1;
  }

  constexpr std::uint32_t kFrames = 256;
  packet::EthernetFrame frame;
  frame.dst = packet::MacAddress::local(1);
  frame.src = packet::MacAddress::local(2);
  frame.ether_type = packet::EtherType::kIpv4;
  frame.payload.resize(256, 0x55);
  devices::TrafficGenerator::Stream stream;
  stream.template_frame = frame.serialize();
  stream.count = kFrames;
  stream.interval = util::Duration::microseconds(1);
  stream.burst = 32;
  gen_w.start_stream(0, stream);

  std::size_t last = 0;
  int stalled = 0;
  while (gen_e.rx_count(0) < kFrames && stalled < 1000) {
    bed.net().run_for(util::Duration::microseconds(100));
    loop.run_once(0);
    const std::size_t now = gen_e.rx_count(0);
    if (now == last) {
      ++stalled;
    } else {
      stalled = 0;
      last = now;
    }
  }
  expect(gen_e.rx_count(0) == kFrames, "all frames of the burst arrived");

  // -- Drop verdicts: one frame out of the unwired port must die at the
  //    matrix lookup and leave an unrouted_drop instant behind. --
  const wire::PortId unwired = bed.port_id("west/gen", "port2");
  const std::uint64_t drops_before = bed.server().stats().unrouted_drops;
  stream.count = 1;
  gen_w.start_stream(1, stream);
  for (int i = 0;
       i < 1000 && bed.server().stats().unrouted_drops == drops_before; ++i) {
    bed.net().run_for(util::Duration::microseconds(100));
    loop.run_once(0);
  }
  expect(bed.server().stats().unrouted_drops == drops_before + 1,
         "the unwired port's frame was dropped unrouted");

  // -- Cross-process completeness: capture, forward, and replay spans that
  //    share one id, each from the ring the right component pushed into. --
  struct PerTrace {
    bool capture = false;   // ris/west
    bool forward = false;   // routeserver/server
    bool replay = false;    // ris/east
    std::uint64_t forward_ns = 0;
    std::uint64_t sub_ns = 0;  // matrix lookup + egress enqueue
  };
  std::map<std::string, PerTrace> traces;
  std::size_t unrouted_instants = 0;
  const util::Json dump = bed.tracer().to_json();
  for (const auto& e : dump["events"].as_array()) {
    if (e["detail"].as_string() == "unrouted_drop" &&
        e["arg"].as_int() == static_cast<std::int64_t>(unwired)) {
      ++unrouted_instants;
      continue;
    }
    PerTrace& t = traces[e["trace_id"].as_string()];
    const std::string& stage = e["stage"].as_string();
    const std::string& component = e["component"].as_string();
    const std::string& site = e["site"].as_string();
    const auto dur = static_cast<std::uint64_t>(e["dur_ns"].as_int());
    if (stage == "capture" && component == "ris" && site == "west") {
      t.capture = true;
    } else if (stage == "forward" && component == "routeserver") {
      t.forward = true;
      t.forward_ns = dur;
    } else if (stage == "replay" && component == "ris" && site == "east") {
      t.replay = true;
    } else if (stage == "matrix_lookup" || stage == "egress_enqueue") {
      t.sub_ns += dur;
    }
  }
  std::size_t complete = 0;
  std::size_t sum_checked = 0;
  std::size_t sum_ok = 0;
  for (const auto& [id, t] : traces) {
    if (t.capture && t.forward && t.replay) ++complete;
    if (t.forward && t.sub_ns > 0) {
      ++sum_checked;
      const auto delta = t.sub_ns > t.forward_ns ? t.sub_ns - t.forward_ns
                                                 : t.forward_ns - t.sub_ns;
      if (delta * 10 <= t.forward_ns) ++sum_ok;
    }
  }
  std::printf(
      "  traces: %zu distinct ids, %zu complete capture->forward->replay\n",
      traces.size(), complete);
  expect(complete >= 1,
         "at least one trace id spans capture -> forward -> replay");
  expect(sum_checked > 0, "sub-span sum check had forward spans to check");
  expect(sum_ok == sum_checked,
         "per-stage durations sum within 10% of the forward span");
  expect(unrouted_instants == 1,
         "one unrouted_drop instant names the unwired port");

  // -- Perfetto export: write, re-parse, check the trace-event shape. --
  const std::string perfetto = bed.tracer().to_perfetto();
  {
    std::ofstream out(out_path);
    out << perfetto << "\n";
  }
  auto parsed = util::Json::parse(perfetto);
  if (!parsed.ok()) {
    std::printf("FAIL: Perfetto export is not valid JSON: %s\n",
                parsed.error().c_str());
    return 1;
  }
  const util::Json& pf = *parsed;
  expect(pf["traceEvents"].is_array(), "export carries traceEvents array");
  std::size_t metadata = 0;
  std::size_t spans = 0;
  for (const auto& e : pf["traceEvents"].as_array()) {
    const std::string& ph = e["ph"].as_string();
    if (ph == "M") ++metadata;
    if (ph == "X") ++spans;
  }
  expect(metadata >= 6, "process/thread name metadata present");
  expect(spans >= kFrames, "complete 'X' events cover the burst");
  std::printf("  perfetto: %zu events written to %s\n",
              pf["traceEvents"].as_array().size(), out_path);

  // -- API surface reachable the way an operator would use it. --
  util::Json request = util::Json::object();
  request.set("method", "trace.slow");
  request.set("params", util::Json::object());
  expect(bed.api().handle(request)["ok"].as_bool(), "trace.slow responds ok");
  request.set("method", "trace.dump");
  util::Json params = util::Json::object();
  params.set("max_events", 16);
  request.set("params", std::move(params));
  const util::Json response = bed.api().handle(request);
  expect(response["ok"].as_bool() &&
             response["result"]["events"].as_array().size() <= 16,
         "trace.dump honors max_events");

  if (g_failures != 0) {
    std::printf("trace smoke: %d check(s) FAILED\n", g_failures);
    return 1;
  }
  std::printf("trace smoke: all checks passed\n");
  return 0;
}
