#include "api_churn.h"

#include <filesystem>

namespace rnlb {

using rnl::util::Json;

namespace {

Json params() { return Json::object(); }

/// Journal size and compaction count, the pair journal growth is read from.
std::pair<std::uintmax_t, std::uint64_t> journal_mark(
    const rnl::core::JournalStore& journal) {
  std::error_code ec;
  const std::uintmax_t size =
      std::filesystem::file_size(journal.journal_path(), ec);
  return {ec ? 0 : size, journal.stats().compactions};
}

}  // namespace

ApiChurn::ApiChurn(rnl::core::Testbed& bed, std::function<void()> pump,
                   Report& report)
    : bed_(bed), pump_(std::move(pump)), report_(report) {
  next_slot_s_ = bed_.net().now().nanos / 1'000'000'000 + 1;
}

Json ApiChurn::call(const std::string& method, Json params, trace::Kind kind) {
  Json request = Json::object();
  request.set("method", method);
  request.set("params", std::move(params));
  ++report_.attempted;
  Json response = trace::handle(bed_.api(), request, kind);
  if (!response["ok"].as_bool()) {
    report_.violation("api " + method + " failed: " +
                      response["error"].as_string());
  }
  return response;
}

std::int64_t ApiChurn::design(const std::string& user, const std::string& name,
                             const std::vector<ApiPair*>& pairs) {
  Json create = params();
  create.set("user", user);
  create.set("name", name);
  const std::int64_t id = call("design.create", create, trace::Kind::kApiDesign)
                              ["result"]["design_id"].as_int();
  for (const ApiPair* pair : pairs) {
    for (auto router : {pair->router_a, pair->router_b}) {
      Json add = params();
      add.set("design_id", id);
      add.set("router_id", router);
      call("design.add_router", add, trace::Kind::kApiDesign);
    }
    Json connect = params();
    connect.set("design_id", id);
    connect.set("a", pair->port_a);
    connect.set("b", pair->port_b);
    call("design.connect", connect, trace::Kind::kApiDesign);
  }
  return id;
}

void ApiChurn::reserve(std::int64_t design, std::int64_t hold_s) {
  const std::int64_t slot = next_slot_s_;
  next_slot_s_ += hold_s;
  bed_.net().scheduler().run_until(rnl::util::SimTime{slot * 1'000'000'000});
  Json reserve = params();
  reserve.set("design_id", design);
  reserve.set("start_s", slot);
  reserve.set("end_s", slot + hold_s);
  call("reserve", reserve, trace::Kind::kApiReserve);
}

bool ApiChurn::pump_until(const std::function<bool()>& done) {
  return wait_until(
      [&] {
        pump_();
        return done();
      },
      2.0);
}

std::int64_t ApiChurn::deploy_for(const std::vector<ApiPair*>& pairs,
                                  const std::string& user, std::int64_t hold_s) {
  const std::int64_t id = design(user, "bench-" + user, pairs);
  reserve(id, hold_s);
  Json deploy = params();
  deploy.set("design_id", id);
  return call("deploy", deploy, trace::Kind::kApiDeploy)["result"]["deployment_id"]
      .as_int();
}

void ApiChurn::teardown(std::int64_t deployment) {
  Json teardown = params();
  teardown.set("deployment_id", deployment);
  call("teardown", teardown, trace::Kind::kApiTeardown);
}

void ApiChurn::churn_for(double seconds, const std::vector<ApiPair*>& pairs,
                         std::uint64_t seed) {
  const std::int64_t t0 = now_ns();
  while (now_ns() - t0 < static_cast<std::int64_t>(seconds * 1e9)) {
    const std::uint64_t id = next_id_++;
    cycle(*pairs[mix(seed, id) % pairs.size()], id);
  }
}

void ApiChurn::cycle(ApiPair& pair, std::uint64_t id) {
  std::pair<std::uintmax_t, std::uint64_t> mark_before{};
  if (journal != nullptr) mark_before = journal_mark(*journal);

  const std::int64_t lab = design(pair.user, "lab" + std::to_string(id), {&pair});
  reserve(lab, 1);
  Json deploy = params();
  deploy.set("design_id", lab);
  const std::int64_t t_request = now_ns();
  const Json deployed = call("deploy", deploy, trace::Kind::kApiDeploy);
  const std::int64_t t_return = now_ns();
  pair.a->send_marker(FrameClass::kDeployProbe, id);
  if (pump_until([&] { return pair.b->marker_id() == id; })) {
    const std::int64_t arrived = pair.b->marker_rx_ns();
    deploy_ms.push_back({t_request, static_cast<double>(arrived - t_request) / 1e6});
    first_frame_us.push_back({t_return, static_cast<double>(arrived - t_return) / 1e3});
  } else {
    report_.violation("deploy probe never crossed the deployed wire");
  }

  for (const char* method : {"inventory.list", "stats", "inventory.list", "stats"}) {
    const std::int64_t t0 = now_ns();
    call(method, params(), trace::Kind::kApiRead);
    read_us.push_back({t0, static_cast<double>(now_ns() - t0) / 1e3});
  }

  teardown(deployed["result"]["deployment_id"].as_int());

  // A frame sent after teardown must be dropped as unrouted, never delivered.
  const std::uint64_t drops = bed_.server().stats().unrouted_drops;
  pair.a->send_marker(FrameClass::kAfterTeardown, id);
  if (!pump_until([&] { return bed_.server().stats().unrouted_drops > drops; })) {
    report_.violation("frame sent after teardown was not dropped");
  }

  if (journal != nullptr) {
    const auto mark_after = journal_mark(*journal);
    if (mark_after.second == mark_before.second) {
      journal_bytes.push_back(
          static_cast<double>(mark_after.first - mark_before.first));
    }
  }
  ++cycles;
}

void set_api_metrics(Report& report, const ApiChurn& churn) {
  const auto acc = trace::totals(trace::kChurn);
  auto mean_us = [&](trace::Kind k) {
    const trace::Acc& a = acc[static_cast<std::size_t>(k)];
    return a.count ? static_cast<double>(a.total_ns) / static_cast<double>(a.count) / 1e3 : 0;
  };
  report.set("api.design_us", mean_us(trace::Kind::kApiDesign), "us");
  report.set("api.reserve_us", mean_us(trace::Kind::kApiReserve), "us");
  report.set("api.deploy_us", mean_us(trace::Kind::kApiDeploy), "us");
  report.set("api.teardown_us", mean_us(trace::Kind::kApiTeardown), "us");
  report.set("api.read_us", mean_us(trace::Kind::kApiRead), "us");
  report.set("labservice.first_frame_us", median(churn.first_frame_us), "us");
}

}  // namespace rnlb
