#pragma once

// Closed-loop lab churn through the web-services API, as one user scripting
// the nightly cycle (§3.2): design.create / add_router / connect, reserve,
// deploy, a probe frame across the deployed wire, four reads, teardown, and
// a frame after teardown that must not arrive.

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common.h"
#include "core/journal.h"
#include "core/testbed.h"

namespace rnlb {

/// One user pair of probes as the inventory sees them.
struct ApiPair {
  Probe* a = nullptr;
  Probe* b = nullptr;
  rnl::wire::RouterId router_a = 0;
  rnl::wire::RouterId router_b = 0;
  rnl::wire::PortId port_a = 0;
  rnl::wire::PortId port_b = 0;
  std::string user;
};

class ApiChurn {
 public:
  /// `pump` advances the world once (and drives any background traffic).
  ApiChurn(rnl::core::Testbed& bed, std::function<void()> pump,
           Report& report);

  /// Deploys every pair in `pairs` as one design under `user`, reserved
  /// for `hold_s` virtual seconds (later cycles book slots after it).
  /// Returns the deployment id, or 0 (recorded as a violation) on failure.
  std::int64_t deploy_for(const std::vector<ApiPair*>& pairs,
                          const std::string& user, std::int64_t hold_s);

  /// Runs cycles for `seconds`, picking pairs in a seeded order.
  void churn_for(double seconds, const std::vector<ApiPair*>& pairs,
                 std::uint64_t seed);

  /// When set (traced pass), journal growth per cycle is sampled.
  rnl::core::JournalStore* journal = nullptr;

  std::vector<Sample> deploy_ms;       // deploy request -> first frame
  std::vector<Sample> first_frame_us;  // deploy return -> first frame
  std::vector<Sample> read_us;
  std::vector<double> journal_bytes;   // per cycle without a compaction
  std::uint64_t cycles = 0;

 private:
  /// One full cycle on `pair`; `id` tags its probe frames.
  void cycle(ApiPair& pair, std::uint64_t id);
  rnl::util::Json call(const std::string& method, rnl::util::Json params,
                       trace::Kind kind);
  /// A design wiring every pair in `pairs`; returns its id.
  std::int64_t design(const std::string& user, const std::string& name,
                      const std::vector<ApiPair*>& pairs);
  /// Advances virtual time to the next free reservation slot and books
  /// [slot, slot + hold_s) for `design`.
  void reserve(std::int64_t design, std::int64_t hold_s);
  void teardown(std::int64_t deployment);
  bool pump_until(const std::function<bool()>& done);

  rnl::core::Testbed& bed_;
  std::function<void()> pump_;
  Report& report_;
  std::int64_t next_slot_s_ = 0;
  std::uint64_t next_id_ = 1;
};

/// api.* (mean time inside ApiServer::handle per call kind, churn phase)
/// and labservice.first_frame_us from a traced churn.
void set_api_metrics(Report& report, const ApiChurn& churn);

}  // namespace rnlb
