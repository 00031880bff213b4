// Result digests of the benchmark's correctness check.
//
// A digest covers only simulated outcomes: simulated times, energies,
// residencies, agent, wake and host statistics. Simulator-work counters
// (ExperimentResult::sim_events, ReplayResult::events_processed, shard
// profiles) are left out on purpose: an optimisation that simulates the
// same system with fewer DES events must still match. Doubles are hashed by
// bit pattern, so any rounding change is caught.
#pragma once

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "network/fabric.hpp"
#include "power/power_model.hpp"
#include "sim/experiment.hpp"
#include "sim/replay.hpp"

namespace ibbench {

/// 64-bit FNV-1a over the fed values.
class Digest {
 public:
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xffu;
      h_ *= 1099511628211ull;
    }
  }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void f64(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    u64(bits);
  }
  void time(ibpower::TimeNs t) { i64(t.ns); }
  [[nodiscard]] std::uint64_t value() const { return h_; }

  void fleet(const ibpower::FleetPowerSummary& p) {
    f64(p.mean_low_residency);
    f64(p.switch_savings_pct);
    f64(p.total_energy_joules);
    f64(p.baseline_energy_joules);
  }
  void agents(const ibpower::AgentStats& a) {
    u64(a.total_calls);
    u64(a.predicted_calls);
    u64(a.pattern_mispredicts);
    u64(a.arms);
    u64(a.arm_failures);
    u64(a.grams_closed);
    u64(a.ppa_scan_invocations);
    u64(a.power_requests);
    u64(a.mispredict_wakes);
    u64(a.guard_suppressed);
    time(a.requested_low_power_total);
    time(a.modeled_overhead_total);
  }
  void hosts(const ibpower::HostFleetSummary& h) {
    f64(h.mean_sleep_residency);
    f64(h.total_energy_joules);
    f64(h.baseline_energy_joules);
    f64(h.savings_pct);
    u64(h.sleep_requests);
    u64(h.on_demand_wakes);
    u64(h.pstate_changes);
    time(h.wake_penalty_total);
  }

 private:
  std::uint64_t h_{1469598103934665603ull};
};

/// Digest of one baseline + managed experiment (grid cell or campaign row).
inline std::uint64_t digest_experiment(const ibpower::ExperimentResult& r) {
  Digest d;
  d.time(r.baseline_time);
  d.time(r.managed_time);
  d.f64(r.time_increase_pct);
  d.fleet(r.power);
  d.fleet(r.fabric_power);
  d.agents(r.agents);
  d.f64(r.hit_rate_pct);
  for (const auto& b : r.baseline_idle.buckets) {
    d.u64(b.count);
    d.time(b.idle_time);
    d.f64(b.pct_intervals);
    d.f64(b.pct_idle_time);
  }
  d.u64(r.baseline_idle.total_intervals);
  d.time(r.baseline_idle.total_idle);
  d.u64(r.on_demand_wakes);
  d.time(r.wake_penalty_total);
  d.u64(r.mpi_calls);
  d.u64(r.messages);
  d.hosts(r.hosts);
  d.f64(r.system_energy_joules);
  d.f64(r.system_baseline_energy_joules);
  d.f64(r.system_savings_pct);
  return d.value();
}

/// Digest of one finished managed replay: its timeline outcome plus the
/// energy, residency and wake totals over every fabric link.
inline std::uint64_t digest_replay(const ibpower::ReplayEngine& engine,
                                   const ibpower::ReplayResult& rr) {
  Digest d;
  d.time(rr.exec_time);
  for (const ibpower::TimeNs t : rr.rank_finish) d.time(t);
  d.agents(rr.agent_total);
  d.u64(rr.messages_sent);
  const ibpower::Fabric& fabric = engine.fabric();
  std::vector<const ibpower::IbLink*> links;
  std::uint64_t wakes = 0;
  ibpower::TimeNs penalty{};
  for (ibpower::LinkId l = 0; l < fabric.topology().num_links(); ++l) {
    const ibpower::IbLink& link = fabric.link(l);
    links.push_back(&link);
    wakes += link.on_demand_wakes();
    penalty += link.wake_penalty_total();
  }
  d.fleet(ibpower::aggregate_power(links, ibpower::PowerModelConfig{}));
  d.u64(wakes);
  d.time(penalty);
  return d.value();
}

}  // namespace ibbench
