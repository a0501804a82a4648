#pragma once

#include <memory>
#include <vector>

#include "scheme/session.h"

namespace ugc {

// Result of one in-process scheme exchange (run_scheme_exchange).
struct SchemeExchangeResult {
  // One verdict per task, in task order.
  std::vector<Verdict> verdicts;
  // The participants' honest screener reports, in task order.
  std::vector<ScreenerReport> reports;
  // Hits the supervisor session established itself (upload-based schemes).
  std::vector<TaskHits> supervisor_hits;
  // Genuine f evaluations across all participant sessions.
  std::uint64_t participant_evaluations = 0;
  // ResultVerifier invocations on the supervisor side.
  std::uint64_t results_verified = 0;

  bool all_accepted() const {
    for (const Verdict& verdict : verdicts) {
      if (!verdict.accepted()) {
        return false;
      }
    }
    return !verdicts.empty();
  }
};

// Runs one complete exchange fully in-process: opens one participant session
// per task (all driven by `policy`) and a supervisor session over the whole
// group, then relays SchemeMessages between them until every task has a
// verdict. The quickest way to drive a scheme without the grid — and the
// reference for what a Transport implementation must do with the session
// API (grid/transport.h): SimTransport and the TCP transport in src/net/
// both reduce to this relay loop, plus framing, routing, and timeouts.
//
// `verifier` may be null, in which case results are checked by recomputing
// through tasks[0].f. Throws ugc::Error if the exchange stalls before all
// verdicts are in (a scheme/session bug, not a protocol outcome).
SchemeExchangeResult run_scheme_exchange(
    const VerificationScheme& scheme, const std::vector<Task>& tasks,
    const SchemeConfig& config, std::shared_ptr<const HonestyPolicy> policy,
    std::shared_ptr<const ResultVerifier> verifier, std::uint64_t seed);

// Single-task convenience overload.
SchemeExchangeResult run_scheme_exchange(
    const VerificationScheme& scheme, const Task& task,
    const SchemeConfig& config, std::shared_ptr<const HonestyPolicy> policy,
    std::shared_ptr<const ResultVerifier> verifier = nullptr,
    std::uint64_t seed = 1);

}  // namespace ugc
