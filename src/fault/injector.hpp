// Hot-path decision maker of the fault-injection harness.
//
// One Injector per engine run.  It holds a pointer to the run's fault::Plan
// — null when fault injection is off, making every hook a branch on a null
// pointer, the same zero-cost idiom as obs::LaneProbe — plus a splitmix64
// decision stream seeded from plan.seed so every decision is reproducible
// for a given scheduler.
//
// Outage decisions take no randomness (they are pure functions of the static
// plan and the current instruction time), so they agree across schedulers.
#pragma once

#include <cstdint>

#include "fault/plan.hpp"

namespace valpipe::fault {

class Injector {
 public:
  Injector() = default;
  // The seeding formula is part of the reproducibility contract: existing
  // seeded plans (and the rng word in saved snapshots) assume it.
  explicit Injector(const Plan* plan)
      : plan_(plan), state_(0x6a09e667f3bcc909ull ^
                            ((plan ? plan->seed : 0) + 0x9e3779b97f4a7c15ull)) {}

  bool active() const { return plan_ != nullptr; }
  const Plan* plan() const { return plan_; }

  std::int64_t maxExtraDelay() const {
    return plan_ ? plan_->maxExtraDelay() : 0;
  }
  /// Earliest instruction time quiescence may be declared at (outages keep
  /// waiting cells alive past any idle window).
  std::int64_t quiesceFloor() const {
    return plan_ ? plan_->lastOutageEnd() : 0;
  }

  /// Extra result-transit latency for the current firing.
  std::int64_t execJitter() {
    if (!plan_ || plan_->latencyJitterMax == 0) return 0;
    const std::int64_t j = draw(plan_->latencyJitterMax);
    if (j > 0) ++counters.delayedResults;
    return j;
  }

  /// Extra delivery delay for one result packet.
  std::int64_t deliveryDelay() {
    if (!plan_ || plan_->deliveryDelayMax == 0) return 0;
    const std::int64_t d = draw(plan_->deliveryDelayMax);
    if (d > 0) ++counters.delayedResults;
    return d;
  }

  /// End of the outage window covering `now` for `fc`; > now means the
  /// grant is denied (and counted).
  std::int64_t outageUntil(dfg::FuClass fc, std::int64_t now) {
    if (!plan_ || plan_->outages.empty()) return now;
    const std::int64_t until = plan_->outageUntil(fc, now);
    if (until > now) ++counters.outageDenials;
    return until;
  }

  bool dropResult() {
    if (!plan_ || plan_->dropResultPermille == 0) return false;
    const bool hit = bernoulli(plan_->dropResultPermille);
    if (hit) ++counters.droppedResults;
    return hit;
  }
  bool dupResult() {
    if (!plan_ || plan_->dupResultPermille == 0) return false;
    const bool hit = bernoulli(plan_->dupResultPermille);
    if (hit) ++counters.duplicatedResults;
    return hit;
  }
  bool dropAck() {
    if (!plan_ || plan_->dropAckPermille == 0) return false;
    const bool hit = bernoulli(plan_->dropAckPermille);
    if (hit) ++counters.droppedAcks;
    return hit;
  }
  bool dupAck() {
    if (!plan_ || plan_->dupAckPermille == 0) return false;
    const bool hit = bernoulli(plan_->dupAckPermille);
    if (hit) ++counters.duplicatedAcks;
    return hit;
  }

  Counters counters;

  // --- checkpoint/restore (src/recover) ---
  // The splitmix64 decision stream is part of the reproducibility contract:
  // a restored run must make the same remaining decisions the uninterrupted
  // run would, so snapshots carry the raw state word.
  std::uint64_t rngState() const { return state_; }
  void setRngState(std::uint64_t s) { state_ = s; }

 private:
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  std::int64_t draw(int maxv) {
    return static_cast<std::int64_t>(next() %
                                     static_cast<std::uint64_t>(maxv + 1));
  }
  bool bernoulli(int permille) {
    return static_cast<int>(next() % 1000) < permille;
  }

  const Plan* plan_ = nullptr;
  std::uint64_t state_ = 0;
};

}  // namespace valpipe::fault
