// Host-speed calibration.
//
// On a shared host the same binary runs up to twice as fast in one minute
// as in the next: neighbours contend for the physical core, caches and
// memory bandwidth, and CPU time inflates with wall time, so no clock hides
// it.  Each workload therefore times this fixed kernel — no valpipe code,
// the same pointer chasing, tree allocation and streaming arithmetic mix —
// at regular points of its measured phase, never while valpipe code runs:
// between rounds (figures), between compiles (compile), or with the clients
// parked and the server idle (serve).  It reports its times scaled by
// kNominalSeconds / median(kernel).  A valpipe change moves the scaled
// figures as it moves the raw ones; host drift moves both the workload and
// the kernel, and mostly cancels.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <numeric>
#include <random>
#include <vector>

#include "workloads.hpp"

namespace perfbench {

namespace {

volatile double gSink = 0;

/// A random cyclic permutation over 128 KiB: next[i] is i's successor.
const std::vector<std::uint32_t>& chase() {
  static const std::vector<std::uint32_t> next = [] {
    std::vector<std::uint32_t> order(1u << 15);
    std::iota(order.begin(), order.end(), 0u);
    std::mt19937 rng(12345);
    std::shuffle(order.begin() + 1, order.end(), rng);
    std::vector<std::uint32_t> n(order.size());
    for (std::size_t k = 0; k < order.size(); ++k)
      n[order[k]] = order[(k + 1) % order.size()];
    return n;
  }();
  return next;
}

double calibrationSeconds() {
  const std::vector<std::uint32_t>& next = chase();
  const auto t0 = Clock::now();
  std::uint32_t i = 0;
  for (int k = 0; k < 100000; ++k) i = next[i];
  std::map<std::uint32_t, double> tree;
  for (std::uint32_t k = 0; k < 3000; ++k) tree[(k * 2654435761u) % 100003u] += k;
  std::vector<double> v(1u << 15);
  double acc = 0;
  for (int rep = 0; rep < 8; ++rep)
    for (std::size_t k = 0; k < v.size(); ++k) {
      v[k] = v[k] * 0.5 + static_cast<double>(k ^ i);
      acc += v[k];
    }
  gSink = acc + static_cast<double>(i) + static_cast<double>(tree.size());
  return secondsSince(t0);
}

}  // namespace

void HostSpeed::sample() { samples_.push_back(calibrationSeconds()); }

double HostSpeed::factor() const {
  return samples_.empty() ? 1.0 : median(samples_) / kNominalSeconds;
}

}  // namespace perfbench
