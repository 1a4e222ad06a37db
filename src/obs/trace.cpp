#include "obs/trace.hpp"

#include <algorithm>

#include "dfg/opcode.hpp"
#include "support/check.hpp"

namespace valpipe::obs {

std::string cellDisplayName(const dfg::Graph& g, std::uint32_t cell) {
  const dfg::Node& n = g.node(dfg::NodeId{cell});
  if (!n.label.empty()) return n.label;
  if (!n.streamName.empty())
    return std::string(dfg::mnemonic(n.op)) + " " + n.streamName;
  return std::string(dfg::mnemonic(n.op)) + " #" + std::to_string(cell);
}

TraceMeta TraceMeta::of(const dfg::Graph& lowered) {
  TraceMeta m;
  const auto n = static_cast<std::uint32_t>(lowered.size());
  m.cellName.reserve(n);
  m.fuOf.reserve(n);
  for (std::uint32_t c = 0; c < n; ++c) {
    m.cellName.push_back(cellDisplayName(lowered, c));
    m.fuOf.push_back(static_cast<std::uint8_t>(
        dfg::fuClass(lowered.node(dfg::NodeId{c}).op)));
  }
  return m;
}

void TraceSink::begin(TraceMeta meta) {
  events_.clear();
  meta_ = std::move(meta);
  sealed_ = false;
}

void TraceSink::seal() {
  VALPIPE_CHECK_MSG(!sealed_, "TraceSink sealed twice without begin()");
  // Stable: key ties keep the schedule's own push order.
  std::stable_sort(events_.begin(), events_.end(), eventKeyLess);
  sealed_ = true;
}

bool TraceSink::sameSchedule(const TraceSink& a, const TraceSink& b) {
  VALPIPE_CHECK_MSG(a.sealed() && b.sealed(),
                    "sameSchedule requires sealed traces");
  return std::equal(a.events_.begin(), a.events_.end(), b.events_.begin(),
                    b.events_.end(), eventKeyEqual);
}

}  // namespace valpipe::obs
