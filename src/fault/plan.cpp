#include "fault/plan.hpp"

#include <sstream>

#include "support/diagnostics.hpp"

namespace valpipe::fault {

namespace {

[[noreturn]] void bad(const std::string& entry, const std::string& why) {
  throw CompileError("--faults: bad entry '" + entry + "': " + why);
}

dfg::FuClass parseFuClass(const std::string& entry, const std::string& s) {
  if (s == "pe") return dfg::FuClass::Pe;
  if (s == "alu") return dfg::FuClass::Alu;
  if (s == "fpu") return dfg::FuClass::Fpu;
  if (s == "am") return dfg::FuClass::Am;
  bad(entry, "unknown FU class '" + s + "' (want pe|alu|fpu|am)");
}

std::int64_t parseInt(const std::string& entry, const std::string& s) {
  try {
    std::size_t used = 0;
    const long long v = std::stoll(s, &used);
    if (used != s.size() || v < 0) bad(entry, "want a non-negative integer");
    return v;
  } catch (const CompileError&) {
    throw;
  } catch (...) {
    bad(entry, "want a non-negative integer");
  }
}

int parsePermille(const std::string& entry, const std::string& s) {
  const std::int64_t v = parseInt(entry, s);
  if (v > 1000) bad(entry, "per-mille rate must be <= 1000");
  return static_cast<int>(v);
}

const char* fuName(dfg::FuClass fc) {
  switch (fc) {
    case dfg::FuClass::Pe: return "pe";
    case dfg::FuClass::Alu: return "alu";
    case dfg::FuClass::Fpu: return "fpu";
    case dfg::FuClass::Am: return "am";
  }
  return "?";
}

}  // namespace

Plan parsePlan(const std::string& spec) {
  Plan plan;
  std::stringstream ss(spec);
  std::string entry;
  while (std::getline(ss, entry, ',')) {
    if (entry.empty()) continue;
    const std::size_t eq = entry.find('=');
    const std::string key = entry.substr(0, eq);
    const std::string val =
        eq == std::string::npos ? std::string() : entry.substr(eq + 1);
    // An empty value fails the key's own parser, like any malformed one.
    if (key == "seed") {
      plan.seed = static_cast<std::uint64_t>(parseInt(entry, val));
    } else if (key == "jitter") {
      plan.latencyJitterMax = static_cast<int>(parseInt(entry, val));
    } else if (key == "delay") {
      plan.deliveryDelayMax = static_cast<int>(parseInt(entry, val));
    } else if (key == "outage") {
      // CLASS@FROM+LEN, e.g. fpu@100+50
      const std::size_t at = val.find('@');
      const std::size_t plus = val.find('+', at == std::string::npos ? 0 : at);
      if (at == std::string::npos || plus == std::string::npos)
        bad(entry, "want CLASS@FROM+LEN, e.g. fpu@100+50");
      Outage o;
      o.fu = parseFuClass(entry, val.substr(0, at));
      o.from = parseInt(entry, val.substr(at + 1, plus - at - 1));
      o.length = parseInt(entry, val.substr(plus + 1));
      plan.outages.push_back(o);
    } else if (key == "drop-result") {
      plan.dropResultPermille = parsePermille(entry, val);
    } else if (key == "dup-result") {
      plan.dupResultPermille = parsePermille(entry, val);
    } else if (key == "drop-ack") {
      plan.dropAckPermille = parsePermille(entry, val);
    } else if (key == "dup-ack") {
      plan.dupAckPermille = parsePermille(entry, val);
    } else {
      bad(entry, "unknown key (want seed, jitter, delay, outage, "
                 "drop-result, dup-result, drop-ack, dup-ack)");
    }
  }
  return plan;
}

std::string describe(const Plan& plan) {
  std::ostringstream os;
  os << "seed=" << plan.seed;
  if (plan.latencyJitterMax) os << ",jitter=" << plan.latencyJitterMax;
  if (plan.deliveryDelayMax) os << ",delay=" << plan.deliveryDelayMax;
  for (const Outage& o : plan.outages)
    os << ",outage=" << fuName(o.fu) << "@" << o.from << "+" << o.length;
  if (plan.dropResultPermille) os << ",drop-result=" << plan.dropResultPermille;
  if (plan.dupResultPermille) os << ",dup-result=" << plan.dupResultPermille;
  if (plan.dropAckPermille) os << ",drop-ack=" << plan.dropAckPermille;
  if (plan.dupAckPermille) os << ",dup-ack=" << plan.dupAckPermille;
  return os.str();
}

std::string Counters::str() const {
  std::ostringstream os;
  auto item = [&os](std::uint64_t n, const char* what) {
    if (n == 0) return;
    if (os.tellp() > 0) os << ", ";
    os << n << " " << what;
  };
  item(delayedResults, "delayed results");
  item(outageDenials, "outage denials");
  item(droppedResults, "dropped results");
  item(duplicatedResults, "duplicated results");
  item(droppedAcks, "dropped acks");
  item(duplicatedAcks, "duplicated acks");
  return os.str();
}

}  // namespace valpipe::fault
