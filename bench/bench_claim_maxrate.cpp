// C1 — §3 claims about the machine's pipelining behaviour:
//   (a) an instruction's minimum repetition period is two instruction times
//       (rate cap 0.5), independent of pipeline depth;
//   (b) the computation rate of a pipeline is set by its slowest stage;
//   (c) unbalanced reconvergent paths break full pipelining until identity
//       buffering equalizes them.
#include "bench_common.hpp"

#include "dfg/graph.hpp"

namespace {

using namespace valpipe;
using dfg::Graph;
using dfg::Op;

double chainRate(int depth, int slowStageLatency = 1) {
  const std::int64_t n = 2048;
  Graph g;
  dfg::PortSrc cur = Graph::out(g.input("a", n));
  for (int d = 0; d < depth; ++d) cur = Graph::out(g.identity(cur));
  // A "slow stage": one multiply whose FU latency we vary.
  cur = Graph::out(g.binary(Op::Mul, cur, Graph::lit(Value(1.0))));
  g.output("x", cur);

  machine::MachineConfig cfg;
  cfg.execLatency[static_cast<int>(dfg::FuClass::Fpu)] = slowStageLatency;
  machine::RunOptions opts;
  opts.expectedOutputs["x"] = n;
  const auto res =
      machine::simulate(g, cfg, {{"a", bench::randomStream(n, 1)}}, opts);
  return res.steadyRate("x");
}

double diamondRate(int imbalance, int buffer) {
  const std::int64_t n = 2048;
  Graph g;
  const auto in = g.input("a", n);
  dfg::PortSrc shortPath = Graph::out(g.identity(Graph::out(in)));
  if (buffer > 0) shortPath = g.fifo(shortPath, buffer);
  dfg::PortSrc longPath = Graph::out(in);
  for (int d = 0; d < 1 + imbalance; ++d)
    longPath = Graph::out(g.identity(longPath));
  g.output("x", Graph::out(g.binary(Op::Add, shortPath, longPath)));
  machine::RunOptions opts;
  opts.expectedOutputs["x"] = n;
  const auto res =
      machine::simulate(dfg::expandFifos(g), machine::MachineConfig::unit(),
                        {{"a", bench::randomStream(n, 2)}}, opts);
  return res.steadyRate("x");
}

}  // namespace

int main() {
  using namespace valpipe;
  bench::banner("C1 (Section 3)",
                "maximum repetition rate and the slowest-stage law",
                "rate = 0.5 at any depth; rate = 1/(L+1) when one stage "
                "needs L instruction times; unbalanced paths degrade until "
                "buffered");

  std::printf("-- (a) rate vs pipeline depth (all unit stages) --\n");
  TextTable depth({"stages", "rate", "paper"});
  for (int d : {1, 8, 64, 256, 1024})
    depth.addRow({std::to_string(d), fmtDouble(chainRate(d), 4), "0.5"});
  std::printf("%s\n", depth.str().c_str());

  std::printf("-- (b) rate vs slowest-stage latency L --\n");
  TextTable slow({"L", "rate", "paper 1/(L+1)"});
  for (int L : {1, 2, 3, 4, 7})
    slow.addRow({std::to_string(L), fmtDouble(chainRate(16, L), 4),
                 fmtDouble(1.0 / (L + 1), 4)});
  std::printf("%s\n", slow.str().c_str());

  std::printf("-- (c) unbalanced reconvergence, then identity buffering --\n");
  TextTable diam({"extra stages", "buffer", "rate", "paper"});
  for (int k : {1, 2, 4}) {
    diam.addRow({std::to_string(k), "0", fmtDouble(diamondRate(k, 0), 4),
                 "<0.5"});
    diam.addRow({std::to_string(k), std::to_string(k),
                 fmtDouble(diamondRate(k, k), 4), "0.5"});
  }
  std::printf("%s\n", diam.str().c_str());
  return 0;
}
