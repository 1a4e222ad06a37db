// Lane packs (support/value.hpp + serve/lanes.hpp): the Value-level
// soundness contract of lane-batched serving.  Every scalar op broadcasts
// lane-wise with scalar operands replicated, so lane l of a packed run is
// bit-identical to tenant l's solo run; boolean contexts accept only
// lane-uniform packs (divergence throws ValueError — the batch-fallback
// trigger); packs never nest and never impersonate scalars.
#include <gtest/gtest.h>

#include <limits>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "serve/lanes.hpp"
#include "testing.hpp"

namespace valpipe {
namespace {

Value p(std::vector<Value> lanes) { return Value::pack(std::move(lanes)); }

TEST(ValueLanes, PackBasics) {
  const Value v = p({Value(1.5), Value(-2.0), Value(3.0)});
  EXPECT_TRUE(v.isPack());
  EXPECT_EQ(v.kind(), ValueKind::Pack);
  EXPECT_EQ(v.laneKind(), ValueKind::Real);
  EXPECT_EQ(v.laneWidth(), 3u);
  EXPECT_EQ(v.lane(0), Value(1.5));
  EXPECT_EQ(v.lane(1), Value(-2.0));
  EXPECT_EQ(v.lane(2), Value(3.0));

  // A pack is a typed column: its lanes share one kind.
  EXPECT_THROW(p({Value(1.5), Value(-2.0), Value(int64_t{3})}), ValueError);
  EXPECT_THROW(p({Value(true), Value(int64_t{1})}), ValueError);

  // A scalar is its own sole lane for any index (broadcast view).
  const Value s(7.0);
  EXPECT_EQ(s.laneWidth(), 1u);
  EXPECT_EQ(s.lane(0), s);
  EXPECT_EQ(s.lane(2), s);
}

TEST(ValueLanes, PackRejectsEmptyAndNested) {
  EXPECT_THROW(Value::pack({}), ValueError);
  const Value inner = p({Value(1.0), Value(2.0)});
  EXPECT_THROW(Value::pack({inner, Value(3.0)}), ValueError);
}

TEST(ValueLanes, OpsBroadcastLaneWise) {
  const Value a = p({Value(1.0), Value(2.0), Value(-3.0)});
  const Value b = p({Value(10.0), Value(0.5), Value(4.0)});
  const Value sum = ops::add(a, b);
  ASSERT_TRUE(sum.isPack());
  ASSERT_EQ(sum.laneWidth(), 3u);
  for (std::size_t l = 0; l < 3; ++l)
    EXPECT_EQ(sum.lane(l), ops::add(a.lane(l), b.lane(l))) << "lane " << l;

  // Scalar operand replicates across lanes.
  const Value scaled = ops::mul(a, Value(2.0));
  ASSERT_EQ(scaled.laneWidth(), 3u);
  for (std::size_t l = 0; l < 3; ++l)
    EXPECT_EQ(scaled.lane(l), ops::mul(a.lane(l), Value(2.0))) << "lane " << l;

  // Relational ops yield boolean packs, lane by lane.
  const Value cmp = ops::lt(a, b);
  ASSERT_TRUE(cmp.isPack());
  EXPECT_EQ(cmp.lane(0), Value(true));
  EXPECT_EQ(cmp.lane(1), Value(false));
  EXPECT_EQ(cmp.lane(2), Value(true));

  // Width mismatch is a ValueError, not silent truncation.
  EXPECT_THROW(ops::add(a, p({Value(1.0), Value(2.0)})), ValueError);
}

// The typed lane loops against the scalar ops, for every op, every kind
// pairing and every operand shape (pack x pack, pack x scalar, scalar x
// pack), with NaN, signed zeros, infinities, zero divisors and INT64_MIN
// among the lanes.  Lane l of a pack result must be the scalar op on lane l
// bit for bit; where some lane's scalar op throws, the pack op must throw
// the first such lane's text.  (No column holds integer -1: INT64_MIN / -1
// traps in the scalar op itself.)
TEST(ValueLanes, TypedLoopsMatchTheScalarOpsBitwise) {
  constexpr std::size_t kLanes = 4;
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::int64_t lo = std::numeric_limits<std::int64_t>::min();
  const std::int64_t hi = std::numeric_limits<std::int64_t>::max();
  using Column = std::vector<Value>;
  const std::vector<Column> reals = {
      {Value(1.5), Value(-0.0), Value(0.0), Value(nan)},
      {Value(inf), Value(-inf), Value(2.0), Value(-3.25)},
      {Value(-0.0), Value(nan), Value(inf), Value(1e-300)},
      {Value(2.0), Value(0.5), Value(-7.0), Value(3.0)},
  };
  const std::vector<Column> integers = {
      {Value(lo), Value(hi), Value(0), Value(7)},
      {Value(3), Value(-5), Value(2), Value(lo)},
      {Value(0), Value(1), Value(-8), Value(hi)},
      {Value(2), Value(9), Value(4), Value(6)},
  };
  const std::vector<Column> booleans = {
      {Value(true), Value(false), Value(true), Value(false)},
      {Value(true), Value(true), Value(false), Value(false)},
      {Value(false), Value(false), Value(false), Value(false)},
  };
  std::vector<Column> columns;
  for (const auto* kind : {&reals, &integers, &booleans})
    columns.insert(columns.end(), kind->begin(), kind->end());

  using Bin = Value (*)(const Value&, const Value&);
  using Un = Value (*)(const Value&);
  const std::vector<std::pair<const char*, Bin>> binary = {
      {"add", &ops::add}, {"sub", &ops::sub}, {"mul", &ops::mul},
      {"div", &ops::div}, {"min", &ops::min}, {"max", &ops::max},
      {"mod", &ops::mod}, {"lt", &ops::lt},   {"le", &ops::le},
      {"gt", &ops::gt},   {"ge", &ops::ge},   {"eq", &ops::eq},
      {"ne", &ops::ne},   {"and", &ops::logicalAnd},
      {"or", &ops::logicalOr}};
  const std::vector<std::pair<const char*, Un>> unary = {
      {"neg", &ops::neg}, {"abs", &ops::abs}, {"not", &ops::logicalNot}};

  // A result or the text it threw.
  struct Outcome {
    std::optional<Value> value;
    std::string error;
  };
  const auto run = [](auto&& f) {
    Outcome o;
    try {
      o.value = f();
    } catch (const ValueError& e) {
      o.error = e.what();
    }
    return o;
  };
  const auto bitwise = [](const Value& x, const Value& y) {
    return x.kind() == y.kind() && x.word() == y.word();
  };
  // `packed` against the scalar op on each lane of `lanes`.
  int checked = 0;
  const auto expectLaneWise = [&](const Outcome& packed,
                                  const std::vector<Outcome>& lanes,
                                  const std::string& what) {
    ++checked;
    for (const Outcome& lane : lanes)
      if (!lane.value) {
        EXPECT_EQ(packed.error, lane.error) << what;
        return;
      }
    ASSERT_TRUE(packed.value) << what << " threw " << packed.error;
    ASSERT_EQ(packed.value->laneWidth(), lanes.size()) << what;
    for (std::size_t l = 0; l < lanes.size(); ++l)
      EXPECT_TRUE(bitwise(packed.value->lane(l), *lanes[l].value))
          << what << " lane " << l << ": " << packed.value->lane(l).str()
          << " vs " << lanes[l].value->str();
  };

  for (const auto& [name, op] : binary)
    for (const Column& ca : columns)
      for (const Column& cb : columns) {
        const Value a = p(ca), b = p(cb);
        const std::string what = std::string(name) + "(" + a.str() + ", " +
                                 b.str() + ")";
        std::vector<Outcome> lanes;
        for (std::size_t l = 0; l < kLanes; ++l)
          lanes.push_back(run([&] { return op(ca[l], cb[l]); }));
        expectLaneWise(run([&] { return op(a, b); }), lanes, what);
        // Scalar operands broadcast across the other operand's lanes.
        for (const Value& s : cb) {
          std::vector<Outcome> right, left;
          for (std::size_t l = 0; l < kLanes; ++l) {
            right.push_back(run([&] { return op(ca[l], s); }));
            left.push_back(run([&] { return op(s, ca[l]); }));
          }
          expectLaneWise(run([&] { return op(a, s); }), right,
                         what + " with scalar right " + s.str());
          expectLaneWise(run([&] { return op(s, a); }), left,
                         what + " with scalar left " + s.str());
        }
      }
  for (const auto& [name, op] : unary)
    for (const Column& ca : columns) {
      const Value a = p(ca);
      std::vector<Outcome> lanes;
      for (const Value& x : ca) lanes.push_back(run([&] { return op(x); }));
      expectLaneWise(run([&] { return op(a); }), lanes,
                     std::string(name) + "(" + a.str() + ")");
    }
  EXPECT_GT(checked, 5000);

  // Two packs of different widths never pair up, whatever their kinds.
  const Value narrow = p({Value(1.0), Value(2.0)});
  for (const auto& [name, op] : binary)
    for (const Column& ca : columns) {
      const Outcome o = run([&] { return op(p(ca), narrow); });
      EXPECT_EQ(o.error, "lane width mismatch: 4 vs 2") << name;
    }
}

TEST(ValueLanes, LaneErrorsAreNotFoldedAway) {
  // Division by zero in ONE lane poisons the op — a batched run must not
  // return a bogus number for that tenant.
  const Value num = p({Value(1.0), Value(2.0)});
  const Value den = p({Value(1.0), Value(0.0)});
  EXPECT_THROW(ops::div(num, den), ValueError);
}

TEST(ValueLanes, BooleanContextRequiresUniformLanes) {
  EXPECT_TRUE(p({Value(true), Value(true)}).asBoolean());
  EXPECT_FALSE(p({Value(false), Value(false)}).asBoolean());
  // Divergent control across tenants: the batch-fallback trigger.
  EXPECT_THROW(p({Value(true), Value(false)}).asBoolean(), ValueError);
}

TEST(ValueLanes, PacksNeverImpersonateScalars) {
  const Value v = p({Value(std::int64_t{1}), Value(std::int64_t{1})});
  EXPECT_THROW(v.asInteger(), ValueError);
  EXPECT_THROW(v.asReal(), ValueError);
  EXPECT_THROW(v.toReal(), ValueError);
}

TEST(ValueLanes, PackEqualityIsLaneWise) {
  const Value a = p({Value(1.0), Value(2.0)});
  const Value b = p({Value(1.0), Value(2.0)});
  const Value c = p({Value(1.0), Value(3.0)});
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_NE(a, Value(1.0));  // a pack is never equal to a scalar
  EXPECT_NE(a, p({Value(1.0), Value(2.0), Value(3.0)}));  // nor another width
}

TEST(ValueLanes, PackUnpackRoundtrip) {
  run::StreamMap t0, t1;
  t0["A"] = {Value(1.0), Value(2.0)};
  t1["A"] = {Value(3.0), Value(4.0)};
  const run::StreamMap packed = serve::packLanes({&t0, &t1});
  ASSERT_EQ(packed.at("A").size(), 2u);
  EXPECT_EQ(packed.at("A")[0], p({Value(1.0), Value(3.0)}));

  const auto unpacked = serve::unpackLanes(packed, 2);
  ASSERT_EQ(unpacked.size(), 2u);
  EXPECT_EQ(unpacked[0].at("A"), t0.at("A"));
  EXPECT_EQ(unpacked[1].at("A"), t1.at("A"));

  // Width 1 is a plain copy — no packs materialize.
  const run::StreamMap solo = serve::packLanes({&t0});
  EXPECT_EQ(solo.at("A"), t0.at("A"));

  // Mismatched shapes are an error, not a ragged pack.
  run::StreamMap shortT;
  shortT["A"] = {Value(9.0)};
  EXPECT_THROW(serve::packLanes({&t0, &shortT}), ValueError);
  run::StreamMap otherName;
  otherName["B"] = {Value(1.0), Value(2.0)};
  EXPECT_THROW(serve::packLanes({&t0, &otherName}), ValueError);
}

// The end-to-end soundness claim: a packed engine run over B tenants is
// bit-identical, lane by lane, to B solo runs — on a real program (the
// paper's Example 1, whose conditional control is index-driven and hence
// lane-uniform).
TEST(ValueLanes, PackedEngineRunMatchesSoloRuns) {
  const auto prog = core::compileSource(testing::example1Source(8));
  constexpr std::size_t kLanes = 3;

  std::vector<run::StreamMap> tenants;
  for (std::size_t l = 0; l < kLanes; ++l) {
    val::ArrayMap arrays;
    for (const auto& [name, range] : prog.inputs)
      arrays[name] = testing::randomArray(
          range, static_cast<unsigned>(17 * l + 5));
    tenants.push_back(testing::inputsFor(prog, arrays));
  }

  machine::RunOptions opts;
  opts.expectedOutputs[prog.outputName] = prog.expectedOutputPerWave();

  std::vector<run::StreamMap> soloOut;
  for (const auto& in : tenants) {
    const auto res = machine::simulate(prog.graph,
                                       machine::MachineConfig::unit(), in, opts);
    ASSERT_TRUE(res.completed) << res.note;
    soloOut.push_back(res.outputs);
  }

  std::vector<const run::StreamMap*> ptrs;
  for (const auto& t : tenants) ptrs.push_back(&t);
  const run::StreamMap packed = serve::packLanes(ptrs);
  const auto batched = machine::simulate(
      prog.graph, machine::MachineConfig::unit(), packed, opts);
  ASSERT_TRUE(batched.completed) << batched.note;

  const auto perLane = serve::unpackLanes(batched.outputs, kLanes);
  ASSERT_EQ(perLane.size(), kLanes);
  for (std::size_t l = 0; l < kLanes; ++l)
    EXPECT_EQ(perLane[l].at(prog.outputName),
              soloOut[l].at(prog.outputName))
        << "lane " << l << " differs from its solo run";
}

}  // namespace
}  // namespace valpipe
