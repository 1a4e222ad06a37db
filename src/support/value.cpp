#include "support/value.hpp"

#include <algorithm>
#include <cmath>
#include <ostream>
#include <sstream>
#include <type_traits>

#include "support/check.hpp"

namespace valpipe {

const char* toString(ValueKind kind) {
  switch (kind) {
    case ValueKind::Boolean: return "boolean";
    case ValueKind::Integer: return "integer";
    case ValueKind::Real: return "real";
    case ValueKind::Pack: return "pack";
  }
  return "?";
}

namespace {
[[noreturn]] void kindError(const char* want, const Value& got) {
  throw ValueError(std::string("expected ") + want + ", got " + got.str());
}
}  // namespace

Value Value::pack(const std::vector<Value>& lanes) {
  if (lanes.empty()) throw ValueError("empty lane pack");
  const ValueKind kind = lanes.front().kind();
  for (const Value& v : lanes) {
    if (v.isPack()) throw ValueError("nested lane pack");
    if (v.kind() != kind)
      throw ValueError(std::string("mixed lane kinds in pack: ") +
                       toString(kind) + " and " + toString(v.kind()));
  }
  return packWords(kind, lanes.size(), [&](std::uint64_t* w) {
    for (const Value& v : lanes) *w++ = v.word();
  });
}

bool Value::asBoolean() const {
  if (isPack()) {
    // A pack in boolean position (gate port, merge selector) is only
    // meaningful when control is lane-uniform; divergence is the batched
    // run's signal to fall back to per-tenant execution.
    if (laneKind() != ValueKind::Boolean) kindError("boolean", lane(0));
    const std::uint64_t* w = laneWords();
    for (std::size_t i = 1; i < laneWidth(); ++i)
      if (w[i] != w[0])
        throw ValueError("divergent lanes in boolean context: " + str());
    return w[0] != 0;
  }
  if (!isBoolean()) kindError("boolean", *this);
  return std::get<bool>(rep_);
}

std::int64_t Value::asInteger() const {
  if (!isInteger()) kindError("integer", *this);
  return std::get<std::int64_t>(rep_);
}

double Value::asReal() const {
  if (!isReal()) kindError("real", *this);
  return std::get<double>(rep_);
}

double Value::toReal() const {
  if (isReal()) return std::get<double>(rep_);
  if (isInteger()) return static_cast<double>(std::get<std::int64_t>(rep_));
  kindError("numeric", *this);
}

bool operator==(const Value& a, const Value& b) {
  if (a.isPack() || b.isPack()) {
    if (!a.isPack() || !b.isPack()) return false;
    if (std::get<Value::Lanes>(a.rep_) == std::get<Value::Lanes>(b.rep_))
      return true;  // shared block
    if (a.header() != b.header()) return false;  // width or lane kind
    const std::uint64_t* x = a.laneWords();
    const std::uint64_t* y = b.laneWords();
    const std::size_t w = a.laneWidth();
    if (a.laneKind() != ValueKind::Real) return std::equal(x, x + w, y);
    // Real lanes compare as doubles, as scalar reals do (NaN != NaN).
    for (std::size_t i = 0; i < w; ++i)
      if (std::bit_cast<double>(x[i]) != std::bit_cast<double>(y[i]))
        return false;
    return true;
  }
  return a.rep_ == b.rep_;
}

std::string Value::str() const {
  std::ostringstream os;
  os << *this;
  return os.str();
}

std::ostream& operator<<(std::ostream& os, const Value& v) {
  switch (v.kind()) {
    case ValueKind::Boolean: return os << (v.asBoolean() ? "true" : "false");
    case ValueKind::Integer: return os << v.asInteger();
    case ValueKind::Real: return os << v.asReal();
    case ValueKind::Pack: {
      os << "pack(";
      for (std::size_t i = 0; i < v.laneWidth(); ++i)
        os << (i ? "|" : "") << v.lane(i);
      return os << ")";
    }
  }
  return os;
}

namespace ops {
namespace {

// Kernels: each op's arithmetic, written once on raw scalars (a template
// where the integer and real forms are one expression).  The scalar path
// and the typed lane loops below both call them, so lane l of a pack result
// is the scalar op on lane l, bit for bit, and a zero divisor throws the
// same text from either path.

struct Add {
  template <class T> static T apply(T x, T y) { return x + y; }
};
struct Sub {
  template <class T> static T apply(T x, T y) { return x - y; }
};
struct Mul {
  template <class T> static T apply(T x, T y) { return x * y; }
};
struct Min {
  template <class T> static T apply(T x, T y) { return x < y ? x : y; }
};
struct Max {
  template <class T> static T apply(T x, T y) { return x > y ? x : y; }
};

/// Returns `d`, or throws when it is a real zero divisor (either sign).
double realDivisor(double d) {
  if (d == 0.0) throw ValueError("real division by zero");
  return d;
}
struct Div {
  static std::int64_t apply(std::int64_t x, std::int64_t y) {
    if (y == 0) throw ValueError("integer division by zero");
    return x / y;
  }
  static double apply(double x, double y) { return x / realDivisor(y); }
};
struct Mod {
  static std::int64_t apply(std::int64_t x, std::int64_t m) {
    if (m <= 0) throw ValueError("modulo by non-positive value");
    const std::int64_t r = x % m;
    return r < 0 ? r + m : r;
  }
};

struct Lt {
  template <class T> static bool apply(T x, T y) { return x < y; }
};
struct Le {
  template <class T> static bool apply(T x, T y) { return x <= y; }
};
struct Gt {
  template <class T> static bool apply(T x, T y) { return x > y; }
};
struct Ge {
  template <class T> static bool apply(T x, T y) { return x >= y; }
};
struct Eq {
  template <class T> static bool apply(T x, T y) { return x == y; }
};
struct Ne {
  template <class T> static bool apply(T x, T y) { return x != y; }
};

struct Neg {
  template <class T> static T apply(T x) { return -x; }
};
struct Abs {
  static std::int64_t apply(std::int64_t x) { return x < 0 ? -x : x; }
  static double apply(double x) { return std::fabs(x); }
};
struct Not {
  static bool apply(bool x) { return !x; }
};

// Scalar dispatch.

/// `K` on integers when both operands are integers; otherwise both promote
/// to real.  Booleans are rejected.
template <class K>
Value numeric(const Value& a, const Value& b) {
  if (a.isInteger() && b.isInteger())
    return Value(K::apply(a.asInteger(), b.asInteger()));
  return Value(K::apply(a.toReal(), b.toReal()));
}

/// EQ/NE: two booleans compare as booleans, anything else numerically.
template <class K>
Value equality(const Value& a, const Value& b) {
  if (a.isBoolean() || b.isBoolean())
    return Value(K::apply(a.asBoolean(), b.asBoolean()));
  return numeric<K>(a, b);
}

bool anyPack(const Value& a, const Value& b) { return a.isPack() || b.isPack(); }

// Typed lane loops.  They stay out of line ([[gnu::noinline]]), so the
// scalar path of each op keeps its size and prologue.

using BinOp = Value (*)(const Value&, const Value&);
using UnOp = Value (*)(const Value&);

template <class T>
constexpr ValueKind kindOf = std::is_same_v<T, bool>     ? ValueKind::Boolean
                             : std::is_same_v<T, double> ? ValueKind::Real
                                                         : ValueKind::Integer;

/// One operand of a lane loop: a pack's lane words, or a scalar's word
/// broadcast to every lane.
struct Operand {
  explicit Operand(const Value& v)
      : kind(v.laneKind()),
        words(v.isPack() ? v.laneWords() : nullptr),
        scalar(v.isPack() ? 0 : v.word()) {}

  bool numeric() const {
    return kind == ValueKind::Integer || kind == ValueKind::Real;
  }
  std::uint64_t at(std::size_t l) const { return words ? words[l] : scalar; }
  bool boolean(std::size_t l) const { return at(l) != 0; }
  std::int64_t integer(std::size_t l) const {
    return static_cast<std::int64_t>(at(l));
  }
  /// Lane `l` as a real: an integer lane widens as toReal() widens it.
  double real(std::size_t l) const {
    return kind == ValueKind::Integer ? static_cast<double>(integer(l))
                                      : std::bit_cast<double>(at(l));
  }

  ValueKind kind;
  const std::uint64_t* words;  ///< null for a scalar
  std::uint64_t scalar;
};

/// Lanes of a binary op: two packs must agree on their width.
std::size_t laneCount(const Value& a, const Value& b) {
  const std::size_t wa = a.laneWidth(), wb = b.laneWidth();
  if (a.isPack() && b.isPack() && wa != wb)
    throw ValueError("lane width mismatch: " + std::to_string(wa) + " vs " +
                     std::to_string(wb));
  return std::max(wa, wb);
}

/// A `width`-lane pack whose lane l is `f(l)`, a kernel's result.
template <class F>
Value lanes(std::size_t width, F f) {
  using T = decltype(f(std::size_t{0}));
  return Value::packWords(kindOf<T>, width, [&](std::uint64_t* w) {
    for (std::size_t l = 0; l < width; ++l) w[l] = laneWord(f(l));
  });
}

/// Throws what the scalar op `op` throws on lane `l`, where the lane kinds
/// leave it nothing else to do.  When no typed loop takes a kind pairing,
/// every lane throws, so lane 0 throws what a lane-by-lane evaluation would.
[[noreturn]] void throwAsLane(BinOp op, const Value& a, const Value& b,
                              std::size_t l = 0) {
  op(a.lane(l), b.lane(l));
  VALPIPE_UNREACHABLE("lane kinds an op rejects did not throw");
}
[[noreturn]] void throwAsLane(UnOp op, const Value& a) {
  op(a.lane(0));
  VALPIPE_UNREACHABLE("lane kinds an op rejects did not throw");
}

/// numeric<K> over lanes; `op` is the scalar op, for the kinds it rejects.
template <class K>
[[gnu::noinline]] Value numericLanes(const Value& a, const Value& b,
                                     BinOp op) {
  const std::size_t w = laneCount(a, b);
  const Operand x(a), y(b);
  if (x.kind == ValueKind::Integer && y.kind == ValueKind::Integer)
    return lanes(w, [&](std::size_t l) {
      return K::apply(x.integer(l), y.integer(l));
    });
  if (x.numeric() && y.numeric())
    return lanes(w, [&](std::size_t l) {
      return K::apply(x.real(l), y.real(l));
    });
  throwAsLane(op, a, b);
}

template <class K>
[[gnu::noinline]] Value equalityLanes(const Value& a, const Value& b,
                                      BinOp op) {
  const std::size_t w = laneCount(a, b);
  const Operand x(a), y(b);
  if (x.kind == ValueKind::Boolean && y.kind == ValueKind::Boolean)
    return lanes(w, [&](std::size_t l) {
      return K::apply(x.boolean(l), y.boolean(l));
    });
  if (x.kind == ValueKind::Boolean || y.kind == ValueKind::Boolean)
    throwAsLane(op, a, b);
  return numericLanes<K>(a, b, op);
}

/// AND (`decides` false) and OR (`decides` true) over lanes.  Like the
/// scalar ops they short-circuit: a left lane equal to `decides` is the
/// result, and the right lane is then never read, so its kind cannot throw.
template <bool decides>
[[gnu::noinline]] Value logicalLanes(const Value& a, const Value& b,
                                     BinOp op) {
  const std::size_t w = laneCount(a, b);
  const Operand x(a), y(b);
  if (x.kind != ValueKind::Boolean) throwAsLane(op, a, b);
  return lanes(w, [&](std::size_t l) {
    const bool left = x.boolean(l);
    if (left == decides) return left;
    if (y.kind != ValueKind::Boolean) throwAsLane(op, a, b, l);
    return y.boolean(l);
  });
}

template <class K>
[[gnu::noinline]] Value unaryNumericLanes(const Value& a, UnOp op) {
  const Operand x(a);
  if (x.kind == ValueKind::Integer)
    return lanes(a.laneWidth(),
                 [&](std::size_t l) { return K::apply(x.integer(l)); });
  if (x.kind == ValueKind::Real)
    return lanes(a.laneWidth(),
                 [&](std::size_t l) { return K::apply(x.real(l)); });
  throwAsLane(op, a);
}

[[gnu::noinline]] Value modLanes(const Value& a, const Value& n, BinOp op) {
  const std::size_t w = laneCount(a, n);
  const Operand x(a), m(n);
  if (x.kind != ValueKind::Integer || m.kind != ValueKind::Integer)
    throwAsLane(op, a, n);
  return lanes(w, [&](std::size_t l) {
    return Mod::apply(x.integer(l), m.integer(l));
  });
}

[[gnu::noinline]] Value notLanes(const Value& a, UnOp op) {
  const Operand x(a);
  if (x.kind != ValueKind::Boolean) throwAsLane(op, a);
  return lanes(a.laneWidth(),
               [&](std::size_t l) { return Not::apply(x.boolean(l)); });
}

}  // namespace

Value add(const Value& a, const Value& b) {
  if (anyPack(a, b)) return numericLanes<Add>(a, b, &add);
  return numeric<Add>(a, b);
}

Value sub(const Value& a, const Value& b) {
  if (anyPack(a, b)) return numericLanes<Sub>(a, b, &sub);
  return numeric<Sub>(a, b);
}

Value mul(const Value& a, const Value& b) {
  if (anyPack(a, b)) return numericLanes<Mul>(a, b, &mul);
  return numeric<Mul>(a, b);
}

Value div(const Value& a, const Value& b) {
  if (anyPack(a, b)) return numericLanes<Div>(a, b, &div);
  if (a.isInteger() && b.isInteger())
    return Value(Div::apply(a.asInteger(), b.asInteger()));
  // The divisor's kind and zero are checked before the dividend's kind.
  const double d = realDivisor(b.toReal());
  return Value(Div::apply(a.toReal(), d));
}

Value neg(const Value& a) {
  if (a.isPack()) return unaryNumericLanes<Neg>(a, &neg);
  if (a.isInteger()) return Value(Neg::apply(a.asInteger()));
  return Value(Neg::apply(a.toReal()));
}

Value abs(const Value& a) {
  if (a.isPack()) return unaryNumericLanes<Abs>(a, &abs);
  if (a.isInteger()) return Value(Abs::apply(a.asInteger()));
  return Value(Abs::apply(a.toReal()));
}

Value min(const Value& a, const Value& b) {
  if (anyPack(a, b)) return numericLanes<Min>(a, b, &min);
  return numeric<Min>(a, b);
}

Value max(const Value& a, const Value& b) {
  if (anyPack(a, b)) return numericLanes<Max>(a, b, &max);
  return numeric<Max>(a, b);
}

Value mod(const Value& a, const Value& n) {
  if (anyPack(a, n)) return modLanes(a, n, &mod);
  const std::int64_t x = a.asInteger();
  return Value(Mod::apply(x, n.asInteger()));
}

Value lt(const Value& a, const Value& b) {
  if (anyPack(a, b)) return numericLanes<Lt>(a, b, &lt);
  return numeric<Lt>(a, b);
}

Value le(const Value& a, const Value& b) {
  if (anyPack(a, b)) return numericLanes<Le>(a, b, &le);
  return numeric<Le>(a, b);
}

Value gt(const Value& a, const Value& b) {
  if (anyPack(a, b)) return numericLanes<Gt>(a, b, &gt);
  return numeric<Gt>(a, b);
}

Value ge(const Value& a, const Value& b) {
  if (anyPack(a, b)) return numericLanes<Ge>(a, b, &ge);
  return numeric<Ge>(a, b);
}

Value eq(const Value& a, const Value& b) {
  if (anyPack(a, b)) return equalityLanes<Eq>(a, b, &eq);
  return equality<Eq>(a, b);
}

Value ne(const Value& a, const Value& b) {
  if (anyPack(a, b)) return equalityLanes<Ne>(a, b, &ne);
  return equality<Ne>(a, b);
}

Value logicalAnd(const Value& a, const Value& b) {
  if (anyPack(a, b)) return logicalLanes<false>(a, b, &logicalAnd);
  return Value(a.asBoolean() && b.asBoolean());
}

Value logicalOr(const Value& a, const Value& b) {
  if (anyPack(a, b)) return logicalLanes<true>(a, b, &logicalOr);
  return Value(a.asBoolean() || b.asBoolean());
}

Value logicalNot(const Value& a) {
  if (a.isPack()) return notLanes(a, &logicalNot);
  return Value(Not::apply(a.asBoolean()));
}

}  // namespace ops
}  // namespace valpipe
