// Runtime scalar value for the Val evaluator and the dataflow simulators.
//
// The static dataflow machine of the paper moves scalar result packets; a
// packet payload is one of the Val scalar types: boolean, integer, real.
// `Value` is that payload.  Arithmetic follows Val semantics: integer ops stay
// integral, mixed integer/real promotes to real, relational operators yield
// booleans.  Division by zero and type confusion raise ValueError — the
// simulators must never fold such an error into a bogus number.
//
// Lane packs.  A Value may also be a *pack* of B scalar lanes — the payload
// currency of lane-batched serving (src/serve/): B independent tenants' data
// travels through one graph instance, one pack per packet.  A pack is a
// typed column: one allocation holding a header word (width and lane kind)
// and B raw 64-bit lane words, every lane of the same kind.  Packs are
// deliberately second-class:
//   - every scalar op broadcasts lane-wise (scalar operands replicate) in a
//     typed loop over the lane words that calls the same kernel as the
//     scalar op, so a lane's result is bit-identical to the scalar run on
//     that lane alone, and a lane that makes the scalar op throw makes the
//     pack op throw the same text;
//   - boolean contexts (gates, merge selectors) accept a pack only when all
//     lanes agree; a divergent pack throws ValueError, which the serving
//     layer treats as "this batch has data-dependent control — rerun the
//     tenants individually";
//   - packs never nest and never mix lane kinds, and asInteger/asReal/toReal
//     reject them, so control sequences and array indices stay scalar by
//     construction.
#pragma once

#include <bit>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <stdexcept>
#include <string>
#include <variant>
#include <vector>

namespace valpipe {

/// Error in a scalar operation (type mismatch, division by zero, divergent
/// lanes in a boolean context, ...).
class ValueError : public std::runtime_error {
 public:
  explicit ValueError(const std::string& what) : std::runtime_error(what) {}
};

/// Discriminator for Value, in the order of Value's representation.
enum class ValueKind { Boolean, Integer, Real, Pack };

/// Returns a printable name ("boolean", "integer", "real", "pack").
const char* toString(ValueKind kind);

/// The 64-bit lane word a pack stores for a scalar: a boolean as 0 or 1, an
/// integer as its two's complement, a real as its IEEE-754 bits.
inline std::uint64_t laneWord(bool b) { return b ? 1 : 0; }
inline std::uint64_t laneWord(std::int64_t i) {
  return static_cast<std::uint64_t>(i);
}
inline std::uint64_t laneWord(double r) {
  return std::bit_cast<std::uint64_t>(r);
}

/// A Val scalar: boolean, integer or real — or a pack of scalar lanes.
/// Default-constructs to integer 0.
class Value {
 public:
  Value() : rep_(std::int64_t{0}) {}
  /* implicit */ Value(bool b) : rep_(b) {}                 // NOLINT
  /* implicit */ Value(std::int64_t i) : rep_(i) {}         // NOLINT
  /* implicit */ Value(int i) : rep_(std::int64_t{i}) {}    // NOLINT
  /* implicit */ Value(double r) : rep_(r) {}               // NOLINT

  /// Packs `lanes` (scalars of one kind) into one value.  Throws ValueError
  /// on an empty vector, a nested pack or mixed lane kinds.
  static Value pack(const std::vector<Value>& lanes);

  /// A `width`-lane pack of `laneKind` lanes, in one allocation, whose lane
  /// words `fill(words)` writes.  The words are not revalidated: the caller
  /// writes laneWord()s of `laneKind` scalars.  If `fill` throws, nothing
  /// is built.
  template <class Fill>
  static Value packWords(ValueKind laneKind, std::size_t width, Fill&& fill);

  /// The scalar of kind `kind` whose lane word is `w` (see laneWord).
  static Value fromWord(ValueKind kind, std::uint64_t w) {
    switch (kind) {
      case ValueKind::Boolean: return Value(w != 0);
      case ValueKind::Integer: return Value(static_cast<std::int64_t>(w));
      default: return Value(std::bit_cast<double>(w));
    }
  }

  /// The variant's alternatives are declared in ValueKind order.
  ValueKind kind() const { return static_cast<ValueKind>(rep_.index()); }

  bool isBoolean() const { return std::holds_alternative<bool>(rep_); }
  bool isInteger() const { return std::holds_alternative<std::int64_t>(rep_); }
  bool isReal() const { return std::holds_alternative<double>(rep_); }
  bool isNumeric() const { return isInteger() || isReal(); }
  bool isPack() const { return std::holds_alternative<Lanes>(rep_); }

  /// Lane count: packs report their width, scalars are width 1.
  std::size_t laneWidth() const { return isPack() ? header() >> 8 : 1; }
  /// Kind of every lane: a pack's lane kind, a scalar's own kind.
  ValueKind laneKind() const {
    return isPack() ? static_cast<ValueKind>(header() & 0xff) : kind();
  }
  /// A pack's laneWidth() lane words.  Packs only.
  const std::uint64_t* laneWords() const {
    return std::get<Lanes>(rep_).get() + 1;
  }
  /// The lane word of a scalar.  Scalars only.
  std::uint64_t word() const {
    if (const bool* b = std::get_if<bool>(&rep_)) return laneWord(*b);
    if (const std::int64_t* i = std::get_if<std::int64_t>(&rep_))
      return laneWord(*i);
    return laneWord(std::get<double>(rep_));
  }
  /// Lane `i` of a pack; a scalar is its own sole lane for any `i`
  /// (broadcast view).
  Value lane(std::size_t i) const {
    return isPack() ? fromWord(laneKind(), laneWords()[i]) : *this;
  }

  /// Accessors throw ValueError when the kind does not match.  asBoolean
  /// additionally accepts a lane-uniform boolean pack (and throws on a
  /// divergent one — the lane-batching fallback trigger).
  bool asBoolean() const;
  std::int64_t asInteger() const;
  double asReal() const;
  /// Numeric value as double (integer is widened); throws on boolean/pack.
  double toReal() const;

  /// Exact structural equality (kind and payload; packs lane-wise).
  /// `1 == 1.0` is false here; use the EQ operation for Val's numeric
  /// comparison.
  friend bool operator==(const Value& a, const Value& b);
  friend bool operator!=(const Value& a, const Value& b) { return !(a == b); }

  std::string str() const;

 private:
  /// Packs share their immutable block — the header word (width << 8 |
  /// lane kind), then the lane words — so copying a pack Value is one
  /// refcount bump, the same cost class as copying a scalar.
  using Lanes = std::shared_ptr<const std::uint64_t[]>;
  explicit Value(Lanes lanes) : rep_(std::move(lanes)) {}
  std::uint64_t header() const { return std::get<Lanes>(rep_)[0]; }

  std::variant<bool, std::int64_t, double, Lanes> rep_;
};

static_assert(sizeof(Value) == 24, "a pack must not widen the scalar payload");

template <class Fill>
Value Value::packWords(ValueKind laneKind, std::size_t width, Fill&& fill) {
  auto block = std::make_shared_for_overwrite<std::uint64_t[]>(width + 1);
  block[0] = static_cast<std::uint64_t>(width) << 8 |
             static_cast<std::uint64_t>(laneKind);
  fill(block.get() + 1);
  return Value(Lanes(std::move(block)));
}

std::ostream& operator<<(std::ostream& os, const Value& v);

/// Scalar operations shared by the reference evaluator and both simulators so
/// every engine computes bit-identical results.  Every op broadcasts over
/// lane packs (scalar operands replicate across lanes; two packs must have
/// equal width).
namespace ops {

Value add(const Value& a, const Value& b);
Value sub(const Value& a, const Value& b);
Value mul(const Value& a, const Value& b);
Value div(const Value& a, const Value& b);
Value neg(const Value& a);
Value abs(const Value& a);
Value min(const Value& a, const Value& b);
Value max(const Value& a, const Value& b);
/// Euclidean modulo on integers (result in [0, n) for n > 0).
Value mod(const Value& a, const Value& n);

Value lt(const Value& a, const Value& b);
Value le(const Value& a, const Value& b);
Value gt(const Value& a, const Value& b);
Value ge(const Value& a, const Value& b);
Value eq(const Value& a, const Value& b);
Value ne(const Value& a, const Value& b);

Value logicalAnd(const Value& a, const Value& b);
Value logicalOr(const Value& a, const Value& b);
Value logicalNot(const Value& a);

}  // namespace ops
}  // namespace valpipe
