#include "serve/lanes.hpp"

#include <string>

#include "support/value.hpp"

namespace valpipe::serve {

run::StreamMap packLanes(const std::vector<const run::StreamMap*>& laneInputs) {
  if (laneInputs.empty()) throw ValueError("packLanes: no lanes");
  const run::StreamMap& first = *laneInputs.front();
  if (laneInputs.size() == 1) return first;
  // Every lane must carry exactly the first lane's streams.
  for (const run::StreamMap* in : laneInputs)
    if (in->size() != first.size())
      throw ValueError("packLanes: stream sets differ across lanes");

  const std::size_t width = laneInputs.size();
  run::StreamMap packed;
  std::vector<const Value*> column(width);  // each lane's stream, by element
  for (const auto& [name, stream] : first) {
    for (std::size_t l = 0; l < width; ++l) {
      auto it = laneInputs[l]->find(name);
      if (it == laneInputs[l]->end())
        throw ValueError("packLanes: lane missing stream '" + name + "'");
      if (it->second.size() != stream.size())
        throw ValueError("packLanes: stream '" + name +
                         "' length differs across lanes");
      column[l] = it->second.data();
    }
    std::vector<Value>& out = packed[name];
    out.reserve(stream.size());
    for (std::size_t k = 0; k < stream.size(); ++k) {
      const ValueKind kind = stream[k].kind();
      if (kind == ValueKind::Pack) throw ValueError("nested lane pack");
      out.push_back(Value::packWords(kind, width, [&](std::uint64_t* w) {
        for (std::size_t l = 0; l < width; ++l) {
          const Value& v = column[l][k];
          if (v.kind() != kind)
            throw ValueError("packLanes: stream '" + name + "' element " +
                             std::to_string(k) + " mixes " + toString(kind) +
                             " and " + toString(v.kind()) + " lanes");
          w[l] = v.word();
        }
      }));
    }
  }
  return packed;
}

std::vector<run::StreamMap> unpackLanes(const run::StreamMap& packed,
                                        std::size_t width) {
  std::vector<run::StreamMap> out(width);
  std::vector<std::vector<Value>*> column(width);  // each lane's stream
  for (const auto& [name, stream] : packed) {
    for (std::size_t l = 0; l < width; ++l) {
      column[l] = &out[l][name];
      column[l]->reserve(stream.size());
    }
    for (const Value& v : stream) {
      if (!v.isPack()) {  // a control-only value, uniform across tenants
        for (std::vector<Value>* c : column) c->push_back(v);
        continue;
      }
      if (v.laneWidth() != width)
        throw ValueError("unpackLanes: pack width " +
                         std::to_string(v.laneWidth()) + " != batch width " +
                         std::to_string(width));
      // Each lane's scalar is built in place, decoded by the lane kind.
      const std::uint64_t* w = v.laneWords();
      const auto spread = [&](auto decode) {
        for (std::size_t l = 0; l < width; ++l)
          column[l]->emplace_back(decode(w[l]));
      };
      switch (v.laneKind()) {
        case ValueKind::Boolean:
          spread([](std::uint64_t x) { return x != 0; });
          break;
        case ValueKind::Integer:
          spread([](std::uint64_t x) { return static_cast<std::int64_t>(x); });
          break;
        default:
          spread([](std::uint64_t x) { return std::bit_cast<double>(x); });
      }
    }
  }
  return out;
}

}  // namespace valpipe::serve
