// Lane batching: B tenants' data through one graph instance per firing.
//
// The compiled graph of a Val program is identical for every tenant; only
// the data differs.  Instead of running B copies of the engine — paying the
// per-firing cost (the event loop's ready queue, enabling test and
// acknowledge mechanics, or the compiled scheduler's replay dispatch) B
// times — the server widens each packet payload to a B-lane typed pack
// (support/value.hpp: one allocation of B raw 64-bit words of one kind)
// and runs the engine ONCE: every firing carries all B tenants' operands,
// and the per-firing overhead is amortized B ways.  This is the §6
// pipelining argument turned sideways: the paper streams one user's array
// elements back to back; the server additionally stacks B users *within*
// each element.
//
// Soundness: scalar ops broadcast lane-wise with scalar (control) operands
// replicated, calling the scalar ops' own kernels, so lane l of every pack
// is bit-identical to the value tenant l's solo run computes.  Control must
// be lane-uniform — gates and merge selectors driven by the compile-time
// control sequences (BoolSeq/IndexSeq) are scalar and always uniform; the
// server never batches a program whose schedule declines with
// DataDependentControl, and a divergent pack still throws ValueError from
// Value::asBoolean, which callers treat as "this program cannot be batched
// for these inputs — rerun solo".
#pragma once

#include <cstddef>
#include <vector>

#include "run/io.hpp"

namespace valpipe::serve {

/// Element-wise packs `laneInputs` (one StreamMap per tenant, identical
/// stream names and lengths — same program, same shapes) into one StreamMap
/// of B-lane pack Values.  Width 1 returns a plain copy (no packs).
/// Throws ValueError on mismatched names or lengths, or on an element whose
/// lanes differ in kind (tenants sending integers and reals to one stream).
run::StreamMap packLanes(const std::vector<const run::StreamMap*>& laneInputs);

/// Splits a packed output StreamMap back into per-tenant maps.  A scalar
/// element (a control-only value, uniform across tenants) replicates into
/// every lane; a pack element must have exactly `width` lanes.
std::vector<run::StreamMap> unpackLanes(const run::StreamMap& packed,
                                        std::size_t width);

}  // namespace valpipe::serve
