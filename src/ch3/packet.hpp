// CH3 matching types.
//
// The CH3 device matches messages on (source, tag, context id). On the
// NewMadeleine bypass path the (context, tag) pair is packed into one 64-bit
// NewMadeleine tag so nmad's internal tag matching does the work (§3.1.1);
// on the Nemesis shared-memory path (and the legacy netmod cells) the
// envelope travels in nemesis::ShmHdr.
#pragma once

#include <cstdint>

#include "mpi/transport.hpp"
#include "nmad/types.hpp"

namespace nmx::ch3 {

/// Pack (context id, user tag) into a NewMadeleine tag. Context in the high
/// 32 bits so a masked probe can select "any user tag in this context".
constexpr nmad::Tag pack_tag(int context, int tag) {
  return (static_cast<nmad::Tag>(static_cast<std::uint32_t>(context)) << 32) |
         static_cast<std::uint32_t>(tag);
}
constexpr int unpack_user_tag(nmad::Tag t) {
  return static_cast<int>(static_cast<std::uint32_t>(t & 0xffffffffull));
}
constexpr int unpack_context(nmad::Tag t) {
  return static_cast<int>(static_cast<std::uint32_t>(t >> 32));
}

/// Selector for an exact (context, tag) probe.
constexpr nmad::TagSelector exact_selector(int context, int tag) {
  return nmad::TagSelector{pack_tag(context, tag), ~nmad::Tag{0}};
}
/// Selector for "any user tag within this context" (MPI_ANY_TAG).
constexpr nmad::TagSelector context_selector(int context) {
  return nmad::TagSelector{pack_tag(context, 0), 0xffffffff00000000ull};
}
constexpr nmad::TagSelector selector_for(int context, int tag) {
  return tag == mpi::ANY_TAG ? context_selector(context) : exact_selector(context, tag);
}

}  // namespace nmx::ch3
