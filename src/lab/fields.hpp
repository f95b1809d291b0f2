#pragma once

#include <cstdint>

#include "net/wire.hpp"

namespace pdc::lab::protocol {

// The clamps of the lab fields a store::ResultRecord also carries, and the
// codecs built from them. The store sits below the lab and cannot include
// protocol.hpp, so both field lists take them from here.

/// Clamp on the auth token and tenant id strings.
inline constexpr std::uint32_t kMaxIdentityBytes = 256;

/// Clamp on a patternlet/exemplar/notebook program name.
inline constexpr std::uint32_t kMaxNameBytes = 256;

/// Clamps on a Result frame's captured output.
inline constexpr std::uint32_t kMaxOutputLines = 4096;
inline constexpr std::uint32_t kMaxLineBytes = 4096;

/// Clamp on a Reject reason / Result error string.
inline constexpr std::uint32_t kMaxReasonBytes = 1024;

using Identity = net::wire::Str<kMaxIdentityBytes>;  ///< token/tenant/cohort
using Name = net::wire::Str<kMaxNameBytes>;          ///< program/mutant/verdict
using Reason = net::wire::Str<kMaxReasonBytes>;      ///< error/reject reason
using OutputLines =
    net::wire::List<net::wire::Str<kMaxLineBytes>, kMaxOutputLines>;

}  // namespace pdc::lab::protocol
