#pragma once

#include <cstddef>
#include <cstring>
#include <string>
#include <string_view>
#include <type_traits>
#include <typeinfo>
#include <vector>

#include "mp/message.hpp"
#include "support/error.hpp"

namespace pdc::mp {

/// Serialization trait used by every send/receive and collective.
///
/// Supported out of the box:
///   - any trivially copyable type (ints, doubles, PODs, std::array of same)
///   - std::string
///   - std::vector<T> for trivially copyable T
///   - std::vector<std::string>
///
/// Users extend the runtime to their own message types by specializing
/// `Codec<T>` with `encode` and `decode`. Decoders must treat the input as
/// hostile: every length read from the payload is validated against the
/// bytes actually present before it drives an allocation or a copy.
template <typename T, typename Enable = void>
struct Codec;

template <typename T>
struct Codec<T, std::enable_if_t<std::is_trivially_copyable_v<T>>> {
  static Bytes encode(const T& value) {
    Bytes out(sizeof(T));
    std::memcpy(out.data(), &value, sizeof(T));
    return out;
  }
  static T decode(const Bytes& in) {
    if (in.size() != sizeof(T)) {
      throw InvalidArgument("Codec: payload size " + std::to_string(in.size()) +
                            " does not match sizeof(T)=" +
                            std::to_string(sizeof(T)));
    }
    T value;
    std::memcpy(&value, in.data(), sizeof(T));
    return value;
  }
};

template <>
struct Codec<std::string> {
  static Bytes encode(const std::string& value) {
    Bytes out(value.size());
    if (!value.empty()) {
      std::memcpy(out.data(), value.data(), value.size());
    }
    return out;
  }
  static std::string decode(const Bytes& in) {
    return std::string(reinterpret_cast<const char*>(in.data()), in.size());
  }
};

template <typename T>
struct Codec<std::vector<T>, std::enable_if_t<std::is_trivially_copyable_v<T>>> {
  static Bytes encode(const std::vector<T>& value) {
    Bytes out(value.size() * sizeof(T));
    if (!value.empty()) {
      std::memcpy(out.data(), value.data(), out.size());
    }
    return out;
  }
  static std::vector<T> decode(const Bytes& in) {
    if (in.size() % sizeof(T) != 0) {
      throw InvalidArgument("Codec: payload size is not a multiple of element size");
    }
    std::vector<T> value(in.size() / sizeof(T));
    if (!value.empty()) {
      std::memcpy(value.data(), in.data(), in.size());
    }
    return value;
  }
};

template <>
struct Codec<std::vector<std::string>> {
  static Bytes encode(const std::vector<std::string>& value) {
    Bytes out;
    auto push_u64 = [&out](std::uint64_t v) {
      for (int i = 0; i < 8; ++i) {
        out.push_back(static_cast<std::byte>((v >> (8 * i)) & 0xff));
      }
    };
    push_u64(value.size());
    for (const auto& s : value) {
      push_u64(s.size());
      for (char c : s) out.push_back(static_cast<std::byte>(c));
    }
    return out;
  }
  static std::vector<std::string> decode(const Bytes& in) {
    std::size_t pos = 0;
    auto read_u64 = [&]() -> std::uint64_t {
      if (in.size() - pos < 8) {
        throw InvalidArgument("Codec: truncated string-vector payload");
      }
      std::uint64_t v = 0;
      for (int i = 0; i < 8; ++i) {
        v |= static_cast<std::uint64_t>(in[pos + static_cast<std::size_t>(i)]) << (8 * i);
      }
      pos += 8;
      return v;
    };
    const std::uint64_t count = read_u64();
    // Every element costs at least its 8-byte length prefix, so a count
    // larger than the remaining bytes allow is a corrupt/hostile prefix.
    // Reject it here — before reserve() turns it into a length_error or a
    // multi-gigabyte allocation.
    if (count > (in.size() - pos) / 8) {
      throw InvalidArgument(
          "Codec: string-vector count " + std::to_string(count) +
          " exceeds what the remaining " + std::to_string(in.size() - pos) +
          " payload bytes could hold");
    }
    std::vector<std::string> value;
    value.reserve(static_cast<std::size_t>(count));
    for (std::uint64_t i = 0; i < count; ++i) {
      const std::uint64_t len = read_u64();
      // `pos + len` could wrap for a hostile length; compare against the
      // remaining bytes instead.
      if (len > in.size() - pos) {
        throw InvalidArgument("Codec: truncated string payload");
      }
      value.emplace_back(reinterpret_cast<const char*>(in.data() + pos),
                         static_cast<std::size_t>(len));
      pos += static_cast<std::size_t>(len);
    }
    return value;
  }
};

/// Process-local hash identifying T for datatype-matching checks. Backed by
/// `typeid(T).hash_code()`, which is only stable within a single process —
/// fine for this in-process runtime, but never a wire format.
template <typename T>
std::size_t type_hash() {
  return typeid(T).hash_code();
}

/// Human-readable name of T for datatype-mismatch diagnostics. Extracted
/// from the compiler's pretty function signature (so it reads
/// "std::vector<double>" rather than the mangled "St6vectorIdSaIdEE");
/// falls back to typeid(T).name() elsewhere. The pointer has static storage
/// duration and stays valid for the life of the process.
template <typename T>
const char* type_name() noexcept {
#if defined(__clang__) || defined(__GNUC__)
  // __PRETTY_FUNCTION__ must be read in this function's own scope — inside
  // a lambda it would describe the lambda, not T.
  static const std::string name = [](std::string_view pretty) {
    const auto start = pretty.find("T = ");
    if (start == std::string_view::npos) return std::string(pretty);
    pretty.remove_prefix(start + 4);
    const auto end = pretty.find_first_of(";]");
    if (end != std::string_view::npos) pretty = pretty.substr(0, end);
    return std::string(pretty);
  }(__PRETTY_FUNCTION__);
  return name.c_str();
#else
  return typeid(T).name();
#endif
}

}  // namespace pdc::mp
