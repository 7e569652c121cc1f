#ifndef DFI_CORE_ROUTING_H_
#define DFI_CORE_ROUTING_H_

#include <cstdint>
#include <functional>
#include <type_traits>
#include <utility>

#include "common/hash.h"
#include "core/schema.h"

namespace dfi {

/// Application-supplied routing function for shuffle flows (paper section
/// 4.2.1, option (2)): maps a tuple to a target index in [0, num_targets).
/// Used e.g. to realize range partitioning or radix-hash partitioning.
using RoutingFn = std::function<uint32_t(TupleView, uint32_t num_targets)>;

/// Reads a packed key of `size` bytes as an unsigned 64-bit value
/// (zero-extended); wide (kChar) keys are hashed. Takes the key's bytes
/// and size rather than a tuple so partitioners resolve the field's offset
/// and size once, at construction.
inline uint64_t ReadKeyBytes(const uint8_t* p, size_t size) {
  switch (size) {
    case 1:
      return *p;
    case 2: {
      uint16_t v;
      std::memcpy(&v, p, 2);
      return v;
    }
    case 4: {
      uint32_t v;
      std::memcpy(&v, p, 4);
      return v;
    }
    case 8: {
      uint64_t v;
      std::memcpy(&v, p, 8);
      return v;
    }
    default:
      // Wide (kChar) keys: hash the bytes.
      return HashBytes(p, size);
  }
}

/// Routing strategy of a shuffle flow. The two builtin partitioners
/// (key-hash and radix) are carried *declaratively* so sources route them
/// without a std::function dispatch per tuple; arbitrary RoutingFns are
/// wrapped as kGeneric and dispatched per tuple.
class RoutingSpec {
 public:
  enum class Kind : uint8_t {
    kUnset,    ///< flow default: key-hash on ShuffleFlowSpec::shuffle_key_index
    kKeyHash,  ///< HashU64(key) % num_targets (paper section 3.2, option (1))
    kRadix,    ///< radix bits of HashU64(key) (paper section 4.3.1)
    kGeneric,  ///< opaque user RoutingFn
  };

  RoutingSpec() = default;
  /// Implicit wrap of a custom function (or any callable convertible to
  /// one), so `spec.routing = lambda` keeps working at every existing call
  /// site.
  template <typename F,
            typename = std::enable_if_t<
                std::is_convertible_v<F, RoutingFn> &&
                !std::is_same_v<std::decay_t<F>, RoutingSpec>>>
  RoutingSpec(F&& fn)  // NOLINT(google-explicit-constructor)
      : fn_(std::forward<F>(fn)) {
    kind_ = fn_ ? Kind::kGeneric : Kind::kUnset;
  }

  static RoutingSpec KeyHash(size_t key_field_index) {
    RoutingSpec spec;
    spec.kind_ = Kind::kKeyHash;
    spec.key_field_index_ = key_field_index;
    return spec;
  }

  static RoutingSpec Radix(size_t key_field_index, uint32_t shift,
                           uint32_t bits) {
    RoutingSpec spec;
    spec.kind_ = Kind::kRadix;
    spec.key_field_index_ = key_field_index;
    spec.shift_ = shift;
    spec.bits_ = bits;
    return spec;
  }

  Kind kind() const { return kind_; }
  bool set() const { return kind_ != Kind::kUnset; }
  size_t key_field_index() const { return key_field_index_; }
  uint32_t shift() const { return shift_; }
  uint32_t bits() const { return bits_; }
  /// The wrapped function; only valid for kGeneric.
  const RoutingFn& generic_fn() const { return fn_; }

 private:
  Kind kind_ = Kind::kUnset;
  size_t key_field_index_ = 0;
  uint32_t shift_ = 0;
  uint32_t bits_ = 0;
  RoutingFn fn_;
};

/// DFI's default routing: hash of the shuffle key modulo target count
/// (paper section 3.2, option (1)).
inline RoutingSpec KeyHashRouting(size_t key_field_index) {
  return RoutingSpec::KeyHash(key_field_index);
}

/// Radix-hash partition routing over `bits` bits starting at `shift`
/// (paper section 4.3.1 — the distributed radix join's routing function).
/// The partition must already lie in [0, num_targets); out-of-range
/// partitions are a routing-function bug surfaced by the push path's range
/// check (kOutOfRange) rather than silently wrapped.
inline RoutingSpec RadixRouting(size_t key_field_index, uint32_t shift,
                                uint32_t bits) {
  return RoutingSpec::Radix(key_field_index, shift, bits);
}

}  // namespace dfi

#endif  // DFI_CORE_ROUTING_H_
