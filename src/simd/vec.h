// Portable SIMD vector abstraction, 128-bit by default.
//
// Micro-kernels in smmkit are written against this type instead of NEON
// intrinsics: Vec<float> models one ARMv8 "Vn.4S" register (4 floats),
// Vec<double> models "Vn.2D" (2 doubles). The operations mirror the
// instructions the paper's assembly uses — full-width load/store (ldr/str
// q-form), broadcast (dup), and fused multiply-add by a broadcast scalar
// (the by-lane form fmla vD.4s, vA.4s, vB.s[lane]).
//
// Implementation uses GCC/Clang vector extensions so -O2 lowers each op to
// one SSE/NEON instruction on the host while the code stays ISA-portable.
// The width is a template parameter: the x86-64 packed-panel kernels also
// use 32- and 64-byte vectors inside AVX2 / AVX-512 target-attributed
// functions (src/kernels/microkernel.cpp). Member functions that take or
// return a Vec are for the 16-byte width; a wider Vec passed by value
// outside such a function would change the calling convention.
#pragma once

#include <cstring>

#include "src/common/types.h"

namespace smm::simd {

/// Number of scalars of type T in one vector of kBytes bytes (default: one
/// 128-bit register).
template <typename T, int kBytes = 16>
inline constexpr index_t kLanes = static_cast<index_t>(kBytes / sizeof(T));

/// 128-bit registers the compiler may allocate in the baseline build:
/// v0-v31 on AArch64, xmm0-xmm15 on x86-64 SSE. Native kernels size their
/// register blocks with this count (the AVX2 / AVX-512 clones with their
/// own); the simulator keeps the modelled machine's Eq. 4 budget.
inline constexpr index_t kVecRegisters =
#if defined(__aarch64__)
    32;
#else
    16;
#endif

namespace detail {
// The vector_size attribute is ignored on dependent types, so the raw
// vector type is provided through explicit specializations.
template <typename T, int kBytes>
struct RawVec;
template <>
struct RawVec<float, 16> {
  using type = float __attribute__((vector_size(16)));
};
template <>
struct RawVec<double, 16> {
  using type = double __attribute__((vector_size(16)));
};
template <>
struct RawVec<float, 32> {
  using type = float __attribute__((vector_size(32)));
};
template <>
struct RawVec<double, 32> {
  using type = double __attribute__((vector_size(32)));
};
template <>
struct RawVec<float, 64> {
  using type = float __attribute__((vector_size(64)));
};
template <>
struct RawVec<double, 64> {
  using type = double __attribute__((vector_size(64)));
};
}  // namespace detail

template <typename T, int kBytes = 16>
struct Vec {
  static constexpr index_t lanes = kLanes<T, kBytes>;
  using Raw = typename detail::RawVec<T, kBytes>::type;

  Raw v;

  Vec() : v{} {}
  explicit Vec(Raw raw) : v(raw) {}

  /// Broadcast a scalar into all lanes (NEON `dup`).
  static Vec broadcast(T value) {
    Vec out;
    for (index_t i = 0; i < lanes; ++i) out.v[i] = value;
    return out;
  }

  /// All-zero register (`movi v, #0`).
  static Vec zero() { return Vec{}; }

  /// Full-width load from (possibly unaligned) memory (`ldr q, [x]`).
  static Vec load(const T* p) {
    Vec out;
    std::memcpy(&out.v, p, sizeof(Raw));
    return out;
  }

  /// Full-width store (`str q, [x]`).
  void store(T* p) const { std::memcpy(p, &v, sizeof(Raw)); }

  [[nodiscard]] T lane(index_t i) const { return v[i]; }

  Vec operator+(Vec o) const { return Vec(v + o.v); }
  Vec operator-(Vec o) const { return Vec(v - o.v); }
  Vec operator*(Vec o) const { return Vec(v * o.v); }
};

/// d += a * b element-wise (`fmla vd, va, vb`).
template <typename T>
inline void fma(Vec<T>& d, Vec<T> a, Vec<T> b) {
  d.v += a.v * b.v;
}

/// d += a * s with a scalar s already in a register.
template <typename T>
inline void fma_scalar(Vec<T>& d, Vec<T> a, T s) {
  d.v += a.v * Vec<T>::broadcast(s).v;
}

using Vec4f = Vec<float>;
using Vec2d = Vec<double>;

}  // namespace smm::simd
