#include "src/simd/vec.h"

namespace smm::simd {

// Header-only module; this TU pins the static_asserts below so a bad
// configuration fails at library build time, not first use.
static_assert(Vec4f::lanes == 4);
static_assert(Vec2d::lanes == 2);
static_assert(sizeof(Vec4f) == 16);
static_assert(sizeof(Vec2d) == 16);
static_assert(kLanes<float, 32> == 8 && kLanes<double, 32> == 4);
static_assert(kLanes<float, 64> == 16 && kLanes<double, 64> == 8);

}  // namespace smm::simd
