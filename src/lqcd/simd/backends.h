// INTERNAL to src/lqcd/simd/: per-backend kernel-table accessors wired up
// by dispatch.cpp. A backend whose instruction set was not available at
// compile time returns nullptr (dispatch reports it as not compiled).
#pragma once

#include "lqcd/simd/dispatch.h"

namespace lqcd::simd::detail {

const Kernels* scalar_table() noexcept;  // never nullptr
const Kernels* avx2_table() noexcept;

}  // namespace lqcd::simd::detail
