#pragma once

#if defined(_OPENMP)
#include <omp.h>
#endif

// Clean lqcd_lint fixture — no findings may anchor here.
inline int doubled(int x) { return 2 * x; }
