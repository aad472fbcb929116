// lqcd_lint fixture: deliberately missing #pragma once, with raw
// allocations and an <omp.h> behind a build-system macro instead of the
// compiler's _OPENMP. Marker comments are read by run_analyze_fixtures.py.
inline int* leak() {  // EXPECT-LINT: pragma-once
  int* p = (int*)malloc(16);  // EXPECT-LINT: naked-alloc
  free(p);  // EXPECT-LINT: naked-alloc
  return p;
}

#if defined(LQCD_HAVE_OPENMP)
#include <omp.h>  // EXPECT-LINT: omp-include-guard
#endif
