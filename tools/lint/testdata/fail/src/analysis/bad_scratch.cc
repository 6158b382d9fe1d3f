// Fixture: a verifier staging into the kernel's ParetoScratch by hand
// (this comment mentions it and must not fire).
#include "common/pareto_flat.h"

namespace sparkopt {

bool AllKept(const double* x, const double* y, size_t n) {
  ParetoScratch scratch;  // flagged: scratch outside common/pareto*
  FlatParetoPositions(x, y, n, &scratch.kept, &scratch);
  return scratch.kept.size() == n;
}

}  // namespace sparkopt
