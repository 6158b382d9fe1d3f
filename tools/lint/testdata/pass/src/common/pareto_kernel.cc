// Fixture: common/pareto* owns ParetoScratch, so using it here is clean.
#include "common/pareto_flat.h"

namespace sparkopt {

size_t KeptCount(const double* x, const double* y, size_t n) {
  ParetoScratch scratch;
  FlatParetoPositions(x, y, n, &scratch.kept, &scratch);
  return scratch.kept.size();
}

}  // namespace sparkopt
