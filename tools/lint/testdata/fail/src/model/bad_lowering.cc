// Fixture: a model re-deriving partitions by hand instead of calling the
// shared lowering (this comment names ApplyCoalesce and must not fire).
#include "physical/physical_plan.h"

namespace sparkopt {

std::vector<double> Partitions(double bytes, int n, double skew) {
  return ApplyCoalesce(SkewedPartitionSizes(bytes, n, skew), 64, 0.2, 1);
}

}  // namespace sparkopt
