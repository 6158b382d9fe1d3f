// Fixture: the lowering itself owns the partitioning helpers.
#include "physical/physical_plan.h"

namespace sparkopt {

std::vector<double> Partitions(double bytes, int n, double skew) {
  return ApplyCoalesce(SkewedPartitionSizes(bytes, n, skew), 64, 0.2, 1);
}

}  // namespace sparkopt
