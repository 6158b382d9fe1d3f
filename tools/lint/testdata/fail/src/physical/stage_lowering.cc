// Fixture: the lowering partitions through PartitionRuns; calling the
// materializing oracles from src/physical/ fires too.
#include "physical/physical_plan.h"

namespace sparkopt {

std::vector<double> Partitions(double bytes, int n, double skew) {
  return ApplyCoalesce(SkewedPartitionSizes(bytes, n, skew), 64, 0.2, 1);
}

}  // namespace sparkopt
