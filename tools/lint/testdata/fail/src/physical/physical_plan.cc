// Fixture: even in their home file, a call to an oracle helper fires;
// only its definition does not.
#include "physical/physical_plan.h"

namespace sparkopt {

std::vector<double> ApplySkewSplit(std::vector<double> partition_bytes,
                                   double threshold_mb, double factor,
                                   double advisory_mb) {
  (void)threshold_mb, (void)factor, (void)advisory_mb;
  return partition_bytes;
}

std::vector<double> Lowered(double bytes, int n) {
  return ApplySkewSplit(SkewedPartitionSizes(bytes, n, 0.0), 256, 5, 64);
}

}  // namespace sparkopt
