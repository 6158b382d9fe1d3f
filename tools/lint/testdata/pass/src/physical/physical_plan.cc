// Fixture: the oracle helpers' home file declares and defines them.
#include "physical/physical_plan.h"

namespace sparkopt {

std::vector<double> SkewedPartitionSizes(double total_bytes, int n,
                                         double z);

std::vector<double> ApplyCoalesce(std::vector<double> partition_bytes,
                                  double advisory_mb, double small_factor,
                                  double min_size_mb) {
  (void)advisory_mb, (void)small_factor, (void)min_size_mb;
  return partition_bytes;
}

}  // namespace sparkopt
