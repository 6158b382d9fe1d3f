// Fixture: an emitter that survives only in a comment does not count, so
// "orphan_bench" in tools/bench_schema.json stays an orphan.
#include "bench_util.h"

int main() {
  sparkopt::obs::Json payload;
  // sparkopt::benchutil::EmitJson("orphan_bench", payload);
  return 0;
}
