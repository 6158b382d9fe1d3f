#include "physical/partitioner.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace sparkopt {

namespace {

constexpr double kMb = 1024.0 * 1024.0;

// The streaming pass: each pushed run goes through the skew split, then
// the coalesce rule, then lands in the output, merged into the previous
// run when their bytes match. Every step reproduces, partition by
// partition, the arithmetic of ApplySkewSplit and ApplyCoalesce.
class OnePass {
 public:
  OnePass(const SkewSplitRule* split, double median,
          const CoalesceRule* coalesce, std::vector<PartitionRun>* out)
      : split_(split), coalesce_(coalesce), out_(out) {
    out_->clear();
    if (split_ != nullptr) {
      limit_ = std::max(split_->threshold_mb * kMb, split_->factor * median);
      chunk_ = std::max(split_->advisory_mb * kMb, 1.0 * kMb);
    }
    if (coalesce_ != nullptr) {
      small_ = std::max(coalesce_->min_size_mb * kMb,
                        coalesce_->small_factor * coalesce_->advisory_mb * kMb);
      target_ = coalesce_->advisory_mb * kMb;
    }
  }

  void Push(double bytes, int64_t count) {
    if (split_ != nullptr && bytes > limit_ && bytes > chunk_) {
      const int pieces = static_cast<int>(std::ceil(bytes / chunk_));
      bytes = bytes / pieces;
      count *= pieces;
    }
    if (coalesce_ == nullptr || !(bytes < small_)) {
      Emit(bytes, count);
      return;
    }
    // Close the group earlier partitions left open, one at a time.
    for (; count > 0 && acc_ != 0.0; --count) {
      acc_ += bytes;
      if (acc_ >= target_) {
        Emit(acc_, 1);
        acc_ = 0.0;
      }
    }
    if (count == 0) return;
    // From an empty accumulator every group of this run makes the same
    // additions: find the first group's size k, emit count / k of them
    // at once, and leave the remainder open.
    double group = 0.0;
    int64_t k = 0;
    do {
      group += bytes;
      ++k;
    } while (k < count && !(group >= target_));
    if (!(group >= target_)) {
      acc_ = group;
      return;
    }
    const int64_t groups = count / k;
    Emit(group, groups);
    for (int64_t r = count - groups * k; r > 0; --r) acc_ += bytes;
  }

  int64_t Finish() {
    if (coalesce_ != nullptr) {
      if (acc_ > 0.0) Emit(acc_, 1);
      if (out_->empty()) Emit(0.0, 1);
    }
    return total_;
  }

 private:
  void Emit(double bytes, int64_t count) {
    if (!out_->empty() && out_->back().bytes == bytes) {
      out_->back().count += count;
    } else {
      out_->push_back({bytes, count});
    }
    total_ += count;
  }

  const SkewSplitRule* split_;
  const CoalesceRule* coalesce_;
  std::vector<PartitionRun>* out_;
  double limit_ = 0.0, chunk_ = 0.0;
  double small_ = 0.0, target_ = 0.0, acc_ = 0.0;
  int64_t total_ = 0;
};

}  // namespace

ZipfTable::ZipfTable(double z, int size) : z_(z), weight_(size) {
  for (int i = 0; i < size; ++i) {
    weight_[i] = std::pow(static_cast<double>(i + 1), -2.0 * z);
  }
  Finish();
}

ZipfTable::ZipfTable(double z, std::vector<double> weights)
    : z_(z), weight_(std::move(weights)) {
  Finish();
}

void ZipfTable::Finish() {
  sum_.resize(weight_.size() + 1);
  sum_[0] = 0.0;
  for (size_t i = 0; i < weight_.size(); ++i) {
    sum_[i + 1] = sum_[i] + weight_[i];
    if (i > 0 && weight_[i] > weight_[i - 1]) non_increasing_ = false;
  }
}

ZipfTables::ZipfTables(const LogicalPlan& plan) {
  std::vector<double> skews;
  for (int id : plan.TopologicalOrder()) {
    const double z = plan.op(id).shuffle_skew;
    if (z != 0.0 && std::find(skews.begin(), skews.end(), z) == skews.end()) {
      skews.push_back(z);
    }
  }
  tables_.reserve(skews.size());
  for (double z : skews) tables_.emplace_back(z);
}

const ZipfTable* ZipfTables::Find(double z) const {
  for (const ZipfTable& t : tables_) {
    if (t.z() == z) return &t;
  }
  return nullptr;
}

int64_t PartitionRuns(double total, int n, const ZipfTable* zipf,
                      const SkewSplitRule* split,
                      const CoalesceRule* coalesce,
                      PartitionScratch* scratch) {
  SPARKOPT_DCHECK(n >= 1 && (zipf == nullptr || n <= zipf->size()))
      << "n " << n;
  if (zipf == nullptr) {
    // (i+1)^{-0} == 1 for every i and the weights sum to n exactly.
    const double size = total * (1.0 / n);
    OnePass pass(split, size, coalesce, &scratch->runs);
    pass.Push(size, n);
    return pass.Finish();
  }
  const double sum = zipf->Sum(n);
  // The skew split's median: element n/2 of the sizes sorted ascending.
  double median = 0.0;
  if (split != nullptr) {
    if (zipf->non_increasing()) {
      median = total * (zipf->Weight(n - 1 - n / 2) / sum);
    } else {
      std::vector<double>& sizes = scratch->sizes;
      sizes.resize(n);
      for (int i = 0; i < n; ++i) sizes[i] = total * (zipf->Weight(i) / sum);
      std::nth_element(sizes.begin(), sizes.begin() + n / 2, sizes.end());
      median = sizes[n / 2];
    }
  }
  OnePass pass(split, median, coalesce, &scratch->runs);
  for (int i = 0; i < n; ++i) pass.Push(total * (zipf->Weight(i) / sum), 1);
  return pass.Finish();
}

void ExpandRuns(const std::vector<PartitionRun>& runs,
                std::vector<double>* partition_bytes) {
  partition_bytes->clear();
  for (const PartitionRun& r : runs) {
    partition_bytes->insert(partition_bytes->end(), r.count, r.bytes);
  }
}

}  // namespace sparkopt
