#include "optimizer/dp_strategy.h"

#include "util/error.h"

namespace holmes::optimizer {

std::vector<Bytes> bucket_sizes(Bytes total, int buckets) {
  if (buckets <= 0) throw ConfigError("bucket count must be positive");
  if (total < 0) throw ConfigError("negative gradient size");
  const Bytes base = total / buckets;
  const Bytes longer = total % buckets;
  std::vector<Bytes> sizes(static_cast<std::size_t>(buckets), base);
  for (Bytes i = 0; i < longer; ++i) ++sizes[static_cast<std::size_t>(i)];
  return sizes;
}

}  // namespace holmes::optimizer
