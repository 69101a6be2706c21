// The untraced binary counts no allocations.
#include "harness.h"

namespace perfbench {

void CountAllocations(bool) {}

std::uint64_t AllocatedBytes() { return 0; }

}  // namespace perfbench
