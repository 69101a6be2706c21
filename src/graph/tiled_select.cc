#include "graph/tiled_select.h"

#include <algorithm>
#include <cstdint>

#include "common/check.h"
#include "common/parallel.h"

namespace umvsc::graph::internal {

DirectedSelection TiledSelect(std::size_t n, std::size_t k, bool largest,
                              std::size_t tile_rows, const PanelFiller& fill,
                              bool* negative_seen) {
  UMVSC_CHECK(k >= 1 && k < n, "TiledSelect requires 1 <= k < n");
  const std::size_t tile = std::max<std::size_t>(1, std::min(tile_rows, n));
  const std::size_t num_tiles = (n + tile - 1) / tile;
  const bool check_nonneg = negative_seen != nullptr;

  DirectedSelection out;
  out.n = n;
  out.k = k;
  out.cols.resize(n * k);
  out.vals.resize(n * k);
  out.counts.assign(n, 0);

  // One flag slot per tile: write-disjoint, collected in tile order after
  // the region so the verdict never depends on scheduling.
  std::vector<std::uint8_t> tile_negative(num_tiles, 0);

  ParallelFor(0, num_tiles, 1, [&](std::size_t tlo, std::size_t thi) {
    // Per-thread reusable workspaces: one score panel and one bounded
    // selector serve every tile in this thread's contiguous run.
    std::vector<double> panel(tile * n);
    BoundedTopK selector(k, largest);
    for (std::size_t t = tlo; t < thi; ++t) {
      const std::size_t r0 = t * tile;
      const std::size_t r1 = std::min(n, r0 + tile);
      fill(r0, r1, panel.data());
      for (std::size_t i = r0; i < r1; ++i) {
        const double* prow = panel.data() + (i - r0) * n;
        selector.Reset();
        bool neg = false;
        for (std::size_t j = 0; j < n; ++j) {
          const double v = prow[j];
          if (check_nonneg && v < 0.0) neg = true;
          if (j == i) continue;
          selector.Offer(v, j);
        }
        if (neg) tile_negative[t] = 1;
        const std::size_t m = selector.size();
        out.counts[i] = m;
        for (std::size_t r = 0; r < m; ++r) {
          out.cols[i * k + r] = selector.index(r);
          out.vals[i * k + r] = selector.value(r);
        }
      }
    }
  });

  if (check_nonneg) {
    *negative_seen = false;
    for (std::uint8_t flag : tile_negative) {
      if (flag) *negative_seen = true;
    }
  }
  return out;
}

}  // namespace umvsc::graph::internal
