#ifndef UMVSC_GRAPH_TILED_SELECT_H_
#define UMVSC_GRAPH_TILED_SELECT_H_

#include <cstddef>
#include <functional>
#include <vector>

namespace umvsc::graph::internal {

/// Internal machinery of the tiled O(n·k) graph construction: a reusable
/// bounded top-k selector and the tile-parallel panel → selection driver.
/// Public entry points live in knn_graph.h / kernels.h; nothing outside
/// graph/ should include this header.

/// Bounded best-k selector with a reusable workspace: keeps the k best
/// (value, index) pairs seen so far in rank order (best first), with the
/// deterministic tie rule "equal values prefer the smaller index". One
/// instance per thread, Reset() per row — no per-row allocation (the
/// backing arrays are sized k once and reused).
class BoundedTopK {
 public:
  /// `largest` selects by descending value (affinity top-k); otherwise by
  /// ascending value (nearest-distance selection).
  BoundedTopK(std::size_t k, bool largest) : k_(k), largest_(largest) {
    vals_.reserve(k);
    idxs_.reserve(k);
  }

  void Reset() {
    vals_.clear();
    idxs_.clear();
  }

  /// Considers candidate (v, j); keeps it iff it ranks among the k best.
  void Offer(double v, std::size_t j) {
    const std::size_t m = vals_.size();
    if (m == k_ && !Better(v, j, vals_[m - 1], idxs_[m - 1])) return;
    // Binary search the insertion slot in the best → worst run.
    std::size_t lo = 0, hi = m;
    while (lo < hi) {
      const std::size_t mid = (lo + hi) / 2;
      if (Better(v, j, vals_[mid], idxs_[mid])) {
        hi = mid;
      } else {
        lo = mid + 1;
      }
    }
    if (m == k_) {
      vals_.pop_back();
      idxs_.pop_back();
    }
    vals_.insert(vals_.begin() + lo, v);
    idxs_.insert(idxs_.begin() + lo, j);
  }

  std::size_t size() const { return vals_.size(); }
  /// Rank r (0 = best) accessors.
  double value(std::size_t r) const { return vals_[r]; }
  std::size_t index(std::size_t r) const { return idxs_[r]; }

 private:
  bool Better(double v, std::size_t j, double v2, std::size_t j2) const {
    if (v != v2) return largest_ ? v > v2 : v < v2;
    return j < j2;
  }

  std::size_t k_;
  bool largest_;
  std::vector<double> vals_;
  std::vector<std::size_t> idxs_;
};

/// Rows per score panel of the graph builders: peak panel memory per
/// thread is kTileRows × n × 8 bytes, ≈ 20 MB at n = 20000. The output
/// never depends on it.
inline constexpr std::size_t kTileRows = 128;

/// Fills `panel` — a row-major (r1 − r0) × n block — with the selection
/// scores of rows [r0, r1). The filler is invoked from inside a parallel
/// region and must be pure with respect to its output block.
using PanelFiller =
    std::function<void(std::size_t r0, std::size_t r1, double* panel)>;

/// Result of a directed per-row selection: row i holds count[i] entries at
/// [i·k, i·k + count[i]) of `cols`/`vals`, in RANK order (best first).
struct DirectedSelection {
  std::size_t n = 0;
  std::size_t k = 0;  // slots per row (selection size)
  std::vector<std::size_t> cols;
  std::vector<double> vals;
  std::vector<std::size_t> counts;
};

/// The tiled selection core: cuts [0, n) into ⌈n / tile_rows⌉ row tiles,
/// fills each tile's score panel via `fill`, and runs the bounded selector
/// over every row (self-scores j == i are skipped). Peak memory is one
/// tile_rows × n panel per participating thread plus the O(n·k) output —
/// never an n × n buffer.
///
/// Determinism: the tile grid depends only on (n, tile_rows) — never the
/// thread count — threads own contiguous tile runs, and each row's
/// selection is a pure function of its panel row, so the output is bitwise
/// identical at every thread count AND every tile size.
///
/// If `negative_seen` is non-null, every panel entry (including j == i) is
/// additionally checked for negativity and *negative_seen reports whether
/// any was found — this folds input validation into the selection pass
/// instead of a separate O(n²) serial prescan.
DirectedSelection TiledSelect(std::size_t n, std::size_t k, bool largest,
                              std::size_t tile_rows, const PanelFiller& fill,
                              bool* negative_seen);

}  // namespace umvsc::graph::internal

#endif  // UMVSC_GRAPH_TILED_SELECT_H_
