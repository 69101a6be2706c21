#ifndef UMVSC_MVSC_ANCHOR_ASSIGN_H_
#define UMVSC_MVSC_ANCHOR_ASSIGN_H_

#include <algorithm>
#include <cstddef>
#include <functional>

#include "la/gemm_kernel.h"
#include "la/matrix.h"
#include "la/vector.h"
#include "mvsc/anchor_unified.h"

// The anchor-assignment driver: nearest anchors → reduced coordinates → a
// discrete label, for new points of a fitted anchor model. AssignRows is
// the one row-tile kernel every caller runs — OutOfSampleModel::Predict
// (and serve::BatchAssigner::Assign, which forwards to it) and the
// streaming solver's frozen-model extension — built from these primitives:
//
//   distances   d²(x, a_j) = max(0, ‖x‖² + ‖a_j‖² − 2·x·a_j), the Gram
//               expansion of graph::CrossSquaredDistancePanel, with the dot
//               panel one la::kernel::GemmAdd against the view's AnchorPanel
//               (anchors packed once per model). The kernel's kc grid gives
//               a row the same bits in a one-row call (its 1×16 register
//               kernel) as in a taller tile (4×8 tiles), and equals the
//               training-side scalar dot whenever d ≤ la::kernel::kKc.
//   selection   SelectAnchorRow: the exact row rule of
//               graph::BuildAnchorAffinity (s nearest anchors, ties to the
//               smaller index), then that builder's own weighting,
//               graph::WeightAnchorRow (self-tuning bandwidth = own
//               s-th-nearest squared distance, Gaussian weights summed in
//               rank order, normalized, sorted to ascending anchor order).
//   coordinates ascending-column accumulation u = z·anchor_map — the
//               documented element order of CsrMatrix::MultiplyInto, so a
//               row equals the training side's SpMM row.
//   scores      BlockedVecMatAdd: scores += u·assignment on the same GemmAdd
//               kc grid, so a vector-matrix product equals a row of la::MatMul.
//   argmax      RowArgMax: strict >, ties keep the smaller cluster index,
//               matching the training discretization.
//
// Every step is a pure function of one row, so labels do not depend on the
// thread count, the tile grid, or how a batch is split into calls.
// docs/SERVING.md spells out the full determinism contract.

namespace umvsc::mvsc::assign {

/// The per-view data every assignment call reads besides the model itself:
/// ‖a_j‖² per anchor (graph::RowSquaredNorms convention) and the anchors
/// packed once as the transposed B operand of la::kernel::GemmAdd (d × m).
/// Derived from the anchors alone — rebuilt wherever they change, never
/// serialized — and immutable, so concurrent calls share it.
struct AnchorPanel {
  la::Vector sq_norms;
  la::kernel::PackedB packed;
};

/// Builds the AnchorPanel of an m × d anchor matrix.
AnchorPanel PrepareAnchors(const la::Matrix& anchors);

/// ‖x‖² in ascending-feature order — the graph::RowSquaredNorms convention.
double RowSquaredNorm(const double* x, std::size_t k);

/// The Gram-expansion squared distance, clamped at zero exactly as
/// graph::CrossSquaredDistancePanel clamps it.
inline double SquaredFromDot(double nx, double na, double dot) {
  return std::max(0.0, nx + na - 2.0 * dot);
}

/// graph::BuildAnchorAffinity's row rule applied to one dense distance row:
/// selects the s nearest of the m squared distances in `d2` (ascending
/// distance, ties keep the smaller anchor index), then graph::WeightAnchorRow
/// turns them into normalized self-tuning Gaussian weights in ascending
/// anchor order — ready to drop into a CSR row.
/// `cols` and `weights` must hold s entries. Requires 1 ≤ s ≤ m.
void SelectAnchorRow(const double* d2, std::size_t m, std::size_t s,
                     std::size_t* cols, double* weights);

/// out[j] += (u·a)[j] for a row vector u of a.rows() entries, accumulated
/// on the GemmAdd kc grid (blocks of la::kernel::kKc) — bitwise equal to
/// the corresponding row of la::MatMul(U, a) for any inner dimension.
void BlockedVecMatAdd(const double* u, const la::Matrix& a, double* out);

/// Index of the row maximum; strict >, so ties keep the smaller index.
std::size_t RowArgMax(const double* scores, std::size_t c);

/// Rows per tile of the assignment driver. Tiles bound the per-thread
/// scratch (kAssignTileRows × max(d, m) doubles); the labels do not depend
/// on it.
inline constexpr std::size_t kAssignTileRows = 64;

/// Runs tile(begin, end) over [0, rows) cut into kAssignTileRows-row tiles,
/// distributed by ParallelFor. `tile` must write only its own rows.
void ForEachTile(std::size_t rows,
                 const std::function<void(std::size_t, std::size_t)>& tile);

/// The row-tile kernel. For `rows` raw rows of one view (row-major, stride
/// d = view.anchors.cols()): standardizes them with the view's statistics,
/// takes their dots with the m anchors (one GemmAdd against panel.packed),
/// turns them into Gram distances against panel.sq_norms, selects each
/// row's s-sparse anchor row, and accumulates u = z·anchor_map in
/// ascending-anchor order. `panel` must be PrepareAnchors(view.anchors).
/// Writes row i's anchor columns and weights at cols/weights + i·s and its
/// k_v = view.anchor_map.cols() coordinates at u + i·u_stride (overwritten,
/// not added to). Scratch is per thread and reused.
void AssignRows(const AnchorViewModel& view, const AnchorPanel& panel,
                std::size_t s, const double* raw, std::size_t rows,
                std::size_t* cols, double* weights, double* u,
                std::size_t u_stride);

}  // namespace umvsc::mvsc::assign

#endif  // UMVSC_MVSC_ANCHOR_ASSIGN_H_
