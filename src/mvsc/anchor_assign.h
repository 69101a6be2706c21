#ifndef UMVSC_MVSC_ANCHOR_ASSIGN_H_
#define UMVSC_MVSC_ANCHOR_ASSIGN_H_

#include <cstddef>
#include <functional>

#include "graph/anchors.h"
#include "la/matrix.h"
#include "mvsc/anchor_unified.h"

// The anchor-assignment driver: nearest anchors → reduced coordinates → a
// discrete label, for new points of a fitted anchor model. AssignRows is
// the one row-tile kernel every caller runs — OutOfSampleModel::Predict
// (and serve::BatchAssigner::Assign, which forwards to it) and the
// streaming solver's frozen-model extension — built from these primitives:
//
//   anchor row  graph::AnchorRowTile, the row kernel graph::BuildAnchorAffinity
//               itself runs: graph::SquaredDistanceTile against the view's
//               graph::PackedRows (anchors packed once per model), then
//               graph::SelectAnchorRow (s nearest,
//               ties to the smaller index, self-tuning Gaussian weights in
//               ascending anchor order). A served or streamed row is
//               therefore bitwise the training row of the same standardized
//               point at every feature dimension; the kernel's kc grid gives
//               a row the same bits in a one-row call (its 1×16 register
//               kernel) as in a taller tile (4×8 tiles).
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
/// builds their s-sparse anchor rows with graph::AnchorRowTile, and
/// accumulates u = z·anchor_map in ascending-anchor order. `anchors` must be
/// graph::PackRows(view.anchors). Writes row i's anchor columns and
/// weights at cols/weights + i·s and its k_v = view.anchor_map.cols()
/// coordinates at u + i·u_stride (overwritten, not added to). Scratch is per
/// thread and reused.
void AssignRows(const AnchorViewModel& view, const graph::PackedRows& anchors,
                std::size_t s, const double* raw, std::size_t rows,
                std::size_t* cols, double* weights, double* u,
                std::size_t u_stride);

}  // namespace umvsc::mvsc::assign

#endif  // UMVSC_MVSC_ANCHOR_ASSIGN_H_
