#include "la/lanczos.h"

#include <algorithm>
#include <cmath>

#include "common/parallel.h"
#include "common/rng.h"
#include "common/strings.h"
#include "la/gemm_kernel.h"
#include "la/ops.h"

namespace umvsc::la {

namespace {

// Re-orthogonalizes w against every column stored in `basis` (two classical
// Gram–Schmidt passes, which in double precision is as good as modified GS
// with full reorthogonalization).
void Reorthogonalize(const std::vector<Vector>& basis, Vector& w) {
  for (int pass = 0; pass < 2; ++pass) {
    for (const Vector& q : basis) {
      const double dot = Dot(q, w);
      if (dot != 0.0) w.Axpy(-dot, q);
    }
  }
}

}  // namespace

StatusOr<SymEigenResult> LanczosLargest(const SymmetricOperator& op,
                                        std::size_t n, std::size_t k,
                                        const LanczosOptions& options) {
  if (k == 0 || k > n) {
    return Status::InvalidArgument("LanczosLargest requires 0 < k <= n");
  }
  const std::size_t max_m = std::min(n, options.max_subspace);
  if (max_m < k) {
    return Status::InvalidArgument("max_subspace smaller than k");
  }

  Rng rng(options.seed);
  std::vector<Vector> basis;  // Lanczos vectors q_0 … q_{m−1}
  basis.reserve(max_m);
  std::vector<double> alpha;  // diagonal of T
  std::vector<double> beta;   // subdiagonal of T

  // Warm columns usable by this solve: the column sum seeds q_0, and the
  // individual columns feed breakdown restarts before random directions do.
  const Matrix* warm = options.warm_start;
  if (warm != nullptr && (warm->rows() != n || warm->cols() == 0)) {
    warm = nullptr;
  }
  std::size_t next_warm = 0;

  Vector q(n);
  bool seeded = false;
  if (warm != nullptr) {
    for (std::size_t i = 0; i < n; ++i) {
      double s = 0.0;
      for (std::size_t j = 0; j < warm->cols(); ++j) s += (*warm)(i, j);
      q[i] = s;
    }
    const double norm = q.Norm2();
    if (norm > 1e-12) {
      q.Scale(1.0 / norm);
      seeded = true;
    }
  }
  if (!seeded) {
    for (std::size_t i = 0; i < n; ++i) q[i] = rng.Gaussian();
    q.Normalize();
  }
  basis.push_back(q);

  double spectral_scale = 1.0;
  SymEigenResult small;  // eigen-decomposition of the current tridiagonal

  for (std::size_t m = 1; m <= max_m; ++m) {
    // Expand the Krylov basis: w = A·q_{m−1} − β_{m−2}·q_{m−2}.
    Vector w(n);
    op(basis.back(), w);
    if (options.matvec_count != nullptr) ++*options.matvec_count;
    const double a = Dot(basis.back(), w);
    alpha.push_back(a);
    spectral_scale = std::max(spectral_scale, std::fabs(a));
    Reorthogonalize(basis, w);
    const double b = w.Norm2();

    // A Ritz pair's residual is |β_m · s_{m−1,j}| (last component of the
    // tridiagonal eigenvector scaled by the new off-diagonal norm). This is
    // also ≈0 whenever the basis spans an invariant subspace, which happens
    // *before* convergence for eigenvalues with multiplicity > 1 (a single
    // Krylov sequence sees one copy of each eigenspace). Guard against that
    // trap by requiring the subspace to grow past k by a safety margin
    // before accepting, and by restarting with fresh random directions on
    // every breakdown — restarts re-sample the missed eigenspace copies.
    const std::size_t min_dim = std::min(n, k + std::max<std::size_t>(k, 8));

    // The O(m³) Rayleigh–Ritz solve only matters once acceptance is even
    // possible (m ≥ min_dim, or the basis is the full space) — nothing in
    // the growth phase reads its output, so skipping it there changes no
    // bit of the final result, only the wall time.
    bool all_converged = false;
    if (m >= min_dim || m == n) {
      // Solve the small tridiagonal problem.
      Vector d(alpha.size());
      for (std::size_t i = 0; i < alpha.size(); ++i) d[i] = alpha[i];
      Vector e(beta.size());
      for (std::size_t i = 0; i < beta.size(); ++i) e[i] = beta[i];
      StatusOr<SymEigenResult> tri = TridiagonalEigen(d, e);
      if (!tri.ok()) return tri.status();
      small = std::move(*tri);

      all_converged = true;  // min_dim ≥ k, so k Ritz pairs always exist here
      for (std::size_t j = 0; j < k; ++j) {
        const std::size_t col = m - 1 - j;  // largest Ritz values
        const double resid = std::fabs(b * small.eigenvectors(m - 1, col));
        if (resid > options.tolerance * spectral_scale) {
          all_converged = false;
          break;
        }
      }
    }
    if ((all_converged && m >= min_dim) || m == n) {
      // Assemble the Ritz vectors X = Q · S for the k largest values.
      SymEigenResult out;
      out.eigenvalues = Vector(k);
      out.eigenvectors = Matrix(n, k);
      for (std::size_t j = 0; j < k; ++j) {
        const std::size_t col = m - 1 - j;
        out.eigenvalues[j] = small.eigenvalues[col];
        for (std::size_t i = 0; i < n; ++i) {
          double s = 0.0;
          for (std::size_t p = 0; p < m; ++p) {
            s += basis[p][i] * small.eigenvectors(p, col);
          }
          out.eigenvectors(i, j) = s;
        }
      }
      return out;
    }
    if (m == max_m) {
      return Status::NumericalError(StrFormat(
          "Lanczos did not converge within a subspace of %zu", max_m));
    }

    if (b <= 1e-12 * spectral_scale) {
      // Breakdown (invariant subspace): extend the basis. Warm-start columns
      // go first — they point at the eigenspace copies a single Krylov
      // sequence misses — then fresh random directions orthogonal to
      // everything found so far.
      Vector fresh(n);
      double norm = 0.0;
      while (warm != nullptr && next_warm < warm->cols()) {
        for (std::size_t i = 0; i < n; ++i) fresh[i] = (*warm)(i, next_warm);
        ++next_warm;
        Reorthogonalize(basis, fresh);
        norm = fresh.Norm2();
        if (norm > 1e-8) break;  // column adds a genuinely new direction
        norm = 0.0;
      }
      if (norm == 0.0) {
        for (std::size_t i = 0; i < n; ++i) fresh[i] = rng.Gaussian();
        Reorthogonalize(basis, fresh);
        norm = fresh.Norm2();
      }
      if (norm <= 1e-12) {
        return Status::NumericalError(
            "Lanczos: could not extend the Krylov basis");
      }
      fresh.Scale(1.0 / norm);
      beta.push_back(0.0);
      basis.push_back(fresh);
    } else {
      w.Scale(1.0 / b);
      beta.push_back(b);
      basis.push_back(w);
    }
  }
  return Status::NumericalError("Lanczos subspace exhausted");
}

StatusOr<SymEigenResult> LanczosSmallest(const SymmetricOperator& op,
                                         std::size_t n, std::size_t k,
                                         double spectral_bound,
                                         const LanczosOptions& options) {
  if (spectral_bound <= 0.0) {
    return Status::InvalidArgument("spectral_bound must be positive");
  }
  SymmetricOperator complement = [&op, spectral_bound](const Vector& x,
                                                       Vector& y) {
    // y += (bound·I − A)·x
    Vector ax(x.size());
    op(x, ax);
    for (std::size_t i = 0; i < x.size(); ++i) {
      y[i] += spectral_bound * x[i] - ax[i];
    }
  };
  StatusOr<SymEigenResult> res = LanczosLargest(complement, n, k, options);
  if (!res.ok()) return res.status();
  // Map back: λ_A = bound − λ_complement; order flips to ascending.
  for (std::size_t j = 0; j < k; ++j) {
    res->eigenvalues[j] = spectral_bound - res->eigenvalues[j];
  }
  return res;
}

StatusOr<SymEigenResult> LanczosLargest(const CsrMatrix& a, std::size_t k,
                                        const LanczosOptions& options) {
  if (a.rows() != a.cols()) {
    return Status::InvalidArgument("Lanczos requires a square matrix");
  }
  SymmetricOperator op = [&a](const Vector& x, Vector& y) {
    a.MultiplyInto(x, y);
  };
  return LanczosLargest(op, a.rows(), k, options);
}

StatusOr<SymEigenResult> LanczosSmallest(const CsrMatrix& a, std::size_t k,
                                         double spectral_bound,
                                         const LanczosOptions& options) {
  if (a.rows() != a.cols()) {
    return Status::InvalidArgument("Lanczos requires a square matrix");
  }
  SymmetricOperator op = [&a](const Vector& x, Vector& y) {
    a.MultiplyInto(x, y);
  };
  return LanczosSmallest(op, a.rows(), k, spectral_bound, options);
}

namespace {

// Basis layout of the block solver: the Lanczos vectors live in the left m
// columns of ONE contiguous n × max_m matrix (their operator images
// likewise), so every projection against the basis is a single GemmAdd
// over the full basis instead of one small GEMM per stored panel. At the
// panel widths the paper shapes need (b ≤ 10) a per-panel p.cols() × bw
// product is tiny — per-call packing and dispatch dominate its arithmetic
// — and fusing the calls removes that overhead wholesale. GemmAdd's
// accumulation grid is a pure function of the shapes alone, so cross-
// thread-count determinism is unchanged.

// Row grain of the basis-wide GemmAdd sweeps (same as la/ops.cc).
constexpr std::size_t kBlockRowGrain = 32;

// c = A[:, 0..m) · s for a basis held in the left m columns of `a`.
Matrix LeftColsTimes(const Matrix& a, std::size_t m, const Matrix& s) {
  Matrix c(a.rows(), s.cols());
  const kernel::Operand ao{a.data(), a.cols(), false};
  const kernel::Operand so{s.data(), s.cols(), false};
  ParallelFor(0, a.rows(), kBlockRowGrain,
              [&](std::size_t lo, std::size_t hi) {
                kernel::GemmAdd(s.cols(), m, ao, so, c.data(), s.cols(), lo,
                                hi);
              });
  return c;
}

// g = A[:, 0..m)ᵀ · w, overwriting caller storage (g is m × w.cols()).
void LeftColsTransposeTimes(const Matrix& a, std::size_t m, const Matrix& w,
                            Matrix& g) {
  g.Fill(0.0);
  const kernel::Operand at{a.data(), a.cols(), true};
  const kernel::Operand wo{w.data(), w.cols(), false};
  ParallelFor(0, m, kBlockRowGrain, [&](std::size_t lo, std::size_t hi) {
    kernel::GemmAdd(w.cols(), a.rows(), at, wo, g.data(), w.cols(), lo, hi);
  });
}

// w += A[:, 0..m) · g, accumulating in place (w is a.rows() × g.cols()).
void AddLeftColsTimes(const Matrix& a, std::size_t m, const Matrix& g,
                      Matrix& w) {
  const kernel::Operand ao{a.data(), a.cols(), false};
  const kernel::Operand go{g.data(), g.cols(), false};
  ParallelFor(0, w.rows(), kBlockRowGrain,
              [&](std::size_t lo, std::size_t hi) {
                kernel::GemmAdd(g.cols(), m, ao, go, w.data(), w.cols(), lo,
                                hi);
              });
}

// Contiguous copy of basis columns [c0, c0 + w): operators take a dense
// panel, and the skinny SpMM wants a packed right-hand side.
Matrix CopyColumns(const Matrix& q, std::size_t c0, std::size_t w) {
  Matrix p(q.rows(), w);
  for (std::size_t i = 0; i < q.rows(); ++i) {
    const double* src = q.RowPtr(i) + c0;
    std::copy(src, src + w, p.RowPtr(i));
  }
  return p;
}

// Appends `width` orthonormal columns to the basis at columns [m, m+width)
// of q. Directions are taken in deterministic order: the columns of
// `candidates` (may be null; assumed orthogonal to basis columns [0, m)
// already — the caller ran the basis-wide reorthogonalization), then
// unused warm-start columns, then fresh Gaussian directions; warm/random
// replacements are orthogonalized against the whole basis from scratch
// (two modified-GS passes — the rare panel-repair path, never the hot
// loop). Returns false when the space is numerically exhausted.
bool AppendPanelColumns(Matrix& q, std::size_t m, std::size_t width,
                        const Matrix* candidates, const Matrix* warm,
                        std::size_t& next_warm, Rng& rng) {
  const std::size_t n = q.rows();
  const std::size_t num_candidates =
      candidates == nullptr ? 0 : candidates->cols();
  std::size_t accepted = 0;
  std::size_t next_candidate = 0;
  std::size_t random_attempts = 0;
  Vector v(n);
  while (accepted < width) {
    bool from_candidates = false;
    if (next_candidate < num_candidates) {
      for (std::size_t i = 0; i < n; ++i) {
        v[i] = (*candidates)(i, next_candidate);
      }
      ++next_candidate;
      from_candidates = true;
    } else if (warm != nullptr && next_warm < warm->cols()) {
      for (std::size_t i = 0; i < n; ++i) v[i] = (*warm)(i, next_warm);
      ++next_warm;
    } else {
      if (++random_attempts > 8) return false;
      for (std::size_t i = 0; i < n; ++i) v[i] = rng.Gaussian();
    }
    const double norm0 = v.Norm2();
    if (norm0 <= 1e-12) continue;
    v.Scale(1.0 / norm0);
    // Candidates only need the within-panel projections; replacements
    // project out every basis column.
    const std::size_t first = from_candidates ? m : 0;
    for (int pass = 0; pass < 2; ++pass) {
      for (std::size_t j = first; j < m + accepted; ++j) {
        double dot = 0.0;
        for (std::size_t i = 0; i < n; ++i) dot += q(i, j) * v[i];
        if (dot != 0.0) {
          for (std::size_t i = 0; i < n; ++i) v[i] -= dot * q(i, j);
        }
      }
    }
    const double norm = v.Norm2();
    if (norm <= 1e-8) continue;  // numerically dependent; next candidate
    v.Scale(1.0 / norm);
    for (std::size_t i = 0; i < n; ++i) q(i, m + accepted) = v[i];
    ++accepted;
    random_attempts = 0;  // the cap bounds consecutive failures, not draws
  }
  return true;
}

}  // namespace

StatusOr<SymEigenResult> BlockLanczosLargest(const SymmetricBlockOperator& op,
                                             std::size_t n, std::size_t k,
                                             const LanczosOptions& options) {
  if (k == 0 || k > n) {
    return Status::InvalidArgument("BlockLanczosLargest requires 0 < k <= n");
  }
  const std::size_t max_m = std::min(n, options.max_subspace);
  if (max_m < k) {
    return Status::InvalidArgument("max_subspace smaller than k");
  }
  // Default block width: k capped at kDefaultBlockCap. The per-iteration
  // Rayleigh–Ritz eigensolve costs O(m³) while each panel raises the basis
  // dimension m by b, so a wide panel buys fewer Krylov polynomial degrees
  // per basis dimension; past a modest width the dense eigensolves dominate
  // and the solver degenerates toward a full O(n³) factorization. Measured
  // at n=400, k=40: b=40 needs the full m=n subspace (0.56 s) while b=10
  // converges at m=220 (0.16 s, on par with the single-vector solver). A
  // multiplicity of k is still captured: deficient panels are repaired with
  // fresh random directions and residuals are exact, so narrow panels only
  // add iterations, never wrong answers.
  constexpr std::size_t kDefaultBlockCap = 10;
  const std::size_t default_b = std::min(k, kDefaultBlockCap);
  const std::size_t b =
      std::min(options.block_size == 0 ? default_b : options.block_size,
               std::min(n, max_m));

  Rng rng(options.seed);
  const Matrix* warm = options.warm_start;
  if (warm != nullptr && (warm->rows() != n || warm->cols() == 0)) {
    warm = nullptr;
  }
  std::size_t next_warm = 0;

  // Contiguous basis Q (left m columns) and the raw operator images A·Q.
  // Keeping the images makes the Rayleigh–Ritz residuals exact — the block
  // solver never trusts the recurrence estimate that the multiplicity trap
  // (see LanczosLargest) poisons.
  Matrix q(n, max_m);
  Matrix aq(n, max_m);
  Matrix h(max_m, max_m);  // projected operator H = QᵀAQ, grown blockwise
  std::size_t m = 0;

  // First panel: warm-start columns enter column-per-column (no collapse
  // into a single direction), then random directions fill the remainder.
  if (!AppendPanelColumns(q, 0, std::min(b, max_m), nullptr, warm, next_warm,
                          rng)) {
    return Status::NumericalError(
        "Block Lanczos: could not build the initial panel");
  }
  m = std::min(b, max_m);
  std::size_t panel_offset = 0;
  Matrix panel = CopyColumns(q, 0, m);

  double spectral_scale = 1.0;
  // The single-vector solver's anti-multiplicity margin, panel-scaled: the
  // basis must grow past k by at least one panel (or the classic margin of
  // 8, whichever is larger) before a converged set is accepted, so a warm
  // start that exactly spans an invariant — but wrong — subspace is always
  // challenged by directions outside it.
  const std::size_t min_dim = std::min(n, k + std::max<std::size_t>(b, 8));

  // Ritz values at the most recent Rayleigh–Ritz solve — the θ-stability
  // pre-filter for the exact-residual assembly below.
  Vector prev_theta;
  bool have_prev_theta = false;

  while (true) {
    const std::size_t bw = panel.cols();

    // One panel application: W = A·Q_j, counted as bw Krylov directions.
    Matrix w(n, bw);
    op(panel, w);
    if (options.matvec_count != nullptr) *options.matvec_count += bw;
    // Keep the raw image: residuals stay exact without re-applying A.
    for (std::size_t i = 0; i < n; ++i) {
      const double* src = w.RowPtr(i);
      std::copy(src, src + bw, aq.RowPtr(i) + panel_offset);
    }

    // Extend H = QᵀAQ by this panel's block column — the projections
    // G = QᵀW in one basis-wide product; mirror the off-diagonal blocks
    // and symmetrize the diagonal block so the projected problem is
    // symmetric by construction. G is kept: it doubles as the first
    // reorthogonalization pass's coefficients, saving one full read of
    // the basis per iteration (see below).
    Matrix g(m, bw);
    LeftColsTransposeTimes(q, m, w, g);
    for (std::size_t i = 0; i < panel_offset; ++i) {
      for (std::size_t j = 0; j < bw; ++j) {
        h(i, panel_offset + j) = g(i, j);
        h(panel_offset + j, i) = g(i, j);
      }
    }
    for (std::size_t i = 0; i < bw; ++i) {
      for (std::size_t j = 0; j < bw; ++j) {
        h(panel_offset + i, panel_offset + j) =
            0.5 * (g(panel_offset + i, j) + g(panel_offset + j, i));
      }
    }

    // Rayleigh–Ritz on the m × m projection — O(m³), the dominant cost at
    // small panel widths, so it only runs once acceptance is possible
    // (m ≥ min_dim, or the basis is the full space). Nothing in the growth
    // phase reads its output, and spectral_scale at the first eligible
    // iteration equals the running maximum the per-iteration variant would
    // have accumulated (eigenvalue interlacing: the extreme |θ| grow
    // monotonically with m), so the skip changes no bit of the result.
    if (m >= min_dim || m == n) {
      StatusOr<SymEigenResult> small = SymmetricEigen(h.Block(0, 0, m, m));
      if (!small.ok()) return small.status();
      for (std::size_t i = 0; i < m; ++i) {
        spectral_scale =
            std::max(spectral_scale, std::fabs(small->eigenvalues[i]));
      }

      // Wanted Ritz pairs: the k largest, descending (min_dim ≥ k, so they
      // always exist here).
      Matrix s_k(m, k);
      Vector theta(k);
      for (std::size_t j = 0; j < k; ++j) {
        const std::size_t col = m - 1 - j;
        theta[j] = small->eigenvalues[col];
        for (std::size_t i = 0; i < m; ++i) {
          s_k(i, j) = small->eigenvectors(i, col);
        }
      }

      // Exact residuals cost two O(n·m·k) basis products per check, which
      // rivals the rest of the iteration. θ-stability pre-filter: a Ritz
      // pair's residual is bounded below by its value movement between
      // subspace growths, so while any wanted θ still moves by more than
      // the acceptance threshold the residual test cannot pass and the
      // assembly is skipped. Forced at the first eligible iteration (no
      // previous θ — a converged warm start must be accepted immediately)
      // and whenever the basis cannot grow further (the last chance to
      // accept before the max_m error / the m == n must-return).
      const bool must_check = m >= std::min(max_m, n);
      bool theta_stable = !have_prev_theta;
      if (have_prev_theta) {
        theta_stable = true;
        for (std::size_t j = 0; j < k; ++j) {
          if (std::fabs(theta[j] - prev_theta[j]) >
              options.tolerance * spectral_scale) {
            theta_stable = false;
            break;
          }
        }
      }
      prev_theta = theta;
      have_prev_theta = true;

      if (theta_stable || must_check) {
        // Exact residuals ‖A·x_j − θ_j·x_j‖ from the stored images: each of
        // X = Q·S_k and A·X = (AQ)·S_k is one basis-wide product, with no
        // re-application of the operator.
        const Matrix x = LeftColsTimes(q, m, s_k);
        const Matrix full_ax = LeftColsTimes(aq, m, s_k);
        bool all_converged = true;
        for (std::size_t j = 0; j < k && all_converged; ++j) {
          double rss = 0.0;
          for (std::size_t i = 0; i < n; ++i) {
            const double r = full_ax(i, j) - theta[j] * x(i, j);
            rss += r * r;
          }
          if (std::sqrt(rss) > options.tolerance * spectral_scale) {
            all_converged = false;
          }
        }
        if ((all_converged && m >= min_dim) || m == n) {
          SymEigenResult out;
          out.eigenvalues = std::move(theta);
          out.eigenvectors = x;
          return out;
        }
      }
    }
    if (m >= max_m) {
      return Status::NumericalError(StrFormat(
          "Block Lanczos did not converge within a subspace of %zu", max_m));
    }

    // Next panel: strip the basis from W and orthonormalize what remains.
    // Pass 1 is classical block Gram–Schmidt reusing the H-extension
    // projections (W −= Q·G — the Qᵀ·W sweep is already paid for); pass 2
    // recomputes projections of the once-cleaned W, giving CGS2 quality.
    // Both passes subtract via an in-place negation of the small factor
    // plus a fused accumulation (IEEE negation is exact, so the bits match
    // the add-a-temporary form for any basis that fits one kc accumulation
    // block). Deficient columns — the block analogue of breakdown — are
    // repaired from unused warm-start columns first, then random
    // directions.
    g.Scale(-1.0);
    AddLeftColsTimes(q, m, g, w);
    Matrix g2(m, bw);
    LeftColsTransposeTimes(q, m, w, g2);
    g2.Scale(-1.0);
    AddLeftColsTimes(q, m, g2, w);
    const std::size_t next_width = std::min(b, std::min(max_m, n) - m);
    if (!AppendPanelColumns(q, m, next_width, &w, warm, next_warm, rng)) {
      return Status::NumericalError(
          "Block Lanczos: could not extend the Krylov basis");
    }
    panel_offset = m;
    m += next_width;
    panel = CopyColumns(q, panel_offset, next_width);
  }
}

StatusOr<SymEigenResult> BlockLanczosSmallest(const SymmetricBlockOperator& op,
                                              std::size_t n, std::size_t k,
                                              double spectral_bound,
                                              const LanczosOptions& options) {
  if (spectral_bound <= 0.0) {
    return Status::InvalidArgument("spectral_bound must be positive");
  }
  // Panel-fused complement: one Y += bound·X − A·X pass over the whole
  // block per application (the A·X underneath is a single SpMM for CSR
  // operators), replacing the single-vector path's per-column lambda.
  SymmetricBlockOperator complement = [&op, spectral_bound](const Matrix& x,
                                                            Matrix& y) {
    Matrix ax(x.rows(), x.cols());
    op(x, ax);
    double* yd = y.data();
    const double* xd = x.data();
    const double* axd = ax.data();
    for (std::size_t i = 0; i < x.size(); ++i) {
      yd[i] += spectral_bound * xd[i] - axd[i];
    }
  };
  StatusOr<SymEigenResult> res = BlockLanczosLargest(complement, n, k, options);
  if (!res.ok()) return res.status();
  // Map back: λ_A = bound − λ_complement; order flips to ascending.
  for (std::size_t j = 0; j < k; ++j) {
    res->eigenvalues[j] = spectral_bound - res->eigenvalues[j];
  }
  return res;
}

StatusOr<SymEigenResult> BlockLanczosLargest(const CsrMatrix& a, std::size_t k,
                                             const LanczosOptions& options) {
  if (a.rows() != a.cols()) {
    return Status::InvalidArgument("Block Lanczos requires a square matrix");
  }
  SymmetricBlockOperator op = [&a](const Matrix& x, Matrix& y) {
    a.MultiplyInto(x, y);
  };
  return BlockLanczosLargest(op, a.rows(), k, options);
}

StatusOr<SymEigenResult> BlockLanczosSmallest(const CsrMatrix& a, std::size_t k,
                                              double spectral_bound,
                                              const LanczosOptions& options) {
  if (a.rows() != a.cols()) {
    return Status::InvalidArgument("Block Lanczos requires a square matrix");
  }
  SymmetricBlockOperator op = [&a](const Matrix& x, Matrix& y) {
    a.MultiplyInto(x, y);
  };
  return BlockLanczosSmallest(op, a.rows(), k, spectral_bound, options);
}

// ---------------------------------------------------------------------------
// Auto-policy
// ---------------------------------------------------------------------------

EigensolveMode ResolveEigensolveMode(EigensolveMode requested,
                                     std::size_t /*n*/, std::size_t k) {
  if (requested != EigensolveMode::kAuto) return requested;
  // Wide panels amortize the basis products and capture a c-fold
  // multiplicity in one shot (the ORL shape, 400 × 40, runs ~20% faster
  // through the block path while the single-vector solver needs 7× the
  // sweeps); below that width the single-vector solver wins at every
  // measured shape (micro_la). The choice never depends on n.
  return k >= 16 ? EigensolveMode::kForceBlock : EigensolveMode::kForceSingle;
}

namespace {

// The single-vector view of a panel operator: each matvec is a width-1
// panel application. The zeroed n × 1 staging panels keep the y += A·x
// contract of SymmetricOperator.
SymmetricOperator ColumnOperator(const SymmetricBlockOperator& op) {
  return [&op](const Vector& x, Vector& y) {
    const std::size_t n = x.size();
    Matrix xm(n, 1);
    for (std::size_t i = 0; i < n; ++i) xm(i, 0) = x[i];
    Matrix ym(n, 1);
    op(xm, ym);
    for (std::size_t i = 0; i < n; ++i) y[i] += ym(i, 0);
  };
}

}  // namespace

StatusOr<SymEigenResult> LanczosLargestAuto(const CsrMatrix& a, std::size_t k,
                                            const LanczosOptions& options,
                                            EigensolveMode mode) {
  return ResolveEigensolveMode(mode, a.rows(), k) ==
                 EigensolveMode::kForceBlock
             ? BlockLanczosLargest(a, k, options)
             : LanczosLargest(a, k, options);
}

StatusOr<SymEigenResult> LanczosSmallestAuto(const CsrMatrix& a, std::size_t k,
                                             double spectral_bound,
                                             const LanczosOptions& options,
                                             EigensolveMode mode) {
  return ResolveEigensolveMode(mode, a.rows(), k) ==
                 EigensolveMode::kForceBlock
             ? BlockLanczosSmallest(a, k, spectral_bound, options)
             : LanczosSmallest(a, k, spectral_bound, options);
}

StatusOr<SymEigenResult> LanczosLargestAuto(const SymmetricBlockOperator& op,
                                            std::size_t n, std::size_t k,
                                            const LanczosOptions& options,
                                            EigensolveMode mode) {
  if (ResolveEigensolveMode(mode, n, k) == EigensolveMode::kForceBlock) {
    return BlockLanczosLargest(op, n, k, options);
  }
  return LanczosLargest(ColumnOperator(op), n, k, options);
}

StatusOr<SymEigenResult> LanczosSmallestAuto(const SymmetricBlockOperator& op,
                                             std::size_t n, std::size_t k,
                                             double spectral_bound,
                                             const LanczosOptions& options,
                                             EigensolveMode mode) {
  if (ResolveEigensolveMode(mode, n, k) == EigensolveMode::kForceBlock) {
    return BlockLanczosSmallest(op, n, k, spectral_bound, options);
  }
  return LanczosSmallest(ColumnOperator(op), n, k, spectral_bound, options);
}

}  // namespace umvsc::la
