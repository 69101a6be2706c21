#include "cluster/spectral.h"

#include <cmath>

#include "cluster/kmeans.h"
#include "la/lanczos.h"
#include "la/sym_eigen.h"

namespace umvsc::cluster {

StatusOr<la::Matrix> SpectralEmbedding(const la::Matrix& affinity,
                                       std::size_t k,
                                       graph::LaplacianKind kind,
                                       bool normalize_rows) {
  const std::size_t n = affinity.rows();
  if (k < 1 || k >= n) {
    return Status::InvalidArgument("SpectralEmbedding requires 1 <= k < n");
  }
  StatusOr<la::Matrix> lap = graph::Laplacian(affinity, kind);
  if (!lap.ok()) return lap.status();
  if (kind == graph::LaplacianKind::kRandomWalk) {
    // The random-walk Laplacian is not symmetric; use the similar symmetric
    // problem D^{1/2}·L_rw·D^{−1/2} = L_sym and de-normalize its vectors,
    // which yields the L_rw eigenvectors exactly.
    StatusOr<la::Matrix> lsym =
        graph::Laplacian(affinity, graph::LaplacianKind::kSymmetric);
    if (!lsym.ok()) return lsym.status();
    StatusOr<la::SymEigenResult> eig = la::SmallestEigenpairs(*lsym, k);
    if (!eig.ok()) return eig.status();
    la::Vector deg = graph::Degrees(affinity);
    la::Matrix f = eig->eigenvectors;
    for (std::size_t i = 0; i < n; ++i) {
      const double scale = deg[i] > 0.0 ? 1.0 / std::sqrt(deg[i]) : 1.0;
      for (std::size_t j = 0; j < k; ++j) f(i, j) *= scale;
    }
    if (normalize_rows) {
      for (std::size_t i = 0; i < n; ++i) {
        double norm = 0.0;
        for (std::size_t j = 0; j < k; ++j) norm += f(i, j) * f(i, j);
        norm = std::sqrt(norm);
        if (norm > 0.0) {
          for (std::size_t j = 0; j < k; ++j) f(i, j) /= norm;
        }
      }
    }
    return f;
  }

  StatusOr<la::SymEigenResult> eig = la::SmallestEigenpairs(*lap, k);
  if (!eig.ok()) return eig.status();
  la::Matrix f = std::move(eig->eigenvectors);
  if (normalize_rows) {
    for (std::size_t i = 0; i < n; ++i) {
      double norm = 0.0;
      for (std::size_t j = 0; j < k; ++j) norm += f(i, j) * f(i, j);
      norm = std::sqrt(norm);
      if (norm > 0.0) {
        for (std::size_t j = 0; j < k; ++j) f(i, j) /= norm;
      }
    }
  }
  return f;
}

StatusOr<la::Matrix> SpectralEmbeddingSparse(const la::CsrMatrix& affinity,
                                             std::size_t k,
                                             bool normalize_rows,
                                             std::uint64_t seed) {
  const std::size_t n = affinity.rows();
  if (k < 1 || k >= n) {
    return Status::InvalidArgument(
        "SpectralEmbeddingSparse requires 1 <= k < n");
  }
  StatusOr<la::CsrMatrix> lap =
      graph::Laplacian(affinity, graph::LaplacianKind::kSymmetric);
  if (!lap.ok()) return lap.status();
  // The normalized Laplacian spectrum lies in [0, 2]; 2 + ε is a valid
  // complement bound for the smallest-eigenpair transform. The solver path
  // is picked by k (la::ResolveEigensolveMode: block iff k ≥ 16): the block
  // solver iterates on n × k panels (one SpMM per application, in-panel
  // multiplicity capture) and wins at wide k, while the single-vector
  // solver's tridiagonal Rayleigh–Ritz wins at small k.
  la::LanczosOptions options;
  options.seed = seed;
  options.max_subspace = std::min(n, std::max<std::size_t>(12 * k + 100, 250));
  options.tolerance = 3e-6;
  StatusOr<la::SymEigenResult> eig =
      la::LanczosSmallestAuto(*lap, k, 2.0 + 1e-9, options);
  if (!eig.ok()) return eig.status();
  la::Matrix f = std::move(eig->eigenvectors);
  if (normalize_rows) {
    for (std::size_t i = 0; i < n; ++i) {
      double norm = 0.0;
      for (std::size_t j = 0; j < k; ++j) norm += f(i, j) * f(i, j);
      norm = std::sqrt(norm);
      if (norm > 0.0) {
        for (std::size_t j = 0; j < k; ++j) f(i, j) /= norm;
      }
    }
  }
  return f;
}

StatusOr<SpectralResult> SpectralClustering(const la::Matrix& affinity,
                                            const SpectralOptions& options) {
  StatusOr<la::Matrix> embedding =
      SpectralEmbedding(affinity, options.num_clusters, options.laplacian,
                        options.normalize_rows);
  if (!embedding.ok()) return embedding.status();

  KMeansOptions km;
  km.num_clusters = options.num_clusters;
  km.restarts = options.kmeans_restarts;
  km.seed = options.seed;
  StatusOr<KMeansResult> clustered = KMeans(*embedding, km);
  if (!clustered.ok()) return clustered.status();

  SpectralResult out;
  out.labels = std::move(clustered->labels);
  out.embedding = std::move(*embedding);
  return out;
}

}  // namespace umvsc::cluster
