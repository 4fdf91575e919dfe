// k-means clustering, implemented from scratch.
//
// The paper (§3) prescribes "clustering algorithms [JW83] ... to extract
// behavioral categories" from node usage periods. This is the Lloyd
// iteration with k-means++ seeding, plus model selection over k with a
// BIC-style penalty so the number of categories is *discovered*, matching
// the paper's "as data is being collected and analyzed new categories can
// appear, others can disappear".
#pragma once

#include <cstddef>
#include <vector>

#include "common/rng.hpp"

namespace integrade::lupa {

using Vector = std::vector<double>;

double squared_distance(const Vector& a, const Vector& b);

struct Clustering {
  std::vector<Vector> centroids;
  std::vector<std::size_t> assignment;  // point index -> centroid index
  double distortion = 0.0;              // sum of squared distances
  int iterations = 0;

  [[nodiscard]] std::size_t k() const { return centroids.size(); }
  /// Fraction of points assigned to each centroid.
  [[nodiscard]] std::vector<double> weights() const;
};

struct KMeansOptions {
  /// Restart count; the best distortion wins (k-means is seed-sensitive).
  int restarts = 4;
};

/// Cluster `points` (all the same dimension) into exactly k groups.
/// Requires 1 <= k <= points.size().
Clustering kmeans(const std::vector<Vector>& points, std::size_t k, Rng& rng,
                  const KMeansOptions& options = {});

/// Model selection: run kmeans for k in [1, max_k] and keep the k with the
/// lowest BIC-style score  n·d·log(distortion/(n·d) + eps) + penalty·k·log(n).
/// `penalty` trades parsimony against fit; the default recovers the planted
/// category count on the synthetic workloads in tests/lupa_test.cpp.
Clustering kmeans_select_k(const std::vector<Vector>& points, std::size_t max_k,
                           Rng& rng, double penalty = 2.0,
                           const KMeansOptions& options = {});

/// Index of the centroid nearest to `point` (ties: lowest index).
std::size_t nearest_centroid(const std::vector<Vector>& centroids,
                             const Vector& point);

/// Nearest centroid considering only the first `prefix_dims` dimensions —
/// used to classify a partially observed day.
std::size_t nearest_centroid_prefix(const std::vector<Vector>& centroids,
                                    const Vector& point, std::size_t prefix_dims);

}  // namespace integrade::lupa
