#include "lupa/kmeans.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

namespace integrade::lupa {

double squared_distance(const Vector& a, const Vector& b) {
  assert(a.size() == b.size());
  double sum = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double d = a[i] - b[i];
    sum += d * d;
  }
  return sum;
}

std::vector<double> Clustering::weights() const {
  std::vector<double> w(centroids.size(), 0.0);
  for (std::size_t c : assignment) w[c] += 1.0;
  const double n = static_cast<double>(assignment.size());
  if (n > 0) {
    for (double& x : w) x /= n;
  }
  return w;
}

namespace {

/// Lloyd iterations per restart, at most.
constexpr int kMaxIterations = 100;

/// k-means++ seeding: first centroid uniform, then each next proportional
/// to squared distance from the nearest chosen centroid.
std::vector<Vector> seed_plus_plus(const std::vector<Vector>& points,
                                   std::size_t k, Rng& rng) {
  std::vector<Vector> centroids;
  centroids.reserve(k);
  centroids.push_back(
      points[static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(points.size()) - 1))]);

  std::vector<double> dist2(points.size(), 0.0);
  while (centroids.size() < k) {
    double total = 0.0;
    for (std::size_t i = 0; i < points.size(); ++i) {
      double best = std::numeric_limits<double>::max();
      for (const auto& c : centroids) {
        best = std::min(best, squared_distance(points[i], c));
      }
      dist2[i] = best;
      total += best;
    }
    std::size_t chosen;
    if (total <= 0.0) {
      // All points coincide with chosen centroids; fall back to uniform.
      chosen = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(points.size()) - 1));
    } else {
      chosen = rng.weighted_index(dist2);
    }
    centroids.push_back(points[chosen]);
  }
  return centroids;
}

Clustering lloyd(const std::vector<Vector>& points, std::vector<Vector> centroids) {
  const std::size_t n = points.size();
  const std::size_t k = centroids.size();
  const std::size_t dims = points.front().size();

  Clustering result;
  result.assignment.assign(n, 0);

  for (int iter = 0; iter < kMaxIterations; ++iter) {
    bool moved = false;
    // Assign.
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t nearest = nearest_centroid(centroids, points[i]);
      if (nearest != result.assignment[i]) {
        result.assignment[i] = nearest;
        moved = true;
      }
    }
    result.iterations = iter + 1;
    if (!moved && iter > 0) break;

    // Update.
    std::vector<Vector> sums(k, Vector(dims, 0.0));
    std::vector<std::size_t> counts(k, 0);
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t c = result.assignment[i];
      ++counts[c];
      for (std::size_t d = 0; d < dims; ++d) sums[c][d] += points[i][d];
    }
    for (std::size_t c = 0; c < k; ++c) {
      if (counts[c] == 0) continue;  // empty cluster keeps its old centroid
      for (std::size_t d = 0; d < dims; ++d) {
        centroids[c][d] = sums[c][d] / static_cast<double>(counts[c]);
      }
    }
  }

  result.centroids = std::move(centroids);
  result.distortion = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    result.distortion +=
        squared_distance(points[i], result.centroids[result.assignment[i]]);
  }
  return result;
}

}  // namespace

std::size_t nearest_centroid(const std::vector<Vector>& centroids,
                             const Vector& point) {
  std::size_t best = 0;
  double best_d = std::numeric_limits<double>::max();
  for (std::size_t c = 0; c < centroids.size(); ++c) {
    const double d = squared_distance(point, centroids[c]);
    if (d < best_d) {
      best_d = d;
      best = c;
    }
  }
  return best;
}

std::size_t nearest_centroid_prefix(const std::vector<Vector>& centroids,
                                    const Vector& point,
                                    std::size_t prefix_dims) {
  std::size_t best = 0;
  double best_d = std::numeric_limits<double>::max();
  for (std::size_t c = 0; c < centroids.size(); ++c) {
    double d = 0.0;
    const std::size_t dims = std::min({prefix_dims, point.size(), centroids[c].size()});
    for (std::size_t i = 0; i < dims; ++i) {
      const double diff = point[i] - centroids[c][i];
      d += diff * diff;
    }
    if (d < best_d) {
      best_d = d;
      best = c;
    }
  }
  return best;
}

Clustering kmeans(const std::vector<Vector>& points, std::size_t k, Rng& rng,
                  const KMeansOptions& options) {
  assert(!points.empty());
  assert(k >= 1 && k <= points.size());

  Clustering best;
  best.distortion = std::numeric_limits<double>::max();
  for (int r = 0; r < std::max(1, options.restarts); ++r) {
    Clustering attempt = lloyd(points, seed_plus_plus(points, k, rng));
    if (attempt.distortion < best.distortion) best = std::move(attempt);
  }
  return best;
}

Clustering kmeans_select_k(const std::vector<Vector>& points, std::size_t max_k,
                           Rng& rng, double penalty,
                           const KMeansOptions& options) {
  assert(!points.empty());
  const std::size_t n = points.size();
  const std::size_t dims = points.front().size();
  max_k = std::min(max_k, n);

  Clustering best;
  double best_score = std::numeric_limits<double>::max();
  for (std::size_t k = 1; k <= max_k; ++k) {
    Clustering c = kmeans(points, k, rng, options);
    const double nd = static_cast<double>(n * dims);
    const double avg = c.distortion / nd + 1e-9;
    const double score = nd * std::log(avg) +
                         penalty * static_cast<double>(k) *
                             static_cast<double>(dims) *
                             std::log(static_cast<double>(n));
    if (score < best_score) {
      best_score = score;
      best = std::move(c);
    }
  }
  return best;
}

}  // namespace integrade::lupa
