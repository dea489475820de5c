// Lattice geometry: the 4-D space-time grid, its decomposition onto the
// machine partition, site indexing, boundary faces and halo layout.
//
// Each node owns an identical local volume (paper: "no load balancing is
// needed beyond the initial trivial mapping of the physics coordinate grid
// to the machine mesh"); a 4-D machine partition assigns each processor a
// space-time hypercube.  Halo buffers hold `depth` face layers per
// direction, supporting nearest-neighbour operators (depth 1) and the
// improved ASQTAD action's third-nearest-neighbour Naik term (depth 3).
#pragma once

#include <array>
#include <span>
#include <vector>

#include "torus/partition.h"

namespace qcdoc::lattice {

inline constexpr int kNd = 4;  ///< space-time dimensions

using Coord4 = std::array<int, kNd>;

/// Geometry of one node's local volume.
///
/// The nearest-neighbour table, the face-layer site lists and the per-site
/// parity are built once at construction, so the per-site queries the
/// Dirac kernels and the even-odd masks make are table reads.
class LocalGeometry {
 public:
  explicit LocalGeometry(Coord4 extent);

  const Coord4& extent() const { return extent_; }
  int volume() const { return volume_; }
  int face_volume(int mu) const { return volume_ / extent_[static_cast<std::size_t>(mu)]; }

  int index(const Coord4& x) const;
  Coord4 coords(int idx) const;

  /// Lexicographic index over the coordinates transverse to `mu` (the
  /// canonical face-buffer ordering).
  int transverse_index(const Coord4& x, int mu) const;

  /// Neighbour of site `idx` at distance `dist` along mu in direction
  /// dir = +-1.  `local` is false when the neighbour is off-node; then
  /// `index` addresses the halo buffer: layer * face_volume + transverse.
  struct Neighbor {
    bool local = true;
    int index = 0;
  };
  Neighbor neighbor(int idx, int mu, int dir, int dist = 1) const {
    if (dist != 1) return neighbor_by_coords(idx, mu, dir, dist);
    const int n = hops_[hop_slot(idx, mu, dir)];
    return n >= 0 ? Neighbor{true, n} : Neighbor{false, ~n};
  }

  /// Local sites in layer `layer` (distance from the `dir` boundary) of the
  /// `mu` face, ordered by transverse index: the canonical packing order.
  std::span<const int> face_layer_sites(int mu, int dir, int layer) const;

  /// Parity of the local coordinates, (x0 + x1 + x2 + x3) & 1.
  int parity(int idx) const {
    return site_parity_[static_cast<std::size_t>(idx)];
  }

 private:
  static std::size_t hop_slot(int idx, int mu, int dir) {
    return (static_cast<std::size_t>(idx) * kNd +
            static_cast<std::size_t>(mu)) * 2 + (dir > 0 ? 0u : 1u);
  }
  /// The coordinate walk behind neighbor(): serves the distance-1 table
  /// at construction and the deeper (Naik) hops directly.
  Neighbor neighbor_by_coords(int idx, int mu, int dir, int dist) const;

  Coord4 extent_;
  int volume_ = 1;
  /// Distance-1 neighbours by hop_slot: the local index, or ~halo slot
  /// when the neighbour is off-node.
  std::vector<int> hops_;
  /// Per mu, the local sites ordered by (x_mu, transverse index): layer
  /// x_mu of the mu face is one contiguous run of face_volume(mu) sites.
  std::array<std::vector<int>, kNd> faces_;
  std::vector<unsigned char> site_parity_;
};

/// The global problem: a 4-D lattice distributed over a 4-D logical machine
/// partition (extra logical dims must have extent 1).
class GlobalGeometry {
 public:
  GlobalGeometry(const torus::Partition* partition, Coord4 global_extent);

  const torus::Partition& partition() const { return *partition_; }
  const Coord4& global_extent() const { return global_extent_; }
  const LocalGeometry& local() const { return local_; }
  int ranks() const { return partition_->num_nodes(); }
  /// Nodes along lattice dimension mu.
  int nodes_in_dim(int mu) const {
    return partition_->logical_shape().extent[mu];
  }

  /// Global coordinate of a local site on a rank.
  Coord4 global_coords(int rank, int local_idx) const;
  /// Site parity (even/odd) from global coordinates.
  int parity(int rank, int local_idx) const {
    return local_.parity(local_idx) ^
           rank_parity_[static_cast<std::size_t>(rank)];
  }
  /// Kogut-Susskind phase eta_mu at a site.
  double staggered_phase(int rank, int local_idx, int mu) const;
  /// (rank, local index) owning a global coordinate (periodic).
  std::pair<int, int> owner(const Coord4& global) const;

 private:
  const torus::Partition* partition_;
  Coord4 global_extent_;
  LocalGeometry local_;
  /// Parity of each rank's origin: a site's global parity is its local
  /// parity flipped by its rank's.
  std::vector<unsigned char> rank_parity_;
};

}  // namespace qcdoc::lattice
