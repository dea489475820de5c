#include "lattice/layout.h"

#include <cassert>

namespace qcdoc::lattice {

LocalGeometry::LocalGeometry(Coord4 extent) : extent_(extent) {
  volume_ = 1;
  for (int e : extent_) {
    assert(e >= 1);
    volume_ *= e;
  }
  const auto v = static_cast<std::size_t>(volume_);
  hops_.resize(v * kNd * 2);
  site_parity_.resize(v);
  for (auto& f : faces_) f.resize(v);
  for (int idx = 0; idx < volume_; ++idx) {
    const Coord4 x = coords(idx);
    site_parity_[static_cast<std::size_t>(idx)] =
        static_cast<unsigned char>((x[0] + x[1] + x[2] + x[3]) & 1);
    for (int mu = 0; mu < kNd; ++mu) {
      const auto m = static_cast<std::size_t>(mu);
      faces_[m][static_cast<std::size_t>(x[m] * face_volume(mu) +
                                         transverse_index(x, mu))] = idx;
      for (int dir : {+1, -1}) {
        const Neighbor n = neighbor_by_coords(idx, mu, dir, 1);
        hops_[hop_slot(idx, mu, dir)] = n.local ? n.index : ~n.index;
      }
    }
  }
}

int LocalGeometry::index(const Coord4& x) const {
  int idx = 0;
  for (int mu = kNd - 1; mu >= 0; --mu) {
    const auto m = static_cast<std::size_t>(mu);
    assert(x[m] >= 0 && x[m] < extent_[m]);
    idx = idx * extent_[m] + x[m];
  }
  return idx;
}

Coord4 LocalGeometry::coords(int idx) const {
  Coord4 x;
  for (int mu = 0; mu < kNd; ++mu) {
    const auto m = static_cast<std::size_t>(mu);
    x[m] = idx % extent_[m];
    idx /= extent_[m];
  }
  return x;
}

int LocalGeometry::transverse_index(const Coord4& x, int mu) const {
  int idx = 0;
  for (int nu = kNd - 1; nu >= 0; --nu) {
    if (nu == mu) continue;
    const auto n = static_cast<std::size_t>(nu);
    idx = idx * extent_[n] + x[n];
  }
  return idx;
}

LocalGeometry::Neighbor LocalGeometry::neighbor_by_coords(int idx, int mu,
                                                         int dir,
                                                         int dist) const {
  assert(dir == 1 || dir == -1);
  assert(dist >= 1);
  const auto m = static_cast<std::size_t>(mu);
  Coord4 x = coords(idx);
  const int target = x[m] + dir * dist;
  Neighbor n;
  if (target >= 0 && target < extent_[m]) {
    x[m] = target;
    n.local = true;
    n.index = index(x);
    return n;
  }
  // Off-node: halo layer counts distance past the boundary, starting at 0.
  assert(dist <= extent_[m] && "halo deeper than the neighbouring node");
  const int layer = dir > 0 ? target - extent_[m] : -target - 1;
  assert(layer >= 0 && layer < extent_[m]);
  n.local = false;
  n.index = layer * face_volume(mu) + transverse_index(x, mu);
  return n;
}

std::span<const int> LocalGeometry::face_layer_sites(int mu, int dir,
                                                     int layer) const {
  // For dir = +1 the receiving neighbour's +mu halo layer `l` holds our
  // sites with x_mu = l (our low face); for dir = -1, x_mu = extent-1-l.
  const auto m = static_cast<std::size_t>(mu);
  assert(layer >= 0 && layer < extent_[m]);
  const int x_mu = dir > 0 ? layer : extent_[m] - 1 - layer;
  const auto f = static_cast<std::size_t>(face_volume(mu));
  return std::span<const int>(faces_[m]).subspan(
      static_cast<std::size_t>(x_mu) * f, f);
}

namespace {

Coord4 local_extent_of(const torus::Partition& partition,
                       const Coord4& global_extent) {
  Coord4 local_extent;
  for (int mu = 0; mu < kNd; ++mu) {
    const auto m = static_cast<std::size_t>(mu);
    const int nodes = partition.logical_shape().extent[mu];
    assert(global_extent[m] % nodes == 0 &&
           "global lattice must divide evenly over the partition");
    local_extent[m] = global_extent[m] / nodes;
  }
  // QCD uses at most the first four logical dims; any extra must be trivial.
  for (int l = kNd; l < partition.logical_dims(); ++l) {
    assert(partition.logical_shape().extent[l] == 1);
  }
  return local_extent;
}

}  // namespace

GlobalGeometry::GlobalGeometry(const torus::Partition* partition,
                               Coord4 global_extent)
    : partition_(partition),
      global_extent_(global_extent),
      local_(local_extent_of(*partition, global_extent)) {
  rank_parity_.resize(static_cast<std::size_t>(ranks()));
  for (int r = 0; r < ranks(); ++r) {
    const Coord4 origin = global_coords(r, 0);
    rank_parity_[static_cast<std::size_t>(r)] = static_cast<unsigned char>(
        (origin[0] + origin[1] + origin[2] + origin[3]) & 1);
  }
}

Coord4 GlobalGeometry::global_coords(int rank, int local_idx) const {
  const torus::Coord lc = partition_->logical_coord(rank);
  const Coord4 x = local_.coords(local_idx);
  Coord4 g;
  for (int mu = 0; mu < kNd; ++mu) {
    const auto m = static_cast<std::size_t>(mu);
    g[m] = lc.c[mu] * local_.extent()[m] + x[m];
  }
  return g;
}

double GlobalGeometry::staggered_phase(int rank, int local_idx, int mu) const {
  const Coord4 g = global_coords(rank, local_idx);
  int sum = 0;
  for (int nu = 0; nu < mu; ++nu) sum += g[static_cast<std::size_t>(nu)];
  return (sum & 1) ? -1.0 : 1.0;
}

std::pair<int, int> GlobalGeometry::owner(const Coord4& global) const {
  torus::Coord lc;
  Coord4 x;
  for (int mu = 0; mu < kNd; ++mu) {
    const auto m = static_cast<std::size_t>(mu);
    const int g =
        ((global[m] % global_extent_[m]) + global_extent_[m]) % global_extent_[m];
    lc.c[mu] = g / local_.extent()[m];
    x[m] = g % local_.extent()[m];
  }
  return {partition_->rank(lc), local_.index(x)};
}

}  // namespace qcdoc::lattice
