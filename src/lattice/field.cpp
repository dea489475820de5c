#include "lattice/field.h"

#include <cassert>
#include <cstring>

namespace qcdoc::lattice {

// --- DistField --------------------------------------------------------------

DistField::DistField(comms::Communicator* comm, const GlobalGeometry* geom,
                     int site_doubles, const std::string& label)
    : comm_(comm), geom_(geom), site_doubles_(site_doubles) {
  const int ranks = geom_->ranks();
  const auto& local = geom_->local();
  blocks_.resize(static_cast<std::size_t>(ranks));
  for (int r = 0; r < ranks; ++r) {
    auto& mem = comm_->machine().memory(comm_->node_of_rank(r));
    blocks_[static_cast<std::size_t>(r)] = mem.alloc(
        static_cast<u64>(local.volume()) * static_cast<u64>(site_doubles_),
        label);
  }
}

std::span<double> DistField::data(int rank) {
  return comm_->machine()
      .memory(comm_->node_of_rank(rank))
      .doubles(blocks_[static_cast<std::size_t>(rank)]);
}

std::span<const double> DistField::data(int rank) const {
  return const_cast<comms::Communicator*>(comm_)
      ->machine()
      .memory(comm_->node_of_rank(rank))
      .doubles(blocks_[static_cast<std::size_t>(rank)]);
}

double* DistField::site(int rank, int site_idx) {
  return data(rank).data() + static_cast<std::size_t>(site_idx) *
                                 static_cast<std::size_t>(site_doubles_);
}

const double* DistField::site(int rank, int site_idx) const {
  return data(rank).data() + static_cast<std::size_t>(site_idx) *
                                 static_cast<std::size_t>(site_doubles_);
}

memsys::Region DistField::body_region() const {
  return blocks_.empty() ? memsys::Region::kEdram : blocks_[0].region;
}

void DistField::zero() {
  for (int r = 0; r < ranks(); ++r) {
    auto d = data(r);
    std::memset(d.data(), 0, d.size_bytes());
  }
}

void DistField::round_to_storage() {
  if (precision_ == Precision::kDouble) return;
  for (int r = 0; r < ranks(); ++r) {
    quantize_in_place(data(r), precision_, quant_block_words());
  }
}

// --- HaloSet ----------------------------------------------------------------

HaloSet::HaloSet(comms::Communicator* comm, const GlobalGeometry* geom,
                 int halo_doubles, int halo_slabs_plus, int halo_slabs_minus,
                 const std::string& label)
    : comm_(comm),
      geom_(geom),
      halo_doubles_(halo_doubles),
      halo_slabs_{halo_slabs_plus, halo_slabs_minus} {
  const int ranks = geom_->ranks();
  const auto& local = geom_->local();
  storage_.resize(static_cast<std::size_t>(ranks));
  for (int r = 0; r < ranks; ++r) {
    auto& mem = comm_->machine().memory(comm_->node_of_rank(r));
    auto& st = storage_[static_cast<std::size_t>(r)];
    for (int mu = 0; mu < kNd; ++mu) {
      for (int d = 0; d < 2; ++d) {
        const int slabs = halo_slabs_[static_cast<std::size_t>(d)];
        if (slabs == 0) continue;
        const u64 words = static_cast<u64>(local.face_volume(mu)) *
                          static_cast<u64>(halo_doubles_) *
                          static_cast<u64>(slabs);
        st.send[static_cast<std::size_t>(mu)][static_cast<std::size_t>(d)] =
            mem.alloc(words, label + ".send");
        st.recv[static_cast<std::size_t>(mu)][static_cast<std::size_t>(d)] =
            mem.alloc(words, label + ".recv");
      }
    }
  }
}

std::span<double> HaloSet::send_buf(int rank, int mu, int dir) {
  auto& st = storage_[static_cast<std::size_t>(rank)];
  const auto& block = st.send[static_cast<std::size_t>(mu)][dir > 0 ? 0u : 1u];
  return comm_->machine().memory(comm_->node_of_rank(rank)).doubles(block);
}

std::span<double> HaloSet::recv_buf(int rank, int mu, int dir) {
  auto& st = storage_[static_cast<std::size_t>(rank)];
  const auto& block = st.recv[static_cast<std::size_t>(mu)][dir > 0 ? 0u : 1u];
  return comm_->machine().memory(comm_->node_of_rank(rank)).doubles(block);
}

std::span<const double> HaloSet::recv_buf(int rank, int mu, int dir) const {
  return const_cast<HaloSet*>(this)->recv_buf(rank, mu, dir);
}

void HaloSet::post_shift(int mu) {
  const int ranks_n = geom_->ranks();
  if (!dim_is_distributed(mu)) {
    // One node spans this dimension: the "halo" is this node's own opposite
    // face.  The run kernel performs a local copy (no SCU involvement); its
    // cost is part of the pack phase in the kernel profiles.
    for (int r = 0; r < ranks_n; ++r) {
      for (int d : {+1, -1}) {
        if (halo_slabs(d) == 0) continue;
        auto src = send_buf(r, mu, d);
        auto dst = recv_buf(r, mu, d);
        std::memcpy(dst.data(), src.data(), src.size_bytes());
      }
    }
    return;
  }
  const auto desc = [](const memsys::Block& b) {
    scu::DmaDescriptor d;
    d.base_word = b.word_addr;
    d.block_words = static_cast<u32>(b.words);
    d.num_blocks = 1;
    return d;
  };
  // send_buf(mu,+1) carries the low face and travels -mu into the
  // neighbour's recv_buf(mu,+1); send_buf(mu,-1) carries the high face and
  // travels +mu into recv_buf(mu,-1).
  for (int d = 0; d < 2; ++d) {
    if (halo_slabs_[static_cast<std::size_t>(d)] == 0) continue;
    std::vector<scu::DmaDescriptor> sends(static_cast<std::size_t>(ranks_n));
    std::vector<scu::DmaDescriptor> recvs(static_cast<std::size_t>(ranks_n));
    for (int r = 0; r < ranks_n; ++r) {
      const auto ri = static_cast<std::size_t>(r);
      const auto m = static_cast<std::size_t>(mu);
      sends[ri] = desc(storage_[ri].send[m][static_cast<std::size_t>(d)]);
      recvs[ri] = desc(storage_[ri].recv[m][static_cast<std::size_t>(d)]);
    }
    comm_->post_shift(mu, d == 0 ? torus::Dir::kMinus : torus::Dir::kPlus,
                      sends, recvs);
  }
}

void HaloSet::post_all_shifts() {
  for (int mu = 0; mu < kNd; ++mu) post_shift(mu);
}

// --- serialization ---------------------------------------------------------

void store_su3(double* p, const Su3Matrix& u) {
  for (int i = 0; i < 9; ++i) {
    p[2 * i] = u.m[static_cast<std::size_t>(i)].real();
    p[2 * i + 1] = u.m[static_cast<std::size_t>(i)].imag();
  }
}

Su3Matrix load_su3(const double* p) {
  Su3Matrix u;
  for (int i = 0; i < 9; ++i) {
    u.m[static_cast<std::size_t>(i)] = Complex(p[2 * i], p[2 * i + 1]);
  }
  return u;
}

void store_spinor(double* p, const Spinor& s) {
  for (int sp = 0; sp < kSpins; ++sp) {
    for (int c = 0; c < 3; ++c) {
      const int k = 2 * (3 * sp + c);
      p[k] = s[sp][c].real();
      p[k + 1] = s[sp][c].imag();
    }
  }
}

Spinor load_spinor(const double* p) {
  Spinor s;
  for (int sp = 0; sp < kSpins; ++sp) {
    for (int c = 0; c < 3; ++c) {
      const int k = 2 * (3 * sp + c);
      s[sp][c] = Complex(p[k], p[k + 1]);
    }
  }
  return s;
}

void store_half_spinor(double* p, const HalfSpinor& h) {
  for (int sp = 0; sp < 2; ++sp) {
    for (int c = 0; c < 3; ++c) {
      const int k = 2 * (3 * sp + c);
      p[k] = h[sp][c].real();
      p[k + 1] = h[sp][c].imag();
    }
  }
}

HalfSpinor load_half_spinor(const double* p) {
  HalfSpinor h;
  for (int sp = 0; sp < 2; ++sp) {
    for (int c = 0; c < 3; ++c) {
      const int k = 2 * (3 * sp + c);
      h[sp][c] = Complex(p[k], p[k + 1]);
    }
  }
  return h;
}

void store_color_vector(double* p, const ColorVector& v) {
  for (int c = 0; c < 3; ++c) {
    p[2 * c] = v[c].real();
    p[2 * c + 1] = v[c].imag();
  }
}

ColorVector load_color_vector(const double* p) {
  ColorVector v;
  for (int c = 0; c < 3; ++c) v[c] = Complex(p[2 * c], p[2 * c + 1]);
  return v;
}

}  // namespace qcdoc::lattice
