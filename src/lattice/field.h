// Distributed lattice fields and halo communication buffers.
//
// A DistField owns one storage block per partition rank, allocated in that
// node's simulated memory (EDRAM first, spilling to DDR -- which is what
// drives the paper's volume/efficiency cliff).
//
// Halo buffers live in a separate HaloSet owned by each Dirac operator and
// shared across all the vectors it is applied to, exactly as the real run
// kernels kept one set of SCU communication buffers per operator: Krylov
// solvers hold many vectors, but only the operand of the current Dslash
// needs faces in flight.  Halo exchanges run as real SCU DMA transfers
// through the packet-level network simulation.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "comms/comms.h"
#include "lattice/gamma.h"
#include "lattice/layout.h"
#include "lattice/precision.h"
#include "machine/bsp.h"

namespace qcdoc::lattice {

/// Per-rank body storage of a distributed field.
class DistField {
 public:
  DistField(comms::Communicator* comm, const GlobalGeometry* geom,
            int site_doubles, const std::string& label);

  const GlobalGeometry& geometry() const { return *geom_; }
  comms::Communicator& comm() const { return *comm_; }
  int ranks() const { return geom_->ranks(); }
  int site_doubles() const { return site_doubles_; }

  std::span<double> data(int rank);
  std::span<const double> data(int rank) const;
  double* site(int rank, int site_idx);
  const double* site(int rank, int site_idx) const;

  /// Whether this field's body lives in EDRAM on every node (determines the
  /// memory-region term of the kernel profiles).
  memsys::Region body_region() const;

  /// The rank's underlying allocation (node + word address range).  Fault
  /// campaigns use this to aim memory upsets at a specific field's storage.
  const memsys::Block& block(int rank) const {
    return blocks_[static_cast<std::size_t>(rank)];
  }

  /// Zero the body on all ranks.
  void zero();

  /// Storage precision of the body.  Values are always held as host doubles;
  /// a narrower precision means every store through FieldOps rounds the
  /// written words to the representable set (float, or 16-bit block float
  /// per site block) and the timing model charges the narrow traffic.
  Precision precision() const { return precision_; }
  void set_precision(Precision p) { precision_ = p; }

  /// Round the body on every rank to the storage precision, as the narrow
  /// store path would: the FieldOps streams and the twisted-mass term end
  /// with this.  A no-op for double fields.
  void round_to_storage();

  /// Block size of the half-precision codec for this field: one site block
  /// (capped so deep fifth-dimension fields still share per-spinor-slice
  /// exponents rather than one exponent per 5-D column).
  int quant_block_words() const {
    return site_doubles_ <= 2 * kDoublesPerSpinor ? site_doubles_
                                                  : kDoublesPerSpinor;
  }

 private:
  comms::Communicator* comm_;
  const GlobalGeometry* geom_;
  int site_doubles_;
  Precision precision_ = Precision::kDouble;
  std::vector<memsys::Block> blocks_;
};

/// Send/receive face buffers for one operator, with the posting logic that
/// turns them into SCU DMA transfers over the partition.
///
/// Buffer direction indices name the HALO SIDE they serve: recv_buf(mu,+1)
/// holds data from the +mu neighbour (its low face); send_buf(mu,+1) is this
/// node's own low face (x_mu = 0..slabs-1), which fills the -mu neighbour's
/// recv_buf(mu,+1).  Slab `l` of a buffer corresponds to
/// face_layer_sites(mu, dir, l).
class HaloSet {
 public:
  /// `halo_doubles` per face site per slab; per-side slab counts support
  /// asymmetric halos (ASQTAD: 3 plain forward slabs, 4 pre-multiplied
  /// backward slabs).
  HaloSet(comms::Communicator* comm, const GlobalGeometry* geom,
          int halo_doubles, int halo_slabs_plus, int halo_slabs_minus,
          const std::string& label);

  int halo_doubles() const { return halo_doubles_; }
  int halo_slabs(int dir = +1) const {
    return halo_slabs_[dir > 0 ? 0 : 1];
  }

  std::span<double> send_buf(int rank, int mu, int dir);
  std::span<double> recv_buf(int rank, int mu, int dir);
  std::span<const double> recv_buf(int rank, int mu, int dir) const;

  /// Post the halo shifts for dimension mu in both directions.  The caller
  /// packs send buffers first and drains afterwards (machine::BspRunner).
  /// Dimensions spanned by a single node become local copies.
  void post_shift(int mu);
  void post_all_shifts();
  bool dim_is_distributed(int mu) const {
    return geom_->nodes_in_dim(mu) > 1;
  }

 private:
  struct RankStorage {
    // [mu][dir(0:+,1:-)]
    std::array<std::array<memsys::Block, 2>, kNd> send;
    std::array<std::array<memsys::Block, 2>, kNd> recv;
  };

  comms::Communicator* comm_;
  const GlobalGeometry* geom_;
  int halo_doubles_;
  std::array<int, 2> halo_slabs_;
  std::vector<RankStorage> storage_;
};

// --- serialization between math types and field storage --------------------

void store_su3(double* p, const Su3Matrix& u);
Su3Matrix load_su3(const double* p);
void store_spinor(double* p, const Spinor& s);
Spinor load_spinor(const double* p);
void store_half_spinor(double* p, const HalfSpinor& h);
HalfSpinor load_half_spinor(const double* p);
void store_color_vector(double* p, const ColorVector& v);
ColorVector load_color_vector(const double* p);

}  // namespace qcdoc::lattice
