#include "lattice/linalg.h"

#include <cassert>

#include "comms/global_sum.h"

namespace qcdoc::lattice {

PrecisionTraffic& PrecisionTraffic::operator+=(const PrecisionTraffic& o) {
  flops += o.flops;
  load_bytes += o.load_bytes;
  store_bytes += o.store_bytes;
  edram_bytes += o.edram_bytes;
  ddr_bytes += o.ddr_bytes;
  return *this;
}

PrecisionTraffic PrecisionTraffic::operator-(const PrecisionTraffic& o) const {
  PrecisionTraffic d;
  d.flops = flops - o.flops;
  d.load_bytes = load_bytes - o.load_bytes;
  d.store_bytes = store_bytes - o.store_bytes;
  d.edram_bytes = edram_bytes - o.edram_bytes;
  d.ddr_bytes = ddr_bytes - o.ddr_bytes;
  return d;
}

TrafficByPrecision operator-(const TrafficByPrecision& a,
                             const TrafficByPrecision& b) {
  TrafficByPrecision d;
  for (int i = 0; i < kNumPrecisions; ++i) {
    d[static_cast<std::size_t>(i)] = a[static_cast<std::size_t>(i)] -
                                     b[static_cast<std::size_t>(i)];
  }
  return d;
}

double total_bytes(const TrafficByPrecision& t) {
  double s = 0;
  for (const auto& p : t) s += p.bytes();
  return s;
}

double total_flops(const TrafficByPrecision& t) {
  double s = 0;
  for (const auto& p : t) s += p.flops;
  return s;
}

cpu::KernelProfile FieldOps::stream_profile(
    std::initializer_list<const DistField*> reads, const DistField* write,
    double fmadd_per_double, double other_per_double) {
  const DistField* ref = reads.size() > 0 ? *reads.begin() : write;
  const double n = static_cast<double>(ref->geometry().local().volume()) *
                   ref->site_doubles();
  cpu::KernelProfile p;
  p.name = "blas";
  p.fmadd_flops = fmadd_per_double * n;
  p.other_flops = other_per_double * n;
  double load_width = 0;
  for (const DistField* f : reads) load_width += bytes_per_double(f->precision());
  p.load_bytes = n * load_width;
  p.store_bytes = write != nullptr ? n * bytes_per_double(write->precision())
                                   : 0.0;
  const double traffic = p.load_bytes + p.store_bytes;
  const bool edram = ref->body_region() == memsys::Region::kEdram;
  if (edram) {
    p.edram_bytes = traffic;
  } else {
    p.ddr_bytes = traffic;
  }
  p.streams = static_cast<int>(reads.size()) + (write != nullptr ? 1 : 0);
  p.overhead_cycles = 32;  // loop setup

  // Ledger: each operand's bytes go to its own precision bucket; the flops
  // count as work at the narrowest operand precision (the "sloppy" grade of
  // the whole pass).
  Precision narrowest = Precision::kDouble;
  const auto widen = [&narrowest](const DistField* f) {
    if (precision_index(f->precision()) > precision_index(narrowest)) {
      narrowest = f->precision();
    }
  };
  for (const DistField* f : reads) widen(f);
  if (write != nullptr) widen(write);
  traffic_[static_cast<std::size_t>(precision_index(narrowest))].flops +=
      p.flops();
  const auto credit_bytes = [&](const DistField* f, double bytes, bool load) {
    auto& t = traffic_[static_cast<std::size_t>(precision_index(f->precision()))];
    (load ? t.load_bytes : t.store_bytes) += bytes;
    (edram ? t.edram_bytes : t.ddr_bytes) += bytes;
  };
  for (const DistField* f : reads) {
    credit_bytes(f, n * bytes_per_double(f->precision()), /*load=*/true);
  }
  if (write != nullptr) credit_bytes(write, p.store_bytes, /*load=*/false);

  flops_ += p.flops();
  return p;
}

void FieldOps::account_kernel(const cpu::KernelProfile& per_node, int ranks,
                              Precision p) {
  const double k = static_cast<double>(ranks);
  const double f = per_node.flops() * k;
  flops_ += f;
  auto& t = traffic_[static_cast<std::size_t>(precision_index(p))];
  t.flops += f;
  t.load_bytes += per_node.load_bytes * k;
  t.store_bytes += per_node.store_bytes * k;
  t.edram_bytes += per_node.edram_bytes * k;
  t.ddr_bytes += per_node.ddr_bytes * k;
}

void FieldOps::axpy(double a, const DistField& x, DistField& y) {
  assert(x.site_doubles() == y.site_doubles());
  for (int r = 0; r < x.ranks(); ++r) {
    auto xs = x.data(r);
    auto ys = y.data(r);
    for (std::size_t i = 0; i < xs.size(); ++i) ys[i] += a * xs[i];
  }
  y.round_to_storage();
  const auto p = stream_profile({&x, &y}, &y, /*fmadd=*/2.0, /*other=*/0.0);
  bsp_->compute(cpu_->kernel_cycles(p));
}

void FieldOps::xpay(const DistField& x, double a, DistField& y) {
  assert(x.site_doubles() == y.site_doubles());
  for (int r = 0; r < x.ranks(); ++r) {
    auto xs = x.data(r);
    auto ys = y.data(r);
    for (std::size_t i = 0; i < xs.size(); ++i) ys[i] = xs[i] + a * ys[i];
  }
  y.round_to_storage();
  const auto p = stream_profile({&x, &y}, &y, 2.0, 0.0);
  bsp_->compute(cpu_->kernel_cycles(p));
}

void FieldOps::axpby(double a, const DistField& x, double b, DistField& y) {
  assert(x.site_doubles() == y.site_doubles());
  for (int r = 0; r < x.ranks(); ++r) {
    auto xs = x.data(r);
    auto ys = y.data(r);
    for (std::size_t i = 0; i < xs.size(); ++i) ys[i] = a * xs[i] + b * ys[i];
  }
  y.round_to_storage();
  const auto p = stream_profile({&x, &y}, &y, 2.0, 1.0);
  bsp_->compute(cpu_->kernel_cycles(p));
}

void FieldOps::scale_copy(double a, const DistField& x, DistField& y) {
  assert(x.site_doubles() == y.site_doubles());
  for (int r = 0; r < x.ranks(); ++r) {
    auto xs = x.data(r);
    auto ys = y.data(r);
    for (std::size_t i = 0; i < xs.size(); ++i) ys[i] = a * xs[i];
  }
  y.round_to_storage();
  const auto p = stream_profile({&x}, &y, 0.0, 1.0);
  bsp_->compute(cpu_->kernel_cycles(p));
}

void FieldOps::copy(const DistField& x, DistField& y) {
  assert(x.site_doubles() == y.site_doubles());
  for (int r = 0; r < x.ranks(); ++r) {
    auto xs = x.data(r);
    auto ys = y.data(r);
    for (std::size_t i = 0; i < xs.size(); ++i) ys[i] = xs[i];
  }
  y.round_to_storage();
  const auto p = stream_profile({&x}, &y, 0.0, 0.0);
  bsp_->compute(cpu_->kernel_cycles(p));
}

void FieldOps::zero(DistField& y) {
  y.zero();
  const auto p = stream_profile({}, &y, 0.0, 0.0);
  bsp_->compute(cpu_->kernel_cycles(p));
}

double FieldOps::global_sum(double local_flops, std::vector<double> partials) {
  flops_ += local_flops * static_cast<double>(partials.size());
  const auto result = comm_->global_sum(partials);
  bsp_->global_op(result.cycles);
  return result.value;
}

double FieldOps::norm2(const DistField& x) {
  std::vector<double> partials(static_cast<std::size_t>(x.ranks()), 0.0);
  for (int r = 0; r < x.ranks(); ++r) {
    auto xs = x.data(r);
    double s = 0;
    for (double v : xs) s += v * v;
    partials[static_cast<std::size_t>(r)] = s;
  }
  const auto p = stream_profile({&x}, nullptr, 2.0, 0.0);
  bsp_->compute(cpu_->kernel_cycles(p));
  return global_sum(0.0, std::move(partials));
}

Complex FieldOps::cdot(const DistField& x, const DistField& y) {
  assert(x.site_doubles() == y.site_doubles());
  std::vector<double> re(static_cast<std::size_t>(x.ranks()), 0.0);
  std::vector<double> im(static_cast<std::size_t>(x.ranks()), 0.0);
  for (int r = 0; r < x.ranks(); ++r) {
    auto xs = x.data(r);
    auto ys = y.data(r);
    double sr = 0, si = 0;
    for (std::size_t i = 0; i + 1 < xs.size(); i += 2) {
      // conj(x) * y = (xr - i xi)(yr + i yi)
      sr += xs[i] * ys[i] + xs[i + 1] * ys[i + 1];
      si += xs[i] * ys[i + 1] - xs[i + 1] * ys[i];
    }
    re[static_cast<std::size_t>(r)] = sr;
    im[static_cast<std::size_t>(r)] = si;
  }
  const auto p = stream_profile({&x, &y}, nullptr, 4.0, 0.0);
  bsp_->compute(cpu_->kernel_cycles(p));
  // Both words ride the same dimension-wise ring passes, pipelined.
  const double sum_re = comms::partition_global_sum(comm_->partition(), re);
  const double sum_im = comms::partition_global_sum(comm_->partition(), im);
  bsp_->global_op(comms::partition_global_sum_cycles(
      comm_->partition(), scu::GlobalOpTiming{}, /*doubled=*/true,
      /*words=*/2));
  return Complex(sum_re, sum_im);
}

void FieldOps::caxpy(const Complex& a, const DistField& x, DistField& y) {
  assert(x.site_doubles() == y.site_doubles());
  for (int r = 0; r < x.ranks(); ++r) {
    auto xs = x.data(r);
    auto ys = y.data(r);
    for (std::size_t i = 0; i + 1 < xs.size(); i += 2) {
      ys[i] += a.real() * xs[i] - a.imag() * xs[i + 1];
      ys[i + 1] += a.real() * xs[i + 1] + a.imag() * xs[i];
    }
  }
  y.round_to_storage();
  const auto p = stream_profile({&x, &y}, &y, 4.0, 0.0);
  bsp_->compute(cpu_->kernel_cycles(p));
}

void FieldOps::cxpay(const DistField& x, const Complex& a, DistField& y) {
  assert(x.site_doubles() == y.site_doubles());
  for (int r = 0; r < x.ranks(); ++r) {
    auto xs = x.data(r);
    auto ys = y.data(r);
    for (std::size_t i = 0; i + 1 < xs.size(); i += 2) {
      const double yr = ys[i];
      const double yi = ys[i + 1];
      ys[i] = xs[i] + a.real() * yr - a.imag() * yi;
      ys[i + 1] = xs[i + 1] + a.real() * yi + a.imag() * yr;
    }
  }
  y.round_to_storage();
  const auto p = stream_profile({&x, &y}, &y, 4.0, 0.0);
  bsp_->compute(cpu_->kernel_cycles(p));
}

double FieldOps::dot_re(const DistField& x, const DistField& y) {
  assert(x.site_doubles() == y.site_doubles());
  std::vector<double> partials(static_cast<std::size_t>(x.ranks()), 0.0);
  for (int r = 0; r < x.ranks(); ++r) {
    auto xs = x.data(r);
    auto ys = y.data(r);
    double s = 0;
    for (std::size_t i = 0; i < xs.size(); ++i) s += xs[i] * ys[i];
    partials[static_cast<std::size_t>(r)] = s;
  }
  const auto p = stream_profile({&x, &y}, nullptr, 2.0, 0.0);
  bsp_->compute(cpu_->kernel_cycles(p));
  return global_sum(0.0, std::move(partials));
}

}  // namespace qcdoc::lattice
