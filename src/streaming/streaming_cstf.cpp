#include "streaming/streaming_cstf.hpp"

#include <cmath>

#include "common/error.hpp"
#include "common/random.hpp"
#include "la/blas.hpp"
#include "la/elementwise.hpp"
#include "mttkrp/coo_mttkrp.hpp"

namespace cstf {

namespace {

AdmmOptions admm_options(const StreamingOptions& o) {
  AdmmOptions a;
  a.prox = o.prox;
  a.inner_iterations = o.admm_inner_iterations;
  return a;
}

// The temporal row is a single rank-sized system whose matrix (the Hadamard
// of all Grams) is often ill-conditioned for coherent non-negative factors;
// solve it to convergence — it costs O(R^2) per inner iteration.
AdmmOptions temporal_options(const StreamingOptions& o) {
  AdmmOptions a;
  a.prox = o.prox;
  a.inner_iterations = 200;
  a.tolerance = 1e-12;
  return a;
}

double slice_link_bytes(const SparseTensor& slice) {
  return static_cast<double>(slice.nnz()) *
         (static_cast<double>(slice.num_modes()) * sizeof(index_t) +
          sizeof(real_t));
}

}  // namespace

void slice_mttkrp(const SparseTensor& slice, const std::vector<Matrix>& factors,
                  const real_t* s_row, int mode, Matrix& out) {
  CSTF_CHECK(mode >= 0 && mode < slice.num_modes());
  CSTF_CHECK(static_cast<int>(factors.size()) == slice.num_modes());
  const index_t rank = out.cols();
  CSTF_CHECK(out.rows() == slice.dim(mode) && rank == factors[0].cols());
  // Each slice is a different nonzero set, so its sorted plan is built here
  // and used once.
  const ScatterPlan plan = coo_scatter_plan(slice, mode);
  const real_t* values = slice.values().data();
  const index_t* out_rows = slice.indices(mode).data();
  const RowGather gather(factors, mode);
  const index_t* coords[kMaxModes];
  for (int g = 0; g < gather.count; ++g) {
    coords[g] = slice.indices(gather.mode[g]).data();
  }
  with_gather_count(gather.count, [&](auto count) {
    constexpr int G = decltype(count)::value;
    scatter_accumulate(
        ScatterStrategy::kSorted, out, slice.nnz(),
        [&](index_t i, const auto& acc) {
          const auto at = static_cast<std::size_t>(i);
          const real_t v = values[at];
          gather.add<G>(acc(out_rows[at]), rank,
                        [v, s_row](index_t r) { return v * s_row[r]; },
                        [&](int g) { return coords[g][at]; });
        },
        &plan);
  });
}

StreamingCstf::StreamingCstf(std::vector<index_t> nontemporal_dims,
                             StreamingOptions options)
    : options_(options),
      dims_(std::move(nontemporal_dims)),
      device_(options.device),
      factor_update_(admm_options(options)),
      temporal_update_(temporal_options(options)) {
  CSTF_CHECK(!dims_.empty());
  CSTF_CHECK(options_.rank >= 1);
  CSTF_CHECK(options_.forgetting > 0.0 && options_.forgetting <= 1.0);
  Rng rng(options_.seed);
  const index_t rank = options_.rank;
  for (index_t dim : dims_) {
    Matrix f(dim, rank);
    f.fill_uniform(rng, 0.0, 1.0);
    Matrix g(rank, rank);
    la::gram(f, g);
    factors_.push_back(std::move(f));
    grams_.push_back(std::move(g));
    p_accum_.emplace_back(dim, rank);
    q_accum_.emplace_back(rank, rank);
  }
  states_.assign(dims_.size(), ModeState{});
}

std::vector<real_t> StreamingCstf::ingest(const SparseTensor& slice) {
  const int modes = static_cast<int>(dims_.size());
  CSTF_CHECK_MSG(!poisoned_,
                 "streaming: a previous ingest failed mid-update; the "
                 "accumulators are inconsistent — rebuild the StreamingCstf");
  CSTF_CHECK_MSG(slice.num_modes() == modes,
                 "slice has " << slice.num_modes() << " modes, expected "
                              << modes);
  for (int m = 0; m < modes; ++m) {
    CSTF_CHECK_MSG(slice.dim(m) == dims_[static_cast<std::size_t>(m)],
                   "slice mode " << m << " dimension mismatch");
  }

  try {
    return ingest_impl(slice);
  } catch (...) {
    poisoned_ = true;
    throw;
  }
}

std::vector<real_t> StreamingCstf::ingest_impl(const SparseTensor& slice) {
  const int modes = static_cast<int>(dims_.size());
  const index_t rank = options_.rank;

  // Temporal row RHS: c_r = sum_nnz x * prod_m H^m(i_m, r).
  Matrix c(1, rank);
  {
    std::vector<real_t> row(static_cast<std::size_t>(rank));
    for (index_t i = 0; i < slice.nnz(); ++i) {
      const real_t v = slice.values()[static_cast<std::size_t>(i)];
      for (index_t r = 0; r < rank; ++r) row[static_cast<std::size_t>(r)] = v;
      for (int m = 0; m < modes; ++m) {
        const Matrix& f = factors_[static_cast<std::size_t>(m)];
        const index_t idx = slice.indices(m)[static_cast<std::size_t>(i)];
        for (index_t r = 0; r < rank; ++r) {
          row[static_cast<std::size_t>(r)] *= f(idx, r);
        }
      }
      for (index_t r = 0; r < rank; ++r) {
        c(0, r) += row[static_cast<std::size_t>(r)];
      }
    }
    simgpu::KernelStats stats;
    stats.flops = static_cast<double>(slice.nnz() * rank * (modes + 1));
    stats.bytes_streamed = slice_link_bytes(slice);
    stats.bytes_random =
        static_cast<double>(slice.nnz() * rank * modes) * simgpu::kWord;
    stats.parallel_items = static_cast<double>(slice.nnz());
    device_.record("stream_slice_project", stats);
  }

  // Rank-sized constrained LS for the temporal row, then the pre-update
  // residual of the slice (online anomaly score) and s s^T for the Q folds.
  Matrix s_all(rank, rank);
  s_all.set_all(1.0);
  for (const Matrix& g : grams_) la::hadamard_inplace(s_all, g);
  Matrix s_row(1, rank);
  s_row.set_all(1.0 / static_cast<real_t>(rank));
  ModeState temporal_state;  // fresh duals: each time step is a new problem
  temporal_update_.update(device_, s_all, c, s_row, temporal_state);

  // ||X_t - model_t||^2 = ||X_t||^2 - 2 s.c + s S s^T.
  const real_t x_sq = slice.frobenius_norm_sq();
  real_t sc = 0.0, s_s_st = 0.0;
  for (index_t r = 0; r < rank; ++r) {
    sc += s_row(0, r) * c(0, r);
    for (index_t q = 0; q < rank; ++q) {
      s_s_st += s_row(0, r) * s_all(r, q) * s_row(0, q);
    }
  }
  const real_t residual_sq = std::max<real_t>(0.0, x_sq - 2.0 * sc + s_s_st);
  last_residual_ = x_sq > 0.0 ? std::sqrt(residual_sq / x_sq) : 0.0;

  Matrix ssT(rank, rank);
  for (index_t r = 0; r < rank; ++r) {
    for (index_t q = 0; q < rank; ++q) {
      ssT(r, q) = s_row(0, r) * s_row(0, q);
    }
  }

  for (int m = 0; m < modes; ++m) {
    const auto mi = static_cast<std::size_t>(m);
    Matrix b(dims_[mi], rank);
    slice_mttkrp(slice, factors_, s_row.data(), m, b);
    simgpu::KernelStats stats;
    stats.flops = static_cast<double>(slice.nnz() * rank * (modes + 2));
    stats.bytes_random =
        static_cast<double>(slice.nnz() * rank * (modes + 1)) * simgpu::kWord;
    stats.parallel_items = static_cast<double>(slice.nnz());
    apply_scatter_stats(stats, ScatterStrategy::kSorted, b.rows(), rank,
                        static_cast<double>(slice.nnz()));
    device_.record("stream_slice_mttkrp", stats);

    // Fold the slice into the exponentially aged accumulators:
    //   P^m <- mu P^m + B,   Q^m <- mu Q^m + (s s^T) .* prod_{k != m} G_k.
    const real_t mu = options_.forgetting;
    Matrix& p = p_accum_[mi];
    Matrix& q = q_accum_[mi];
    la::geam(la::Op::kNone, la::Op::kNone, mu, p, 1.0, b, p);
    Matrix q_inc(rank, rank);
    q_inc.set_all(1.0);
    for (int k = 0; k < modes; ++k) {
      if (k == m) continue;
      la::hadamard_inplace(q_inc, grams_[static_cast<std::size_t>(k)]);
    }
    la::hadamard_inplace(q_inc, ssT);
    la::geam(la::Op::kNone, la::Op::kNone, mu, q, 1.0, q_inc, q);

    factor_update_.update(device_, q, p, factors_[mi], states_[mi]);
    la::gram(factors_[mi], grams_[mi]);
  }

  // Append the temporal row.
  std::vector<real_t> out(static_cast<std::size_t>(rank));
  for (index_t r = 0; r < rank; ++r) {
    out[static_cast<std::size_t>(r)] = s_row(0, r);
  }
  temporal_rows_.push_back(out);
  return out;
}

Matrix StreamingCstf::temporal() const {
  Matrix t(static_cast<index_t>(temporal_rows_.size()), options_.rank);
  for (std::size_t i = 0; i < temporal_rows_.size(); ++i) {
    for (index_t r = 0; r < options_.rank; ++r) {
      t(static_cast<index_t>(i), r) = temporal_rows_[i][static_cast<std::size_t>(r)];
    }
  }
  return t;
}

KTensor StreamingCstf::ktensor() const {
  KTensor kt;
  kt.factors = factors_;
  kt.factors.push_back(temporal());
  kt.lambda.assign(static_cast<std::size_t>(options_.rank), 1.0);
  return kt;
}

}  // namespace cstf
