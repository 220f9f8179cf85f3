#include "streaming/streaming_cstf.hpp"

#include <cmath>

#include "common/digest.hpp"
#include "common/error.hpp"
#include "common/random.hpp"
#include "la/blas.hpp"
#include "la/elementwise.hpp"
#include "simgpu/dblas.hpp"

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

// Weighted slice MTTKRP: out(i_m, :) += x * s .* prod_{k != m} H^k(i_k, :),
// where s is the slice's temporal row — the streaming analogue of the batch
// MTTKRP with the time factor contracted to a single row.
void slice_mttkrp(const SparseTensor& slice, const std::vector<Matrix>& factors,
                  const real_t* s_row, int mode, Matrix& out) {
  const int modes = slice.num_modes();
  const index_t rank = out.cols();
  out.set_all(0.0);
  std::vector<real_t> row(static_cast<std::size_t>(rank));
  for (index_t i = 0; i < slice.nnz(); ++i) {
    const real_t v = slice.values()[static_cast<std::size_t>(i)];
    for (index_t r = 0; r < rank; ++r) {
      row[static_cast<std::size_t>(r)] = v * s_row[r];
    }
    for (int m = 0; m < modes; ++m) {
      if (m == mode) continue;
      const Matrix& f = factors[static_cast<std::size_t>(m)];
      const index_t idx = slice.indices(m)[static_cast<std::size_t>(i)];
      for (index_t r = 0; r < rank; ++r) {
        row[static_cast<std::size_t>(r)] *= f(idx, r);
      }
    }
    const index_t out_row = slice.indices(mode)[static_cast<std::size_t>(i)];
    for (index_t r = 0; r < rank; ++r) {
      out(out_row, r) += row[static_cast<std::size_t>(r)];
    }
  }
}

double slice_link_bytes(const SparseTensor& slice) {
  return static_cast<double>(slice.nnz()) *
         (static_cast<double>(slice.num_modes()) * sizeof(index_t) +
          sizeof(real_t));
}

}  // namespace

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

  // Every slice is a different tensor: scatter plans cached for the previous
  // slice are stale (wrong permutation, wrong length). Invalidate before any
  // mode can consult the cache. (The compiled *execution* plan, by contrast,
  // is content-independent — it is keyed on the slice's nnz and reused while
  // the shape of the work stays the same.)
  plans_.clear();

  try {
    return ingest_impl(slice);
  } catch (...) {
    poisoned_ = true;
    throw;
  }
}

exec::PlanKey StreamingCstf::ingest_plan_key(const SparseTensor& slice) const {
  // The op bodies read the slice through the workspace, so the plan depends
  // only on the work's shape: nonzero count (span costs), dimensions, rank,
  // and the options that add/remove or re-route ops.
  DigestBuilder tensor_id;
  tensor_id.u64(static_cast<std::uint64_t>(slice.nnz()));
  for (index_t d : dims_) tensor_id.u64(static_cast<std::uint64_t>(d));
  DigestBuilder opts;
  opts.boolean(options_.model_staging).boolean(options_.use_scatter_engine);
  exec::PlanKey key;
  key.tensor_id = tensor_id.value();
  key.rank = static_cast<std::uint64_t>(options_.rank);
  key.options_digest = opts.value();
  return key;
}

exec::Plan StreamingCstf::compile_ingest_plan(const SparseTensor& shape_slice) {
  StreamingCstf* self = this;
  const int modes = static_cast<int>(dims_.size());
  const index_t rank = options_.rank;

  exec::StreamingIngestSpec spec;
  spec.num_modes = modes;
  spec.rank = rank;
  spec.staging = options_.model_staging;
  spec.slice_bytes = slice_link_bytes(shape_slice);
  spec.mode_rows = dims_;

  if (options_.model_staging) {
    // Host-link transfer of the arriving slice on the copy lane. The plan's
    // stage op carries wait_external, so the executor first waits this lane
    // on the compute-done event of the slice whose buffer is being reused.
    spec.stage = [self](exec::ExecContext& ctx) {
      simgpu::KernelStats stage;
      stage.host_link_bytes = slice_link_bytes(*self->ws_.slice);
      stage.launches = 1;
      ctx.device.record("stream_stage_slice", stage, 0.0, ctx.stream);
    };
  }

  // Temporal row RHS: c_r = sum_nnz x * prod_m H^m(i_m, r).
  spec.temporal_project = [self, modes, rank](exec::ExecContext& ctx) {
    const SparseTensor& slice = *self->ws_.slice;
    Matrix& c = self->ws_.c;
    c.resize(1, rank);
    c.set_all(0.0);
    std::vector<real_t> row(static_cast<std::size_t>(rank));
    for (index_t i = 0; i < slice.nnz(); ++i) {
      const real_t v = slice.values()[static_cast<std::size_t>(i)];
      for (index_t r = 0; r < rank; ++r) row[static_cast<std::size_t>(r)] = v;
      for (int m = 0; m < modes; ++m) {
        const Matrix& f = self->factors_[static_cast<std::size_t>(m)];
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
    ctx.device.record("stream_slice_project", stats, 0.0, ctx.stream);
  };

  // Rank-sized constrained LS for the temporal row, then the pre-update
  // residual of the slice (online anomaly score) and s s^T for the Q folds.
  spec.temporal_solve = [self, rank](exec::ExecContext& ctx) {
    Matrix& s_all = self->ws_.s_all;
    s_all.resize(rank, rank);
    s_all.set_all(1.0);
    for (const Matrix& g : self->grams_) la::hadamard_inplace(s_all, g);

    Matrix& s_row = self->ws_.s_row;
    s_row.resize(1, rank);
    s_row.set_all(1.0 / static_cast<real_t>(rank));
    ModeState temporal_state;  // fresh duals: each time step is a new problem
    self->temporal_update_.update(ctx.device, s_all, self->ws_.c, s_row,
                                  temporal_state);

    // ||X_t - model_t||^2 = ||X_t||^2 - 2 s.c + s S s^T.
    const real_t x_sq = self->ws_.slice->frobenius_norm_sq();
    real_t sc = 0.0, s_s_st = 0.0;
    for (index_t r = 0; r < rank; ++r) {
      sc += s_row(0, r) * self->ws_.c(0, r);
      for (index_t q = 0; q < rank; ++q) {
        s_s_st += s_row(0, r) * s_all(r, q) * s_row(0, q);
      }
    }
    const real_t residual_sq = std::max<real_t>(0.0, x_sq - 2.0 * sc + s_s_st);
    self->last_residual_ = x_sq > 0.0 ? std::sqrt(residual_sq / x_sq) : 0.0;

    Matrix& ssT = self->ws_.ssT;
    ssT.resize(rank, rank);
    for (index_t r = 0; r < rank; ++r) {
      for (index_t q = 0; q < rank; ++q) {
        ssT(r, q) = s_row(0, r) * s_row(0, q);
      }
    }
  };

  // Weighted slice MTTKRP for one mode (scatter engine or serial reference).
  spec.mode_mttkrp = [self, modes, rank](exec::ExecContext& ctx, int m) {
    const SparseTensor& slice = *self->ws_.slice;
    const Matrix& p = self->p_accum_[static_cast<std::size_t>(m)];
    Matrix& b = self->ws_.b;
    if (!b.same_shape(p)) b.resize(p.rows(), p.cols());
    if (self->options_.use_scatter_engine) {
      // Sorted only: its per-row order is the serial reference's, so slice
      // results are bit-identical to it and to each other at any worker
      // count (privatized would regroup the sums by worker-count tiles).
      const ScatterPlan& plan = self->plans_.get(m, [&] {
        return build_scatter_plan(slice.nnz(), [&](index_t i) {
          return slice.indices(m)[static_cast<std::size_t>(i)];
        });
      });
      scatter_accumulate(
          ScatterStrategy::kSorted, b, slice.nnz(),
          [&](index_t i, real_t* row) {
            const real_t v = slice.values()[static_cast<std::size_t>(i)];
            for (index_t r = 0; r < rank; ++r) {
              row[static_cast<std::size_t>(r)] = v * self->ws_.s_row(0, r);
            }
            for (int k = 0; k < modes; ++k) {
              if (k == m) continue;
              const Matrix& f = self->factors_[static_cast<std::size_t>(k)];
              const index_t idx =
                  slice.indices(k)[static_cast<std::size_t>(i)];
              for (index_t r = 0; r < rank; ++r) {
                row[static_cast<std::size_t>(r)] *= f(idx, r);
              }
            }
            return slice.indices(m)[static_cast<std::size_t>(i)];
          },
          &plan);
    } else {
      slice_mttkrp(slice, self->factors_, self->ws_.s_row.data(), m, b);
    }
    simgpu::KernelStats stats;
    stats.flops = static_cast<double>(slice.nnz() * rank * (modes + 2));
    stats.bytes_random =
        static_cast<double>(slice.nnz() * rank * (modes + 1)) * simgpu::kWord;
    stats.parallel_items = static_cast<double>(slice.nnz());
    if (self->options_.use_scatter_engine) {
      apply_scatter_stats(stats, ScatterStrategy::kSorted, b.rows(), rank,
                          static_cast<double>(slice.nnz()));
    }
    ctx.device.record("stream_slice_mttkrp", stats, 0.0, ctx.stream);
  };

  // Fold the slice into the exponentially aged accumulators:
  //   P^m <- mu P^m + B,   Q^m <- mu Q^m + (s s^T) .* prod_{k != m} G_k.
  spec.mode_fold = [self, modes, rank](exec::ExecContext&, int m) {
    const auto mi = static_cast<std::size_t>(m);
    const real_t mu = self->options_.forgetting;
    Matrix& p = self->p_accum_[mi];
    Matrix& q = self->q_accum_[mi];
    la::geam(la::Op::kNone, la::Op::kNone, mu, p, 1.0, self->ws_.b, p);
    Matrix q_inc(rank, rank);
    q_inc.set_all(1.0);
    for (int k = 0; k < modes; ++k) {
      if (k == m) continue;
      la::hadamard_inplace(q_inc, self->grams_[static_cast<std::size_t>(k)]);
    }
    la::hadamard_inplace(q_inc, self->ws_.ssT);
    la::geam(la::Op::kNone, la::Op::kNone, mu, q, 1.0, q_inc, q);
  };

  spec.mode_update = [self](exec::ExecContext& ctx, int m) {
    const auto mi = static_cast<std::size_t>(m);
    self->factor_update_.update(ctx.device, self->q_accum_[mi],
                                self->p_accum_[mi], self->factors_[mi],
                                self->states_[mi]);
  };

  spec.mode_gram = [self](exec::ExecContext&, int m) {
    const auto mi = static_cast<std::size_t>(m);
    la::gram(self->factors_[mi], self->grams_[mi]);
  };

  return exec::Planner::compile_streaming_ingest(spec);
}

void StreamingCstf::ensure_executor(const SparseTensor& slice) {
  std::shared_ptr<const exec::Plan> plan = exec_plans_.get(
      ingest_plan_key(slice), [&] { return compile_ingest_plan(slice); });
  if (executor_ == nullptr || &executor_->plan() != plan.get()) {
    executor_ = std::make_unique<exec::Executor>(device_, std::move(plan));
  }
}

std::vector<real_t> StreamingCstf::ingest_impl(const SparseTensor& slice) {
  const index_t rank = options_.rank;
  ensure_executor(slice);
  ws_.slice = &slice;

  // With staging, the plan's stage op double-buffers against the compute of
  // slice t-2: its transfer waits on prev_prev_done_ (the executor's external
  // event), and everything downstream waits on the transfer via the plan's
  // stage -> project event edge.
  executor_->run(/*observer=*/nullptr,
                 options_.model_staging ? &prev_prev_done_ : nullptr);

  if (options_.model_staging) {
    prev_prev_done_ = prev_done_;
    prev_done_ = device_.record_event();
  }

  // Append the temporal row.
  std::vector<real_t> out(static_cast<std::size_t>(rank));
  for (index_t r = 0; r < rank; ++r) {
    out[static_cast<std::size_t>(r)] = ws_.s_row(0, r);
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
