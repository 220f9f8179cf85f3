#include "bench_util.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/env.hpp"
#include "common/error.hpp"
#include "common/timer.hpp"
#include "la/blas.hpp"
#include "la/elementwise.hpp"
#include "simgpu/dblas.hpp"
#include "tensor/io.hpp"

namespace cstf::bench {

namespace {

JsonSession* g_session = nullptr;

bool bench_json_enabled() {
  const std::string flag = env_string("CSTF_BENCH_JSON", "");
  if (!flag.empty() && flag != "0") return true;
  return !env_string("CSTF_BENCH_JSON_DIR", "").empty();
}

void append_phase(std::ostringstream& os, const char* name, double modeled,
                  double wall, bool last = false) {
  os << '"' << name << "\":{\"modeled_s\":" << simgpu::json::number(modeled)
     << ",\"wall_s\":" << simgpu::json::number(wall) << '}'
     << (last ? "" : ",");
}

}  // namespace

JsonSession::JsonSession(std::string bench_name)
    : name_(std::move(bench_name)), enabled_(bench_json_enabled()) {
  CSTF_CHECK_MSG(g_session == nullptr, "only one JsonSession may be active");
  g_session = this;
}

JsonSession::~JsonSession() {
  try {
    write();
  } catch (...) {
    // A failed telemetry write must not take the bench down.
  }
  g_session = nullptr;
}

JsonSession* JsonSession::current() { return g_session; }

std::string JsonSession::output_path() const {
  const std::string dir = env_string("CSTF_BENCH_JSON_DIR", ".");
  return dir + "/BENCH_" + name_ + ".json";
}

void JsonSession::add_record(BenchRecord record) {
  records_.push_back(std::move(record));
}

void JsonSession::annotate_last(const std::string& key, double value) {
  if (records_.empty()) return;
  records_.back().extras.emplace_back(key, value);
}

void JsonSession::set_dataset_context(std::string dataset) {
  dataset_context_ = std::move(dataset);
}

std::string JsonSession::take_dataset_context() {
  std::string out;
  std::swap(out, dataset_context_);
  return out;
}

std::string JsonSession::to_json() const {
  std::ostringstream os;
  os << "{\"bench\":\"" << simgpu::json::escape(name_)
     << "\",\"schema_version\":1,\"records\":[";
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const BenchRecord& r = records_[i];
    if (i > 0) os << ',';
    os << "{\"dataset\":\"" << simgpu::json::escape(r.dataset)
       << "\",\"machine\":\"" << simgpu::json::escape(r.machine)
       << "\",\"rank\":" << r.rank << ",\"phases\":{";
    append_phase(os, phase::kGram, r.phases.gram, r.wall.gram);
    append_phase(os, phase::kMttkrp, r.phases.mttkrp, r.wall.mttkrp);
    append_phase(os, phase::kUpdate, r.phases.update, r.wall.update);
    append_phase(os, phase::kNormalize, r.phases.normalize, r.wall.normalize,
                 /*last=*/true);
    os << "},\"total_modeled_s\":" << simgpu::json::number(r.phases.total())
       << ",\"kernels\":[";
    for (std::size_t k = 0; k < r.kernels.size(); ++k) {
      const BenchKernelRow& row = r.kernels[k];
      if (k > 0) os << ',';
      os << "{\"name\":\"" << simgpu::json::escape(row.name)
         << "\",\"spans\":" << row.spans << ",\"launches\":" << row.launches
         << ",\"flops\":" << simgpu::json::number(row.flops)
         << ",\"bytes\":" << simgpu::json::number(row.bytes)
         << ",\"modeled_s\":" << simgpu::json::number(row.modeled_s)
         << ",\"wall_s\":" << simgpu::json::number(row.wall_s) << '}';
    }
    os << "]";
    if (!r.extras.empty()) {
      os << ",\"extra\":{";
      for (std::size_t e = 0; e < r.extras.size(); ++e) {
        if (e > 0) os << ',';
        os << '"' << simgpu::json::escape(r.extras[e].first)
           << "\":" << simgpu::json::number(r.extras[e].second);
      }
      os << '}';
    }
    os << "}";
  }
  os << "]}";
  return os.str();
}

std::string JsonSession::write() {
  if (!enabled_ || written_) return "";
  const std::string path = output_path();
  std::ofstream out(path);
  CSTF_CHECK_MSG(out.good(), "cannot write bench JSON " << path);
  out << to_json() << '\n';
  out.close();
  written_ = true;
  std::fprintf(stderr, "[bench] wrote %s (%zu record%s)\n", path.c_str(),
               records_.size(), records_.size() == 1 ? "" : "s");
  return path;
}

DatasetAnalog load_dataset(const std::string& name) {
  const DatasetSpec& spec = dataset_by_name(name);
  const std::string dir = env_string("CSTF_DATA_DIR", "");
  if (!dir.empty()) {
    const std::string path = dir + "/" + name + ".tns";
    std::ifstream probe(path);
    if (probe.good()) {
      probe.close();
      DatasetAnalog full{spec, read_tns_file(path)};
      return full;  // dim_scale/nnz_scale ~ 1 for the real tensor
    }
  }
  return make_analog(spec, default_analog_nnz());
}

ModeledIteration modeled_iteration(const DatasetAnalog& data,
                                   const MttkrpBackend& backend,
                                   const UpdateMethod& update,
                                   const simgpu::DeviceSpec& spec,
                                   index_t rank, ModeledIteration* wall,
                                   std::vector<ModeledIteration>* per_mode) {
  std::vector<double> mode_scales;
  for (int m = 0; m < backend.num_modes(); ++m) {
    mode_scales.push_back(data.dim_scale(m));
  }
  if (JsonSession::current() != nullptr) {
    JsonSession::current()->set_dataset_context(data.spec.name);
  }
  return modeled_iteration(backend, update, spec, rank, mode_scales,
                           data.nnz_scale(), wall, per_mode);
}

double overlapped_total(const std::vector<ModeledIteration>& per_mode) {
  // t is when Normalize_{n-1} ends. Gram_n starts there on its own lane,
  // MTTKRP_n on the main one; the update waits for both.
  double t = 0.0;
  for (const ModeledIteration& m : per_mode) {
    t = std::max(t + m.gram, t + m.mttkrp) + m.update + m.normalize;
  }
  return t;
}

ModeledIteration modeled_iteration(const MttkrpBackend& backend,
                                   const UpdateMethod& update,
                                   const simgpu::DeviceSpec& spec,
                                   index_t rank,
                                   const std::vector<double>& mode_scales,
                                   double nnz_scale, ModeledIteration* wall,
                                   std::vector<ModeledIteration>* per_mode) {
  const int modes = backend.num_modes();
  if (per_mode) per_mode->assign(static_cast<std::size_t>(modes), {});
  simgpu::Device dev(spec);
  // The tracer survives the per-phase dev.reset() calls, so its per-kernel
  // aggregates cover the whole iteration for the telemetry record.
  simgpu::Tracer tracer;
  dev.set_tracer(&tracer);

  // Factors + cached grams, as the driver holds them.
  Rng rng(7);
  std::vector<Matrix> factors;
  std::vector<Matrix> grams;
  std::vector<ModeState> states(static_cast<std::size_t>(modes));
  for (int m = 0; m < modes; ++m) {
    Matrix f(backend.dim(m), rank);
    f.fill_uniform(rng, 0.0, 1.0);
    Matrix g(rank, rank);
    la::gram(f, g);
    factors.push_back(std::move(f));
    grams.push_back(std::move(g));
  }

  ModeledIteration out;
  ModeledIteration wall_local;  // always measured, so telemetry has wall times
  Matrix s(rank, rank), m_out;
  std::vector<real_t> lambda(static_cast<std::size_t>(rank), 1.0);

  for (int n = 0; n < modes; ++n) {
    Matrix& h = factors[static_cast<std::size_t>(n)];
    const double mode_scale = mode_scales[static_cast<std::size_t>(n)];

    // --- GRAM: Hadamard of cached grams (R^2, negligible but metered) plus
    // the post-update dsyrk of this mode's factor.
    dev.reset();
    Timer t_gram;
    tracer.begin_phase(phase::kGram);
    s.set_all(1.0);
    for (int m = 0; m < modes; ++m) {
      if (m != n) la::hadamard_inplace(s, grams[static_cast<std::size_t>(m)]);
    }
    simgpu::dsyrk_gram(dev, h, grams[static_cast<std::size_t>(n)]);
    {
      const double dt = perfmodel::modeled_time_scaled(dev, mode_scale);
      out.gram += dt;
      if (per_mode) (*per_mode)[static_cast<std::size_t>(n)].gram += dt;
    }
    wall_local.gram += t_gram.seconds();
    tracer.end_phase();

    // --- MTTKRP.
    dev.reset();
    Timer t_mttkrp;
    tracer.begin_phase(phase::kMttkrp);
    if (!m_out.same_shape(h)) m_out.resize(h.rows(), h.cols());
    backend.mttkrp(dev, factors, n, m_out);
    {
      const double dt = perfmodel::modeled_time_scaled(dev, nnz_scale);
      out.mttkrp += dt;
      if (per_mode) (*per_mode)[static_cast<std::size_t>(n)].mttkrp += dt;
    }
    wall_local.mttkrp += t_mttkrp.seconds();
    tracer.end_phase();

    // --- UPDATE.
    dev.reset();
    Timer t_update;
    tracer.begin_phase(phase::kUpdate);
    update.update(dev, s, m_out, h, states[static_cast<std::size_t>(n)]);
    {
      const double dt = perfmodel::modeled_time_scaled(dev, mode_scale);
      out.update += dt;
      if (per_mode) (*per_mode)[static_cast<std::size_t>(n)].update += dt;
    }
    wall_local.update += t_update.seconds();
    tracer.end_phase();

    // --- NORMALIZE (column 2-norms absorbed into lambda).
    dev.reset();
    Timer t_norm;
    tracer.begin_phase(phase::kNormalize);
    {
      simgpu::KernelStats stats;
      stats.flops = 3.0 * static_cast<double>(h.size());
      stats.bytes_streamed = 2.0 * static_cast<double>(h.size()) * simgpu::kWord;
      stats.parallel_items = static_cast<double>(h.cols());
      stats.launches = 2;
      dev.record("normalize", stats);
    }
    la::column_norms(h, lambda.data());
    la::scale_columns_inv(h, lambda.data());
    {
      const double dt = perfmodel::modeled_time_scaled(dev, mode_scale);
      out.normalize += dt;
      if (per_mode) (*per_mode)[static_cast<std::size_t>(n)].normalize += dt;
    }
    wall_local.normalize += t_norm.seconds();
    tracer.end_phase();
  }
  if (wall) {
    wall->gram += wall_local.gram;
    wall->mttkrp += wall_local.mttkrp;
    wall->update += wall_local.update;
    wall->normalize += wall_local.normalize;
  }
  if (JsonSession* session = JsonSession::current()) {
    BenchRecord rec;
    rec.dataset = session->take_dataset_context();
    if (rec.dataset.empty()) rec.dataset = "synthetic";
    rec.machine = spec.name;
    rec.rank = rank;
    rec.phases = out;
    rec.wall = wall_local;
    for (const auto& [kernel, agg] : tracer.per_kernel()) {
      BenchKernelRow row;
      row.name = kernel;
      row.spans = agg.spans;
      row.launches = agg.stats.launches;
      row.flops = agg.stats.flops;
      row.bytes = agg.stats.total_bytes();
      row.modeled_s = agg.modeled_s;
      row.wall_s = agg.wall_s;
      rec.kernels.push_back(std::move(row));
    }
    session->add_record(std::move(rec));
  }
  return out;
}

ModeledIteration gpu_iteration(const DatasetAnalog& data,
                               const simgpu::DeviceSpec& gpu_spec,
                               UpdateScheme scheme, index_t rank,
                               std::vector<ModeledIteration>* per_mode) {
  BlcoBackend backend(data.tensor);
  auto update = CstfFramework::make_update(scheme, Proximity::non_negative(),
                                           /*admm_inner_iterations=*/10);
  return modeled_iteration(data, backend, *update, gpu_spec, rank,
                           /*wall=*/nullptr, per_mode);
}

ModeledIteration gpu_iteration_mttkrp(const DatasetAnalog& data,
                                      const simgpu::DeviceSpec& gpu_spec,
                                      UpdateScheme scheme, index_t rank,
                                      MttkrpMode engine, ModeledIteration* wall,
                                      std::vector<ModeledIteration>* per_mode) {
  CSTF_CHECK_MSG(engine != MttkrpMode::kAuto,
                 "gpu_iteration_mttkrp wants an explicit engine; resolve "
                 "kAuto with full_scale_mttkrp_mode first");
  BlcoBackend backend(data.tensor);
  if (engine == MttkrpMode::kDimtree) backend.enable_dimtree(data.tensor, rank);
  auto update = CstfFramework::make_update(scheme, Proximity::non_negative(),
                                           /*admm_inner_iterations=*/10);
  return modeled_iteration(data, backend, *update, gpu_spec, rank, wall,
                           per_mode);
}

MttkrpMode full_scale_mttkrp_mode(const DatasetAnalog& data,
                                  const simgpu::DeviceSpec& gpu_spec,
                                  index_t rank) {
  const BlcoBackend backend(data.tensor);
  return resolve_mttkrp_mode(data.tensor, rank, ScatterOptions{}, gpu_spec,
                             kDefaultDimtreeBudgetBytes,
                             backend.tensor().storage_bytes(),
                             data.nnz_scale());
}

ModeledIteration splatt_iteration(const DatasetAnalog& data, index_t rank) {
  CsfBackend backend(data.tensor);
  BlockAdmmOptions opt;
  opt.prox = Proximity::non_negative();
  opt.inner_iterations = 10;
  BlockAdmmUpdate update(opt);
  return modeled_iteration(data, backend, update, simgpu::xeon_8367hc(), rank);
}

ModeledIteration planc_sparse_iteration(const DatasetAnalog& data,
                                        UpdateScheme scheme, index_t rank) {
  AltoBackend backend(data.tensor);
  auto update = CstfFramework::make_update(scheme, Proximity::non_negative(),
                                           /*admm_inner_iterations=*/10);
  return modeled_iteration(data, backend, *update, simgpu::xeon_8367hc(), rank);
}

double geomean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double log_sum = 0.0;
  for (double v : values) log_sum += std::log(v);
  return std::exp(log_sum / static_cast<double>(values.size()));
}

void print_header(const std::vector<std::string>& columns, int width) {
  for (std::size_t i = 0; i < columns.size(); ++i) {
    std::printf("%-*s", i == 0 ? 14 : width, columns[i].c_str());
  }
  std::printf("\n");
  print_rule(columns.size(), width);
}

void print_row(const std::string& label, const std::vector<double>& values,
               int width, int precision) {
  std::printf("%-14s", label.c_str());
  for (double v : values) std::printf("%-*.*f", width, precision, v);
  std::printf("\n");
}

void print_rule(std::size_t columns, int width) {
  const std::size_t total = 14 + (columns > 0 ? columns - 1 : 0) * static_cast<std::size_t>(width);
  for (std::size_t i = 0; i < total; ++i) std::printf("-");
  std::printf("\n");
}

const std::vector<std::string>& dataset_names() {
  static const std::vector<std::string> names = {
      "NIPS", "Uber", "Chicago", "Vast", "Enron",
      "NELL2", "Flickr", "Delicious", "NELL1", "Amazon"};
  return names;
}

}  // namespace cstf::bench
