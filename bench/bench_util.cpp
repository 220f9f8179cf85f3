#include "bench_util.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <tuple>

#include "common/env.hpp"
#include "common/error.hpp"
#include "common/timer.hpp"
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

namespace {

double& phase_seconds(ModeledIteration& it, const std::string& phase) {
  if (phase == phase::kGram) return it.gram;
  if (phase == phase::kMttkrp) return it.mttkrp;
  if (phase == phase::kUpdate) return it.update;
  CSTF_CHECK_MSG(phase == phase::kNormalize,
                 "record outside the four AO phases: '" << phase << "'");
  return it.normalize;
}

/// One Auntf iteration on a traced `spec` device, modeled at full scale and
/// added to the JSON session as a record labelled `dataset`.
ModeledIteration trainer_iteration(const std::string& dataset,
                                   const MttkrpBackend& backend,
                                   const UpdateMethod& update,
                                   const simgpu::DeviceSpec& spec,
                                   index_t rank,
                                   const std::vector<double>& mode_scales,
                                   double nnz_scale, ModeledIteration* wall,
                                   std::vector<ModeledIteration>* per_mode) {
  CSTF_CHECK(static_cast<int>(mode_scales.size()) == backend.num_modes());
  simgpu::Device dev(spec);
  simgpu::Tracer tracer;
  dev.set_tracer(&tracer);
  AuntfOptions options;
  options.rank = rank;
  options.max_iterations = 1;
  options.seed = 7;
  options.compute_fit = false;
  Auntf driver(dev, backend, update, options);
  driver.initialize();
  driver.iterate();

  // Sum each (mode, phase, kernel)'s records in issue order, as a Device
  // does. A record's phase is the first component of its path (the
  // row-tiled cuADMM pass nests "UPDATE/admm_row_tiles"). The trainer opens
  // every mode with a GRAM-phase gram_hadamard, so that record starts the
  // next mode; the mode's own Gram recompute, issued after its NORMALIZE,
  // stays with it.
  std::map<std::tuple<int, std::string, std::string>, simgpu::KernelStats>
      sums;
  int mode = -1;
  for (const simgpu::TraceSpan& span : tracer.spans()) {
    const std::string phase = span.phase.substr(0, span.phase.find('/'));
    if (phase == phase::kGram && span.kernel == "gram_hadamard") ++mode;
    CSTF_CHECK_MSG(mode >= 0, "record '" << span.kernel
                                         << "' before mode 0's Hadamard");
    sums[{mode, phase, span.kernel}] += span.stats;
  }
  CSTF_CHECK(mode + 1 == backend.num_modes());

  // Model each sum once at full scale: MTTKRP by the nonzero count, every
  // other phase by its mode's length.
  std::vector<ModeledIteration> modes(
      static_cast<std::size_t>(backend.num_modes()));
  for (const auto& [key, stats] : sums) {
    const auto& [n, phase, kernel] = key;
    const auto m = static_cast<std::size_t>(n);
    const double scale = phase == phase::kMttkrp ? nnz_scale : mode_scales[m];
    phase_seconds(modes[m], phase) +=
        simgpu::model_time(simgpu::scale_stats(stats, scale), spec).total_s;
  }
  ModeledIteration out;
  for (const ModeledIteration& m : modes) out += m;
  if (per_mode) *per_mode = std::move(modes);

  const PhaseTimer& timer = driver.phases();
  const ModeledIteration wall_s{
      timer.total(phase::kGram), timer.total(phase::kMttkrp),
      timer.total(phase::kUpdate), timer.total(phase::kNormalize)};
  if (wall) *wall += wall_s;
  if (JsonSession* session = JsonSession::current()) {
    BenchRecord rec;
    rec.dataset = dataset;
    rec.machine = spec.name;
    rec.rank = rank;
    rec.phases = out;
    rec.wall = wall_s;
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

}  // namespace

ModeledIteration modeled_iteration(const MttkrpBackend& backend,
                                   const UpdateMethod& update,
                                   const simgpu::DeviceSpec& spec,
                                   index_t rank,
                                   const std::vector<double>& mode_scales,
                                   double nnz_scale, ModeledIteration* wall,
                                   std::vector<ModeledIteration>* per_mode) {
  return trainer_iteration("synthetic", backend, update, spec, rank,
                           mode_scales, nnz_scale, wall, per_mode);
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
  return trainer_iteration(data.spec.name, backend, update, spec, rank,
                           mode_scales, data.nnz_scale(), wall, per_mode);
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

ModeledIteration gpu_iteration(const DatasetAnalog& data,
                               const simgpu::DeviceSpec& gpu_spec,
                               UpdateScheme scheme, index_t rank,
                               MttkrpMode engine, ModeledIteration* wall,
                               std::vector<ModeledIteration>* per_mode) {
  CSTF_CHECK_MSG(engine != MttkrpMode::kAuto,
                 "gpu_iteration wants an explicit engine; resolve kAuto "
                 "with full_scale_mttkrp_mode first");
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
