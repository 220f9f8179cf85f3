// Shared bench harness: dataset loading, per-phase modeled timing at full
// dataset scale, table formatting, and machine-readable JSON telemetry.
//
// Modeled-time methodology (see DESIGN.md §2): a bench runs one iteration of
// the trainer itself, an `Auntf` over the bench's backend and update on a
// traced device of the target machine's spec, so every kernel executes for
// real on the host and meters its flops/bytes. The traced records are summed
// per (mode, phase, kernel) and each sum is scaled to the full-size dataset
// once — MTTKRP-phase records by nnz_scale, every other phase by its mode's
// dim_scale — and fed to the roofline cost model. Mode attribution: the
// trainer opens each mode with a GRAM-phase `gram_hadamard` record, so each
// such record starts the next mode, and a record's phase is the first
// component of its trace phase path. Host wall-clock times per phase come
// from the trainer's PhaseTimer. If CSTF_DATA_DIR is set and contains
// "<Name>.tns" (FROSTT format), the real tensor is loaded instead of the
// synthetic analog and all scale factors are 1.
//
// JSON telemetry (see DESIGN.md §6): every bench main opens a JsonSession
// named after the binary. When CSTF_BENCH_JSON is set (non-empty, != "0") or
// CSTF_BENCH_JSON_DIR names a directory, the session writes
// BENCH_<name>.json on destruction; each modeled_iteration() call adds one
// record automatically. Schema (version 1):
//
//   {"bench": "<name>", "schema_version": 1, "records": [
//      {"dataset": "...", "machine": "...", "rank": R,
//       "phases": {"GRAM":      {"modeled_s": g, "wall_s": gw},
//                  "MTTKRP":    {...}, "UPDATE": {...}, "NORMALIZE": {...}},
//       "total_modeled_s": g + m + u + n,     // always the sum of phases
//       "kernels": [ {"name": "...", "spans": s, "launches": l,
//                     "flops": f, "bytes": b, "modeled_s": ms,
//                     "wall_s": ws}, ... ]}, ... ]}
//
// "phases"/"total_modeled_s" are scaled to the full-size dataset (the number
// the tables print); "kernels" rows are the tracer's raw per-kernel
// aggregates at run scale — modeled_s is roofline time, wall_s is measured
// host time. A record may carry an optional "extra" object of bench-specific
// scalars (e.g. the multi-GPU serial and overlapped makespans); validators
// ignore it. scripts/run_benches.sh regenerates every BENCH_*.json and
// validates them with tools/cstf_json_check.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cstf/auntf.hpp"
#include "cstf/framework.hpp"
#include "perfmodel/admm_model.hpp"
#include "simgpu/trace.hpp"
#include "tensor/datasets.hpp"
#include "updates/block_admm.hpp"

namespace cstf::bench {

/// Loads the dataset: real `.tns` from CSTF_DATA_DIR when available,
/// otherwise the deterministic scaled analog.
DatasetAnalog load_dataset(const std::string& name);

/// Modeled seconds of one cSTF outer iteration, split by phase, at full
/// dataset scale on the given machine.
struct ModeledIteration {
  double gram = 0.0;
  double mttkrp = 0.0;
  double update = 0.0;
  double normalize = 0.0;

  double total() const { return gram + mttkrp + update + normalize; }

  ModeledIteration& operator+=(const ModeledIteration& o) {
    gram += o.gram;
    mttkrp += o.mttkrp;
    update += o.update;
    normalize += o.normalize;
    return *this;
  }
};

/// Runs one outer iteration (all modes) of an `Auntf` with the given
/// backend/update on a `spec` device (seed 7, no fit) and models each phase
/// at full scale. `mode_scales[n]` scales mode n's GRAM/UPDATE/NORMALIZE
/// records and `nnz_scale` its MTTKRP records. Also accumulates the
/// trainer's host wall-clock per phase into `wall`, and fills `per_mode`
/// with each mode's modeled phases, when non-null.
ModeledIteration modeled_iteration(const MttkrpBackend& backend,
                                   const UpdateMethod& update,
                                   const simgpu::DeviceSpec& spec,
                                   index_t rank,
                                   const std::vector<double>& mode_scales,
                                   double nnz_scale,
                                   ModeledIteration* wall = nullptr,
                                   std::vector<ModeledIteration>* per_mode = nullptr);

/// DatasetAnalog convenience overload: scales taken from the analog, and the
/// JSON record named after it (the overload above records "synthetic").
ModeledIteration modeled_iteration(const DatasetAnalog& data,
                                   const MttkrpBackend& backend,
                                   const UpdateMethod& update,
                                   const simgpu::DeviceSpec& spec,
                                   index_t rank,
                                   ModeledIteration* wall = nullptr,
                                   std::vector<ModeledIteration>* per_mode = nullptr);

/// Modeled iteration time when each mode's Gram work is pipelined against
/// its MTTKRP on a second lane: Gram_n and MTTKRP_n both depend only on
/// Normalize_{n-1}, the update joins them. The trainer issues every kernel
/// in one in-order chain; this schedule exists only here, as the recurrence
/// t = max(t + gram, t + mttkrp) + update + normalize over the
/// already-scaled per-mode phase times (the Fig. 5/6 "GPU ovl" column);
/// always within [max-per-mode-path, serial total].
double overlapped_total(const std::vector<ModeledIteration>& per_mode);

/// Convenience bundles for the three systems the figures compare. The GPU
/// framework is BLCO + `scheme` on `gpu_spec` with the MTTKRP engine forced:
/// kDimtree routes every mode through the dimension-tree reuse engine
/// (DESIGN.md §13) when its chain fits the default budget and runs flat
/// otherwise, as the framework does. kAuto is rejected — resolve it
/// explicitly with full_scale_mttkrp_mode() so benches report which engine
/// actually ran.
ModeledIteration gpu_iteration(const DatasetAnalog& data,
                               const simgpu::DeviceSpec& gpu_spec,
                               UpdateScheme scheme, index_t rank,
                               MttkrpMode engine = MttkrpMode::kFlat,
                               ModeledIteration* wall = nullptr,
                               std::vector<ModeledIteration>* per_mode = nullptr);
ModeledIteration splatt_iteration(const DatasetAnalog& data, index_t rank);

/// The engine resolve_mttkrp_mode would pick for this dataset at FULL size:
/// analog MTTKRP stats scaled by nnz_scale, flat streaming charged at the
/// BLCO storage footprint — the kAuto decision for the real tensor rather
/// than for the in-memory analog.
MttkrpMode full_scale_mttkrp_mode(const DatasetAnalog& data,
                                  const simgpu::DeviceSpec& gpu_spec,
                                  index_t rank);
ModeledIteration planc_sparse_iteration(const DatasetAnalog& data,
                                        UpdateScheme scheme, index_t rank);

/// One per-kernel row of a bench JSON record (tracer aggregate, run scale).
struct BenchKernelRow {
  std::string name;
  std::int64_t spans = 0;
  std::int64_t launches = 0;
  double flops = 0.0;
  double bytes = 0.0;
  double modeled_s = 0.0;
  double wall_s = 0.0;
};

/// One record of a bench JSON file: a modeled outer iteration on one
/// (dataset, machine, rank) combination.
struct BenchRecord {
  std::string dataset;
  std::string machine;
  index_t rank = 0;
  ModeledIteration phases;  ///< full-scale modeled seconds per phase
  ModeledIteration wall;    ///< measured host seconds per phase
  std::vector<BenchKernelRow> kernels;
  /// Optional bench-specific scalars, serialized as an "extra" object on the
  /// record (e.g. the multi-GPU serial and overlapped makespans). Validators
  /// ignore unknown fields, so this is schema-compatible.
  std::vector<std::pair<std::string, double>> extras;
};

/// RAII bench-JSON session. Each bench main constructs one as its first
/// statement; modeled_iteration() adds records to the current session, and
/// the destructor writes BENCH_<name>.json when emission is enabled via
/// CSTF_BENCH_JSON / CSTF_BENCH_JSON_DIR (see the header comment for the
/// schema). Exactly one session may exist at a time.
class JsonSession {
 public:
  explicit JsonSession(std::string bench_name);
  ~JsonSession();
  JsonSession(const JsonSession&) = delete;
  JsonSession& operator=(const JsonSession&) = delete;

  /// The active session (nullptr outside a bench main).
  static JsonSession* current();

  /// True when the environment requests JSON emission.
  bool enabled() const { return enabled_; }
  const std::string& name() const { return name_; }

  /// Destination file: $CSTF_BENCH_JSON_DIR/BENCH_<name>.json (the directory
  /// defaults to the working directory).
  std::string output_path() const;

  void add_record(BenchRecord record);
  std::size_t record_count() const { return records_.size(); }

  /// Attaches an extra scalar to the most recently added record (no-op when
  /// no record exists). Benches use this to record values computed after
  /// modeled_iteration() auto-added the record, e.g. overlap parity numbers.
  void annotate_last(const std::string& key, double value);

  /// The JSON document for the records so far (exposed for tests).
  std::string to_json() const;

  /// Writes the document now (normally done by the destructor); returns the
  /// path, or "" when emission is disabled.
  std::string write();

 private:
  std::string name_;
  bool enabled_ = false;
  bool written_ = false;
  std::vector<BenchRecord> records_;
};

/// Geometric mean of a list of ratios.
double geomean(const std::vector<double>& values);

/// Fixed-width table printing.
void print_header(const std::vector<std::string>& columns, int width = 12);
void print_row(const std::string& label, const std::vector<double>& values,
               int width = 12, int precision = 2);
void print_rule(std::size_t columns, int width = 12);

/// The 10 paper dataset names, Table 2 order.
const std::vector<std::string>& dataset_names();

}  // namespace cstf::bench
