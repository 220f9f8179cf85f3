#include "serve/model_io.hpp"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <vector>

#include "common/digest.hpp"
#include "mttkrp/scatter.hpp"

namespace cstf::serve {

namespace {

constexpr char kMagic[8] = {'C', 'S', 'T', 'F', 'S', 'R', 'V', '\n'};
constexpr std::uint64_t kMaxRank = 1u << 20;
constexpr std::uint32_t kMaxNameBytes = 1u << 16;

[[noreturn]] void fail(ModelIoStatus status, const std::string& what) {
  throw_model_io(status, what);
}

}  // namespace

std::uint64_t digest_options(const FrameworkOptions& options) {
  // Hash the fields that change what model a run produces. Field order is
  // part of the digest definition; bump kModelFormatVersion if it changes.
  DigestBuilder d;
  d.u64(static_cast<std::uint64_t>(options.rank))
      .u64(static_cast<std::uint64_t>(options.max_iterations))
      .f64(options.fit_tolerance)
      .u64(options.seed)
      .u64(static_cast<std::uint64_t>(options.scheme))
      .u64(static_cast<std::uint64_t>(options.prox.kind()))
      .f64(options.prox.param_a())
      .f64(options.prox.param_b())
      .u64(static_cast<std::uint64_t>(options.admm_inner_iterations))
      .u64(static_cast<std::uint64_t>(options.blco_block_capacity))
      .u64(static_cast<std::uint64_t>(options.scatter.strategy));
  return d.value();
}

void save_model(const SavedModel& saved, const std::string& path) {
  try {
    saved.model.validate();
  } catch (const Error& e) {
    fail(ModelIoStatus::kInvalidModel, e.what());
  }
  const KTensor& model = saved.model;
  const ModelMetadata& meta = saved.meta;
  if (meta.name.size() > kMaxNameBytes) {
    fail(ModelIoStatus::kWriteFailed, "model name too long");
  }

  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out.good()) fail(ModelIoStatus::kOpenFailed, "cannot create " + tmp);
    HashingWriter w(out);
    w.write(kMagic, sizeof(kMagic));
    w.write_pod(kModelFormatVersion);
    w.write_pod(static_cast<std::uint64_t>(model.num_modes()));
    w.write_pod(static_cast<std::uint64_t>(model.rank()));
    for (const Matrix& f : model.factors) {
      w.write_pod(static_cast<std::uint64_t>(f.rows()));
    }
    w.write_pod(static_cast<std::uint32_t>(meta.constraint));
    w.write_pod(static_cast<double>(meta.constraint_a));
    w.write_pod(static_cast<double>(meta.constraint_b));
    w.write_pod(static_cast<double>(meta.final_fit));
    w.write_pod(meta.options_digest);
    w.write_pod(meta.seed);
    w.write_pod(meta.iterations);
    w.write_pod(static_cast<std::uint32_t>(meta.name.size()));
    if (!meta.name.empty()) w.write(meta.name.data(), meta.name.size());
    w.write(model.lambda.data(), model.lambda.size() * sizeof(real_t));
    for (const Matrix& f : model.factors) {
      w.write(f.data(), static_cast<std::size_t>(f.size()) * sizeof(real_t));
    }
    const std::uint64_t checksum = w.digest();
    out.write(reinterpret_cast<const char*>(&checksum), sizeof(checksum));
    out.close();
    if (!out.good()) {
      std::remove(tmp.c_str());
      fail(ModelIoStatus::kWriteFailed, "write failed for " + tmp);
    }
  }
  commit_tmp_file(tmp, path);
}

SavedModel load_model(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) fail(ModelIoStatus::kOpenFailed, "cannot open " + path);
  HashingReader r(in, path);

  char magic[sizeof(kMagic)];
  r.read(magic, sizeof(magic), "magic");
  if (std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    fail(ModelIoStatus::kBadMagic, path + " is not a .cstf model file");
  }
  const auto version = r.read_pod<std::uint32_t>("version");
  if (version != kModelFormatVersion) {
    fail(ModelIoStatus::kBadVersion,
         path + ": format version " + std::to_string(version) +
             " (expected " + std::to_string(kModelFormatVersion) + ")");
  }

  const auto modes = r.read_pod<std::uint64_t>("mode count");
  const auto rank = r.read_pod<std::uint64_t>("rank");
  if (modes < 1 || modes > static_cast<std::uint64_t>(kMaxModes)) {
    fail(ModelIoStatus::kCorruptHeader,
         path + ": implausible mode count " + std::to_string(modes));
  }
  if (rank < 1 || rank > kMaxRank) {
    fail(ModelIoStatus::kCorruptHeader,
         path + ": implausible rank " + std::to_string(rank));
  }
  std::vector<std::uint64_t> rows(static_cast<std::size_t>(modes));
  for (auto& v : rows) {
    v = r.read_pod<std::uint64_t>("factor height");
    if (v < 1 || v > (1ull << 40)) {
      fail(ModelIoStatus::kCorruptHeader,
           path + ": implausible factor height " + std::to_string(v));
    }
  }

  SavedModel saved;
  const auto kind = r.read_pod<std::uint32_t>("constraint kind");
  if (kind > static_cast<std::uint32_t>(ProxKind::kSmooth)) {
    fail(ModelIoStatus::kCorruptHeader,
         path + ": unknown constraint kind " + std::to_string(kind));
  }
  saved.meta.constraint = static_cast<ProxKind>(kind);
  saved.meta.constraint_a = r.read_pod<double>("constraint param a");
  saved.meta.constraint_b = r.read_pod<double>("constraint param b");
  saved.meta.final_fit = r.read_pod<double>("final fit");
  saved.meta.options_digest = r.read_pod<std::uint64_t>("options digest");
  saved.meta.seed = r.read_pod<std::uint64_t>("seed");
  saved.meta.iterations = r.read_pod<std::uint32_t>("iterations");
  const auto name_len = r.read_pod<std::uint32_t>("name length");
  if (name_len > kMaxNameBytes) {
    fail(ModelIoStatus::kCorruptHeader,
         path + ": implausible name length " + std::to_string(name_len));
  }
  saved.meta.name.resize(name_len);
  if (name_len > 0) r.read(saved.meta.name.data(), name_len, "name");

  saved.model.lambda.resize(static_cast<std::size_t>(rank));
  r.read(saved.model.lambda.data(),
         saved.model.lambda.size() * sizeof(real_t), "lambda");
  for (std::uint64_t m = 0; m < modes; ++m) {
    Matrix f(static_cast<index_t>(rows[static_cast<std::size_t>(m)]),
             static_cast<index_t>(rank));
    r.read(f.data(), static_cast<std::size_t>(f.size()) * sizeof(real_t),
           "factor data");
    saved.model.factors.push_back(std::move(f));
  }

  const std::uint64_t expected = r.digest();
  std::uint64_t stored = 0;
  in.read(reinterpret_cast<char*>(&stored), sizeof(stored));
  if (static_cast<std::size_t>(in.gcount()) != sizeof(stored)) {
    fail(ModelIoStatus::kTruncated, path + ": truncated reading checksum");
  }
  if (stored != expected) {
    fail(ModelIoStatus::kChecksumMismatch,
         path + ": checksum mismatch (file is corrupt)");
  }

  try {
    saved.model.validate();
  } catch (const Error& e) {
    fail(ModelIoStatus::kInvalidModel, e.what());
  }
  return saved;
}

}  // namespace cstf::serve
