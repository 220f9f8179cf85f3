// Shared binary-file primitives for the versioned, checksummed on-disk
// formats (.cstf serving models, CSTFCKPT training checkpoints).
//
// Both formats follow the same discipline: a magic string, a u32 format
// version, a typed payload, and a trailing FNV-1a checksum of every byte
// before it; writes go to "<path>.tmp" and are renamed into place only after
// a successful close, so a crash mid-save never clobbers the previous file
// and a reader never observes a half-written one. This header holds the
// pieces both serializers share — the typed error, the hashing reader/writer,
// and the atomic-commit helper — so the trainer-side checkpoint code does not
// have to depend on the serving library.
#pragma once

#include <cstdint>
#include <fstream>
#include <limits>
#include <string>
#include <type_traits>
#include <vector>

#include "common/error.hpp"
#include "common/types.hpp"

namespace cstf {

/// Why a model/checkpoint file was rejected — load failures are typed so
/// callers (and tests) can distinguish a missing file from corruption.
enum class ModelIoStatus {
  kOpenFailed,        // cannot open / create the file
  kBadMagic,          // not a file of the expected format
  kBadVersion,        // written by an incompatible format version
  kTruncated,         // ran out of bytes mid-structure
  kCorruptHeader,     // implausible mode count / rank / dims
  kChecksumMismatch,  // payload bytes do not hash to the stored checksum
  kInvalidModel,      // deserialized fine but validation failed
  kWriteFailed,       // save-side I/O error
  kOptionsMismatch,   // checkpoint was produced under incompatible options
};

const char* model_io_status_name(ModelIoStatus status);

/// Typed model/checkpoint-I/O failure; also a cstf::Error so existing catch
/// sites keep working.
class ModelIoError : public Error {
 public:
  ModelIoError(ModelIoStatus status, const std::string& what)
      : Error(what), status_(status) {}

  ModelIoStatus status() const { return status_; }

 private:
  ModelIoStatus status_;
};

/// Throws ModelIoError with a "<prefix>: <what> [<status-name>]" message.
[[noreturn]] void throw_model_io(ModelIoStatus status, const std::string& what);

/// FNV-1a 64-bit, the checksum used by the binary formats (exposed for
/// tests).
std::uint64_t fnv1a64(const void* data, std::size_t len,
                      std::uint64_t seed = 0xcbf29ce484222325ULL);

/// Streams bytes to a file while folding them into the running checksum.
class HashingWriter {
 public:
  explicit HashingWriter(std::ofstream& out) : out_(out) {}

  void write(const void* data, std::size_t len) {
    hash_ = fnv1a64(data, len, hash_);
    out_.write(static_cast<const char*>(data),
               static_cast<std::streamsize>(len));
  }

  template <typename T>
  void write_pod(const T& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    write(&v, sizeof(T));
  }

  std::uint64_t digest() const { return hash_; }

 private:
  std::ofstream& out_;
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

/// Reads bytes while hashing them; throws kTruncated on short reads.
class HashingReader {
 public:
  HashingReader(std::ifstream& in, const std::string& path)
      : in_(in), path_(path) {
    const std::streampos start = in_.tellg();
    in_.seekg(0, std::ios::end);
    const std::streamoff end = in_.tellg();
    in_.seekg(start);
    if (start >= 0 && end >= 0) size_ = static_cast<std::uint64_t>(end);
  }

  /// Throws kTruncated unless `count` reals remain before the end of the
  /// file. Loaders call it with a header's declared payload before they
  /// allocate for it, so a header claiming more than the file holds fails
  /// as truncated instead of allocating (or failing to allocate) first.
  void require_reals(std::uint64_t count, const char* what) {
    const std::streamoff here = in_.tellg();
    if (here < 0 || size_ == kUnknownSize) return;
    const std::uint64_t left = size_ - static_cast<std::uint64_t>(here);
    if (count > left / sizeof(real_t)) {
      throw_model_io(ModelIoStatus::kTruncated,
                     path_ + ": truncated: " + what + " declares " +
                         std::to_string(count) + " reals, " +
                         std::to_string(left) + " bytes left");
    }
  }

  void read(void* data, std::size_t len, const char* what) {
    in_.read(static_cast<char*>(data), static_cast<std::streamsize>(len));
    if (static_cast<std::size_t>(in_.gcount()) != len) {
      throw_model_io(ModelIoStatus::kTruncated,
                     path_ + ": truncated reading " + what);
    }
    hash_ = fnv1a64(data, len, hash_);
  }

  template <typename T>
  T read_pod(const char* what) {
    static_assert(std::is_trivially_copyable_v<T>);
    T v{};
    read(&v, sizeof(T), what);
    return v;
  }

  std::uint64_t digest() const { return hash_; }

 private:
  static constexpr std::uint64_t kUnknownSize =
      std::numeric_limits<std::uint64_t>::max();

  std::ifstream& in_;
  const std::string& path_;
  std::uint64_t size_ = kUnknownSize;
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

/// Writes a rows() x cols() matrix (anything with rows(), cols() and
/// operator()(i, j)) as the formats store it: column by column, column j's
/// entries (0,j) .. (rows-1,j) contiguous.
template <typename Mat>
void write_column_major(HashingWriter& w, const Mat& m) {
  std::vector<real_t> col(static_cast<std::size_t>(m.rows()));
  for (index_t j = 0; j < m.cols(); ++j) {
    for (index_t i = 0; i < m.rows(); ++i) col[static_cast<std::size_t>(i)] = m(i, j);
    w.write(col.data(), col.size() * sizeof(real_t));
  }
}

/// Fills an already-shaped matrix from write_column_major's payload.
template <typename Mat>
void read_column_major(HashingReader& r, Mat& m, const char* what) {
  std::vector<real_t> col(static_cast<std::size_t>(m.rows()));
  for (index_t j = 0; j < m.cols(); ++j) {
    r.read(col.data(), col.size() * sizeof(real_t), what);
    for (index_t i = 0; i < m.rows(); ++i) m(i, j) = col[static_cast<std::size_t>(i)];
  }
}

/// Renames "<tmp>" into "<path>" (the commit step of a crash-consistent
/// save); removes the tmp file and throws kWriteFailed on failure.
void commit_tmp_file(const std::string& tmp, const std::string& path);

}  // namespace cstf
