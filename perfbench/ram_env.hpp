// The benchmark's storage: every job's files live in process memory.
#pragma once

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "io/env.hpp"

namespace qnnbench {

/// A thread-safe in-memory Env with the same visibility rules as the
/// library's io::MemEnv (kAtomic installs at close, kPlain truncates at
/// open and publishes each append, readers see the size they opened and
/// keep the old bytes across an atomic overwrite). The difference is the
/// cost: an append to a kPlain file lands in place, amortised O(bytes),
/// where MemEnv copies the whole file per append, which would make a
/// delta journal's append path time that copy instead of the journal.
class RamEnv final : public qnn::io::Env {
 public:
  std::unique_ptr<qnn::io::WritableFile> new_writable(
      const std::string& path, qnn::io::WriteMode mode) override;
  std::unique_ptr<qnn::io::RandomAccessFile> open_ranged(
      const std::string& path) override;
  bool exists(const std::string& path) override;
  void remove_file(const std::string& path) override;
  std::vector<std::string> list_dir(const std::string& dir) override;
  std::optional<std::uint64_t> file_size(const std::string& path) override;
  [[nodiscard]] std::uint64_t bytes_written() const override;
  [[nodiscard]] std::uint64_t bytes_read() const override;

 private:
  friend class RamWritableFile;
  friend class RamRandomAccessFile;
  using FileRef = std::shared_ptr<qnn::io::Bytes>;

  /// Replaces whatever `path` held with `data`; returns the new file.
  FileRef install(const std::string& path, qnn::io::Bytes data);

  /// Guards the map, every file's bytes and both counters.
  mutable std::mutex mu_;
  std::map<std::string, FileRef> files_;
  std::uint64_t bytes_written_ = 0;
  std::uint64_t bytes_read_ = 0;
};

}  // namespace qnnbench
