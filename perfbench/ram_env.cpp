#include "ram_env.hpp"

#include <algorithm>

namespace qnnbench {

using qnn::io::Bytes;
using qnn::io::ByteSpan;
using qnn::io::WriteMode;

class RamWritableFile final : public qnn::io::WritableFile {
 public:
  RamWritableFile(RamEnv& env, std::string path, WriteMode mode)
      : env_(env), path_(std::move(path)), mode_(mode) {
    if (mode_ == WriteMode::kPlain) {
      plain_ = env_.install(path_, Bytes{});
    }
  }

  void append(ByteSpan data) override {
    if (mode_ == WriteMode::kAtomic) {
      staged_.insert(staged_.end(), data.begin(), data.end());
      return;
    }
    std::lock_guard lock(env_.mu_);
    plain_->insert(plain_->end(), data.begin(), data.end());
    env_.bytes_written_ += data.size();
  }

  void sync() override {}

  void close() override {
    if (mode_ == WriteMode::kAtomic && !closed_) {
      env_.install(path_, std::move(staged_));
    }
    closed_ = true;
  }

 private:
  RamEnv& env_;
  const std::string path_;
  const WriteMode mode_;
  Bytes staged_;
  RamEnv::FileRef plain_;
  bool closed_ = false;
};

class RamRandomAccessFile final : public qnn::io::RandomAccessFile {
 public:
  RamRandomAccessFile(RamEnv& env, RamEnv::FileRef data, std::uint64_t size)
      : env_(env), data_(std::move(data)), size_(size) {}

  [[nodiscard]] std::uint64_t size() const override { return size_; }

  Bytes pread(std::uint64_t offset, std::uint64_t n) override {
    if (offset >= size_) {
      return {};
    }
    n = std::min(n, size_ - offset);
    std::lock_guard lock(env_.mu_);
    const auto first = data_->begin() + static_cast<std::ptrdiff_t>(offset);
    Bytes out(first, first + static_cast<std::ptrdiff_t>(n));
    env_.bytes_read_ += n;
    return out;
  }

 private:
  RamEnv& env_;
  const RamEnv::FileRef data_;
  const std::uint64_t size_;
};

RamEnv::FileRef RamEnv::install(const std::string& path, Bytes data) {
  auto file = std::make_shared<Bytes>(std::move(data));
  std::lock_guard lock(mu_);
  bytes_written_ += file->size();
  files_[path] = file;
  return file;
}

std::unique_ptr<qnn::io::WritableFile> RamEnv::new_writable(
    const std::string& path, WriteMode mode) {
  return std::make_unique<RamWritableFile>(*this, path, mode);
}

std::unique_ptr<qnn::io::RandomAccessFile> RamEnv::open_ranged(
    const std::string& path) {
  std::lock_guard lock(mu_);
  const auto it = files_.find(path);
  if (it == files_.end()) {
    return nullptr;
  }
  return std::make_unique<RamRandomAccessFile>(*this, it->second,
                                               it->second->size());
}

bool RamEnv::exists(const std::string& path) {
  std::lock_guard lock(mu_);
  return files_.contains(path);
}

void RamEnv::remove_file(const std::string& path) {
  std::lock_guard lock(mu_);
  files_.erase(path);
}

std::vector<std::string> RamEnv::list_dir(const std::string& dir) {
  const std::string prefix = dir + "/";
  std::vector<std::string> out;
  std::lock_guard lock(mu_);
  for (auto it = files_.lower_bound(prefix);
       it != files_.end() && it->first.starts_with(prefix); ++it) {
    std::string name = it->first.substr(prefix.size());
    if (name.find('/') == std::string::npos) {
      out.push_back(std::move(name));
    }
  }
  return out;  // map order is already ascending
}

std::optional<std::uint64_t> RamEnv::file_size(const std::string& path) {
  std::lock_guard lock(mu_);
  const auto it = files_.find(path);
  if (it == files_.end()) {
    return std::nullopt;
  }
  return it->second->size();
}

std::uint64_t RamEnv::bytes_written() const {
  std::lock_guard lock(mu_);
  return bytes_written_;
}

std::uint64_t RamEnv::bytes_read() const {
  std::lock_guard lock(mu_);
  return bytes_read_;
}

}  // namespace qnnbench
