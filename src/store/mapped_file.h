#ifndef DIME_STORE_MAPPED_FILE_H_
#define DIME_STORE_MAPPED_FILE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

#include "src/common/status.h"

/// \file mapped_file.h
/// Read-only whole-file views. Prefers mmap (PROT_READ, MAP_SHARED): the
/// snapshot loader then serves arenas straight off page cache, the pages
/// are shared across every process mapping the same snapshot, and after
/// its checks the loader drops them (DropResidentPages), so only the
/// sections serving touches again are resident. Falls back to a plain
/// read()-into-buffer when mmap is unavailable (or refused), keeping the
/// same 8-byte-aligned `data()` contract so the zero-copy loader works
/// identically on both paths.
///
/// Failpoint "store/mmap": forces the read() fallback (tests cover both
/// paths without platform tricks).

namespace dime {

class MappedFile {
 public:
  struct Options {
    /// When false, skip mmap and read the file into an owned buffer.
    bool prefer_mmap = true;
  };

  /// Opens and maps (or reads) `path`. NOT_FOUND when the file cannot be
  /// opened, IO_ERROR when stat/map/read fails afterwards. An empty file
  /// yields size() == 0 with a non-null data() contract not guaranteed.
  static StatusOr<MappedFile> Open(const std::string& path,
                                   const Options& options);
  static StatusOr<MappedFile> Open(const std::string& path) {
    return Open(path, Options());
  }

  MappedFile() = default;
  MappedFile(MappedFile&& other) noexcept { *this = std::move(other); }
  MappedFile& operator=(MappedFile&& other) noexcept;
  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;
  ~MappedFile();

  /// 8-byte-aligned view of the file contents.
  const uint8_t* data() const { return data_; }
  size_t size() const { return size_; }
  /// True when backed by mmap, false on the read() fallback.
  bool mapped() const { return mapped_; }

  /// Drops the mapping's resident pages (madvise MADV_DONTNEED; a no-op
  /// on the read() fallback). The mapping is read-only and shared, so a
  /// later read faults the same bytes back in from the page cache: only
  /// pages touched again count against the process's resident memory.
  void DropResidentPages() const;

 private:
  /// Unmaps / frees the current contents, leaving an empty file.
  void Reset();

  const uint8_t* data_ = nullptr;
  size_t size_ = 0;
  bool mapped_ = false;
  /// Fallback storage (uint64_t granularity keeps data() 8-aligned).
  std::unique_ptr<uint64_t[]> owned_;
};

}  // namespace dime

#endif  // DIME_STORE_MAPPED_FILE_H_
