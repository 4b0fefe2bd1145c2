#include "src/store/mapped_file.h"

#include <cstdio>
#include <utility>

#include "src/common/fault_injection.h"

#if defined(__unix__) || defined(__APPLE__)
#define DIME_HAVE_MMAP 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#endif

namespace dime {
namespace {

/// read() fallback shared by non-POSIX builds and the forced-fallback
/// path: plain stdio into an 8-aligned owned buffer.
Status ReadWhole(const std::string& path, std::unique_ptr<uint64_t[]>* buf,
                 size_t* size) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return NotFoundError(path + ": cannot open");
  Status status = OkStatus();
  if (std::fseek(f, 0, SEEK_END) != 0) {
    status = IoError(path + ": seek failed");
  } else {
    long end = std::ftell(f);
    if (end < 0) {
      status = IoError(path + ": tell failed");
    } else {
      *size = static_cast<size_t>(end);
      std::rewind(f);
      buf->reset(new uint64_t[(*size + 7) / 8]);
      if (*size > 0 && std::fread(buf->get(), 1, *size, f) != *size) {
        status = IoError(path + ": read failed");
      }
    }
  }
  std::fclose(f);
  return status;
}

}  // namespace

MappedFile& MappedFile::operator=(MappedFile&& other) noexcept {
  if (this != &other) {
    Reset();
    data_ = std::exchange(other.data_, nullptr);
    size_ = std::exchange(other.size_, 0);
    mapped_ = std::exchange(other.mapped_, false);
    owned_ = std::move(other.owned_);
  }
  return *this;
}

void MappedFile::Reset() {
#if DIME_HAVE_MMAP
  if (mapped_ && data_ != nullptr) {
    ::munmap(const_cast<uint8_t*>(data_), size_);
  }
#endif
  data_ = nullptr;
  size_ = 0;
  mapped_ = false;
  owned_.reset();
}

MappedFile::~MappedFile() { Reset(); }

void MappedFile::DropResidentPages() const {
#if DIME_HAVE_MMAP
  if (mapped_ && data_ != nullptr) {
    // lint: unchecked-status-ok(advisory; on failure pages stay resident)
    (void)::madvise(const_cast<uint8_t*>(data_), size_, MADV_DONTNEED);
  }
#endif
}

StatusOr<MappedFile> MappedFile::Open(const std::string& path,
                                      const Options& options) {
  MappedFile file;
  bool use_mmap = options.prefer_mmap;
  if (DIME_FAULT_POINT(failpoints::kStoreMmap)) use_mmap = false;
#if DIME_HAVE_MMAP
  if (use_mmap) {
    int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0) return NotFoundError(path + ": cannot open");
    struct stat st;
    if (::fstat(fd, &st) != 0) {
      ::close(fd);
      return IoError(path + ": stat failed");
    }
    file.size_ = static_cast<size_t>(st.st_size);
    if (file.size_ > 0) {
      void* addr =
          ::mmap(nullptr, file.size_, PROT_READ, MAP_SHARED, fd, 0);
      ::close(fd);  // the mapping keeps its own reference
      if (addr == MAP_FAILED) return IoError(path + ": mmap failed");
      file.data_ = static_cast<const uint8_t*>(addr);
      file.mapped_ = true;
    } else {
      ::close(fd);
    }
    return file;
  }
#else
  (void)use_mmap;
#endif
  DIME_RETURN_IF_ERROR(ReadWhole(path, &file.owned_, &file.size_));
  file.data_ = reinterpret_cast<const uint8_t*>(file.owned_.get());
  return file;
}

}  // namespace dime
