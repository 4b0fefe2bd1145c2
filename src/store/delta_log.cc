#include "src/store/delta_log.h"

#include <fcntl.h>
#include <sys/file.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <string_view>
#include <utility>

#include "src/common/checksum.h"
#include "src/common/fault_injection.h"
#include "src/store/bytes.h"
#include "src/store/snapshot_format.h"

namespace dime {
namespace {

std::string HeaderBytes() {
  std::string header(kDeltaLogMagic, sizeof(kDeltaLogMagic));
  ByteSink sink;
  sink.U32(kDeltaLogFormatVersion);
  header += sink.str();
  header += static_cast<char>(SnapshotNativeEndianMarker());
  header.append(3, '\0');
  return header;
}

Status ValidateHeader(const char* data, size_t size) {
  if (size < kDeltaLogHeaderSize) {
    return ParseError("delta log shorter than its 16-byte header");
  }
  if (std::memcmp(data, kDeltaLogMagic, sizeof(kDeltaLogMagic)) != 0) {
    return ParseError("not a delta log (bad magic)");
  }
  uint32_t version;
  std::memcpy(&version, data + 8, sizeof(version));
  if (version > kDeltaLogFormatVersion) {
    return ParseError("delta log format version " + std::to_string(version) +
                      " is newer than supported (" +
                      std::to_string(kDeltaLogFormatVersion) + ")");
  }
  if (static_cast<uint8_t>(data[12]) != SnapshotNativeEndianMarker()) {
    return ParseError("delta log endianness does not match this machine");
  }
  return OkStatus();
}

StatusOr<std::string> ReadWholeFile(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) {
    return NotFoundError("cannot open delta log " + path + ": " +
                         std::strerror(errno));
  }
  std::string bytes;
  char buffer[1 << 16];
  size_t n;
  while ((n = std::fread(buffer, 1, sizeof(buffer), file)) > 0) {
    bytes.append(buffer, n);
  }
  const bool failed = std::ferror(file) != 0;
  std::fclose(file);
  if (failed) return IoError("reading delta log " + path + " failed");
  return bytes;
}

/// Parses one record payload. False on structural damage.
bool DecodePayload(const char* data, size_t size, DeltaRecord* record) {
  ByteReader reader(data, size);
  uint32_t op;
  if (!reader.U32(&op)) return false;
  if (op < 1 || op > 3) return false;
  record->op = static_cast<DeltaRecord::Op>(op);
  if (!reader.String(&record->group)) return false;
  if (!reader.String(&record->entity_id)) return false;
  uint64_t value_count;
  if (!reader.U64(&value_count)) return false;
  if (value_count > size) return false;  // cheap sanity bound
  record->values.clear();
  record->values.reserve(static_cast<size_t>(value_count));
  for (uint64_t v = 0; v < value_count; ++v) {
    uint64_t item_count;
    if (!reader.U64(&item_count)) return false;
    if (item_count > size) return false;
    AttributeValue value;
    value.reserve(static_cast<size_t>(item_count));
    for (uint64_t i = 0; i < item_count; ++i) {
      std::string item;
      if (!reader.String(&item)) return false;
      value.push_back(std::move(item));
    }
    record->values.push_back(std::move(value));
  }
  return reader.done();
}

/// Index of the entity with `id` in `group`, or -1.
int FindEntity(const Group& group, std::string_view id) {
  for (size_t i = 0; i < group.entities.size(); ++i) {
    if (group.entities[i].id == id) return static_cast<int>(i);
  }
  return -1;
}

/// Opens (creating if needed) the log at `path` for append with its
/// exclusive flock HELD, writing the 16-byte header iff the file is
/// empty and validating it otherwise. Whether to write the header is
/// decided from fstat on the locked descriptor — never ftell on an
/// append stream, whose initial position is implementation-defined
/// (C11 7.21.5.3). The caller releases the lock.
StatusOr<std::FILE*> OpenLogLocked(const std::string& path) {
  int fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_APPEND, 0644);
  if (fd < 0) {
    return IoError("cannot open delta log " + path + " for append: " +
                   std::strerror(errno));
  }
  auto fail = [fd](Status status) -> StatusOr<std::FILE*> {
    ::flock(fd, LOCK_UN);
    ::close(fd);
    return status;
  };
  if (::flock(fd, LOCK_EX) != 0) {
    return fail(IoError("cannot lock delta log " + path + ": " +
                        std::strerror(errno)));
  }
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    return fail(IoError("cannot stat delta log " + path + ": " +
                        std::strerror(errno)));
  }
  if (st.st_size == 0) {
    std::string header = HeaderBytes();
    size_t written = 0;
    while (written < header.size()) {
      ssize_t n = ::write(fd, header.data() + written,
                          header.size() - written);
      if (n < 0) {
        if (errno == EINTR) continue;
        return fail(IoError("cannot write delta log header to " + path +
                            ": " + std::strerror(errno)));
      }
      written += static_cast<size_t>(n);
    }
  } else {
    // Appending records to something that is not a delta log only
    // manufactures corruption for the eventual reader.
    char header[kDeltaLogHeaderSize];
    ssize_t n = ::pread(fd, header, sizeof(header), 0);
    if (n < 0) {
      return fail(IoError("cannot read delta log header of " + path + ": " +
                          std::strerror(errno)));
    }
    Status valid = ValidateHeader(header, static_cast<size_t>(n));
    if (!valid.ok()) return fail(valid);
  }
  std::FILE* file = ::fdopen(fd, "ab");
  if (file == nullptr) {
    return fail(IoError("cannot wrap delta log " + path + " for append: " +
                        std::strerror(errno)));
  }
  return file;
}

}  // namespace

const char* DeltaOpName(DeltaRecord::Op op) {
  switch (op) {
    case DeltaRecord::Op::kAdd:
      return "add";
    case DeltaRecord::Op::kRemove:
      return "remove";
    case DeltaRecord::Op::kEdit:
      return "edit";
  }
  return "unknown";
}

bool DeltaOpFromName(std::string_view name, DeltaRecord::Op* op) {
  if (name == "add") {
    *op = DeltaRecord::Op::kAdd;
  } else if (name == "remove") {
    *op = DeltaRecord::Op::kRemove;
  } else if (name == "edit") {
    *op = DeltaRecord::Op::kEdit;
  } else {
    return false;
  }
  return true;
}

std::string EncodeDeltaPayload(const DeltaRecord& record) {
  ByteSink sink;
  sink.U32(static_cast<uint32_t>(record.op));
  sink.String(record.group);
  sink.String(record.entity_id);
  sink.U64(record.values.size());
  for (const AttributeValue& value : record.values) {
    sink.U64(value.size());
    for (const std::string& item : value) sink.String(item);
  }
  return sink.Take();
}

StatusOr<DeltaLogWriter> DeltaLogWriter::Open(const std::string& path) {
  StatusOr<std::FILE*> file = OpenLogLocked(path);
  if (!file.ok()) return file.status();
  ::flock(fileno(*file), LOCK_UN);
  return DeltaLogWriter(path, *file);
}

DeltaLogWriter::~DeltaLogWriter() = default;

Status DeltaLogWriter::LockCurrentLog() {
  // Bounded only as a safety net: each retrip needs a merge to have
  // rotated the log in the window between our reopen and relock.
  for (int attempt = 0; attempt < 16; ++attempt) {
    int fd = fileno(file_.get());
    if (::flock(fd, LOCK_EX) != 0) {
      return IoError("cannot lock delta log " + path_ + ": " +
                     std::strerror(errno));
    }
    struct stat ours;
    if (::fstat(fd, &ours) != 0) {
      ::flock(fd, LOCK_UN);
      return IoError("cannot stat delta log " + path_ + ": " +
                     std::strerror(errno));
    }
    struct stat on_disk;
    if (::stat(path_.c_str(), &on_disk) == 0 &&
        on_disk.st_dev == ours.st_dev && on_disk.st_ino == ours.st_ino) {
      return OkStatus();
    }
    // The merge rotated the log aside while we held an open descriptor:
    // appending to the old inode would write records nothing ever reads.
    // Reopen a fresh log at the path and re-verify — the fresh log can
    // itself be rotated between the open and the lock.
    ::flock(fd, LOCK_UN);
    StatusOr<std::FILE*> fresh = OpenLogLocked(path_);
    if (!fresh.ok()) return fresh.status();
    file_.reset(*fresh);  // closes the stale stream
    // Loop re-verifies; flock on the already-locked fd is a no-op.
  }
  return IoError("delta log " + path_ + " kept rotating mid-append");
}

Status DeltaLogWriter::Append(const DeltaRecord& record) {
  if (file_ == nullptr) {
    return InternalError("DeltaLogWriter used after move");
  }
  std::string payload = EncodeDeltaPayload(record);
  if (payload.size() > kDeltaMaxRecordBytes) {
    return InvalidArgumentError("delta record exceeds the 64 MiB bound");
  }
  ByteSink frame;
  frame.U32(static_cast<uint32_t>(payload.size()));
  frame.U32(Crc32(payload));
  frame.Raw(payload.data(), payload.size());
  const std::string& bytes = frame.str();
  // The whole frame lands under the log's flock: producers never
  // interleave mid-frame, and a concurrent merge-and-rotate either sees
  // this record in full or rotates before it (after which LockCurrentLog
  // has redirected us to a fresh log).
  Status locked = LockCurrentLog();
  if (!locked.ok()) return locked;
  int fd = fileno(file_.get());
  if (std::fwrite(bytes.data(), 1, bytes.size(), file_.get()) !=
          bytes.size() ||
      std::fflush(file_.get()) != 0) {
    Status failed = IoError(std::string("appending delta record failed: ") +
                            std::strerror(errno));
    ::flock(fd, LOCK_UN);
    return failed;
  }
  ::flock(fd, LOCK_UN);
  ++records_appended_;
  return OkStatus();
}

Status DeltaLogLock::Acquire(const std::string& path) {
  Release();
  int fd = ::open(path.c_str(), O_RDWR);
  if (fd < 0) {
    std::string msg =
        "cannot open delta log " + path + ": " + std::strerror(errno);
    return errno == ENOENT ? NotFoundError(msg) : IoError(msg);
  }
  if (::flock(fd, LOCK_EX) != 0) {
    Status failed = IoError("cannot lock delta log " + path + ": " +
                            std::strerror(errno));
    ::close(fd);
    return failed;
  }
  fd_ = fd;
  path_ = path;
  return OkStatus();
}

StatusOr<uint64_t> DeltaLogLock::SizeNow() const {
  struct stat st;
  if (fd_ < 0 || ::fstat(fd_, &st) != 0) {
    return IoError("cannot stat locked delta log " + path_);
  }
  return static_cast<uint64_t>(st.st_size);
}

Status DeltaLogLock::RotateTo(const std::string& rotated_path) {
  if (fd_ < 0) return InternalError("RotateTo without a held lock");
  if (std::rename(path_.c_str(), rotated_path.c_str()) == 0) {
    return OkStatus();
  }
  std::string rename_error = std::strerror(errno);
  // Fallback so applied records can never be applied twice: empty the log
  // in place. Producers blocked on the flock resume against the same
  // inode (O_APPEND writes land at the new end of file).
  if (::ftruncate(fd_, static_cast<off_t>(kDeltaLogHeaderSize)) == 0) {
    return IoError("cannot rotate applied delta log " + path_ + " to " +
                   rotated_path + " (" + rename_error +
                   "); truncated it to empty instead");
  }
  return DataLossError("cannot rotate applied delta log " + path_ + " (" +
                       rename_error +
                       ") nor truncate it: its records would be applied "
                       "twice on the next merge");
}

void DeltaLogLock::Release() {
  if (fd_ < 0) return;
  ::flock(fd_, LOCK_UN);
  ::close(fd_);
  fd_ = -1;
}

StatusOr<DeltaLogContents> ReadDeltaLog(const std::string& path) {
  StatusOr<std::string> bytes = ReadWholeFile(path);
  if (!bytes.ok()) return bytes.status();
  Status header = ValidateHeader(bytes->data(), bytes->size());
  if (!header.ok()) return header;

  DeltaLogContents contents;
  contents.file_bytes = bytes->size();
  size_t pos = kDeltaLogHeaderSize;
  contents.valid_bytes = pos;
  while (pos < bytes->size()) {
    if (bytes->size() - pos < 8) {
      contents.torn_tail = true;  // frame header cut off mid-append
      break;
    }
    uint32_t length, crc;
    std::memcpy(&length, bytes->data() + pos, sizeof(length));
    std::memcpy(&crc, bytes->data() + pos + 4, sizeof(crc));
    size_t record_index = contents.records.size();
    if (length > kDeltaMaxRecordBytes) {
      return DataLossError("delta log " + path + ": record " +
                           std::to_string(record_index) +
                           " claims an impossible length " +
                           std::to_string(length));
    }
    if (bytes->size() - pos - 8 < length) {
      contents.torn_tail = true;  // payload cut off mid-append
      break;
    }
    const char* payload = bytes->data() + pos + 8;
    uint32_t actual = Crc32(std::string_view(payload, length));
    if (DIME_FAULT_POINT(failpoints::kStoreDeltaCorrupt)) actual = ~actual;
    if (actual != crc) {
      return DataLossError("delta log " + path + ": record " +
                           std::to_string(record_index) +
                           " failed its CRC check (acknowledged data is "
                           "damaged)");
    }
    DeltaRecord record;
    if (!DecodePayload(payload, length, &record)) {
      return DataLossError("delta log " + path + ": record " +
                           std::to_string(record_index) +
                           " passed its CRC but does not parse");
    }
    contents.records.push_back(std::move(record));
    pos += 8 + length;
    contents.valid_bytes = pos;
  }
  return contents;
}

Status ApplyDeltaRecords(const std::vector<DeltaRecord>& records,
                         Group* group, size_t* applied) {
  size_t touched = 0;
  for (size_t r = 0; r < records.size(); ++r) {
    const DeltaRecord& record = records[r];
    if (record.group != group->name) continue;
    std::string where =
        "delta record " + std::to_string(r) + " (" +
        std::string(DeltaOpName(record.op)) + " '" + record.entity_id + "')";
    int index = FindEntity(*group, record.entity_id);
    switch (record.op) {
      case DeltaRecord::Op::kAdd: {
        if (index >= 0) {
          return InvalidArgumentError(where + ": entity id already present");
        }
        if (record.values.size() != group->schema.size()) {
          return SchemaMismatchError(
              where + ": " + std::to_string(record.values.size()) +
              " values against a " + std::to_string(group->schema.size()) +
              "-attribute schema");
        }
        Entity entity;
        entity.id = record.entity_id;
        entity.values = record.values;
        group->entities.push_back(std::move(entity));
        if (!group->truth.empty()) group->truth.push_back(0);
        break;
      }
      case DeltaRecord::Op::kRemove: {
        if (index < 0) return NotFoundError(where + ": no such entity");
        group->entities.erase(group->entities.begin() + index);
        if (!group->truth.empty()) {
          group->truth.erase(group->truth.begin() + index);
        }
        break;
      }
      case DeltaRecord::Op::kEdit: {
        if (index < 0) return NotFoundError(where + ": no such entity");
        if (record.values.size() != group->schema.size()) {
          return SchemaMismatchError(
              where + ": " + std::to_string(record.values.size()) +
              " values against a " + std::to_string(group->schema.size()) +
              "-attribute schema");
        }
        group->entities[index].values = record.values;
        break;
      }
    }
    ++touched;
  }
  if (applied != nullptr) *applied = touched;
  return OkStatus();
}

}  // namespace dime
