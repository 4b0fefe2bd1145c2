#ifndef DIME_STORE_DELTA_LOG_H_
#define DIME_STORE_DELTA_LOG_H_

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/common/status.h"
#include "src/entity/entity.h"

/// \file delta_log.h
/// The between-snapshots mutation stream: an append-only, CRC-framed log
/// of entity add/remove/edit events against a named group. A live
/// categorization system emits these continuously; the snapshot store
/// (snapshot.h) freezes a corpus at a point in time, and the delta log is
/// everything that happened since. A merge applies the records in bulk:
/// the serving layer re-prepares the groups the log touched, shares every
/// other group with the serving epoch, and swaps the result in as a new
/// epoch (see epoch.h and DimeService::ApplyDeltaLog). `dime_delta replay`
/// does the same for one group offline.
///
/// On-disk layout (native-endian, like the snapshot format):
///
///   header (16 B): magic "DIMEDLT\n" | u32 version | u8 endian | 3 x 0
///   record*:       u32 payload_len | u32 crc32(payload) | payload
///   payload:       u32 op | str group | str entity_id
///                  | u64 value_count { u64 item_count { str item }* }*
///                  (str = u64 length + bytes; values only for add/edit)
///
/// Torn tails vs corruption. A crash mid-append legitimately leaves a
/// truncated final record; readers drop it and report `torn_tail` — the
/// acknowledged prefix is intact. A CRC mismatch *inside* the stream is
/// damage to acknowledged data: DATA_LOSS, and consumers must keep
/// serving the last good epoch instead of trusting any suffix.
///
/// Producer/merger handoff. Every DeltaLogWriter::Append runs under the
/// log file's exclusive flock(2), so appends from concurrent producers
/// (even across processes) never interleave mid-frame. The serving
/// layer's merge-and-rotate (DimeService::ApplyDeltaLog) takes the same
/// lock to prove quiescence — the log did not grow past the prefix it
/// merged — before renaming the applied log aside. A producer whose log
/// was rotated out from under its open descriptor detects the rename on
/// its next locked append and transparently reopens a fresh log at the
/// original path, so no acknowledged record is ever silently dropped.
///
/// Failpoint "store/delta-corrupt" forces the next record's CRC check to
/// fail, so every degradation path is deterministic to test.

namespace dime {

inline constexpr char kDeltaLogMagic[8] = {'D', 'I', 'M', 'E',
                                           'D', 'L', 'T', '\n'};
inline constexpr uint32_t kDeltaLogFormatVersion = 1;
inline constexpr size_t kDeltaLogHeaderSize = 16;
/// A record larger than this is structural damage, not data.
inline constexpr uint32_t kDeltaMaxRecordBytes = 64u << 20;

/// One corpus mutation event.
struct DeltaRecord {
  enum class Op : uint32_t { kAdd = 1, kRemove = 2, kEdit = 3 };
  Op op = Op::kAdd;
  std::string group;      ///< Group::name the event applies to
  std::string entity_id;  ///< Entity::id added / removed / replaced
  /// Parallel to the corpus schema for kAdd/kEdit; empty for kRemove.
  std::vector<AttributeValue> values;
};

const char* DeltaOpName(DeltaRecord::Op op);
bool DeltaOpFromName(std::string_view name, DeltaRecord::Op* op);

/// Serializes one record payload (no frame). Exposed for tests that build
/// corrupt frames byte by byte.
std::string EncodeDeltaPayload(const DeltaRecord& record);

/// Appends records to a delta log file. Creates the file (with header) on
/// first open; appends after validating the header otherwise. Appends are
/// serialized by the file's flock, so concurrent producers — and the
/// serving layer's merge-and-rotate — interoperate safely (see the
/// handoff protocol above).
class DeltaLogWriter {
 public:
  /// IO_ERROR when the file cannot be created, opened, or locked;
  /// PARSE_ERROR when `path` exists but is not a delta log.
  static StatusOr<DeltaLogWriter> Open(const std::string& path);

  DeltaLogWriter(DeltaLogWriter&&) = default;
  DeltaLogWriter& operator=(DeltaLogWriter&&) = default;
  ~DeltaLogWriter();

  /// Frames, checksums and appends one record under the log's flock, then
  /// flushes the stdio buffer (a crash after Append returns can tear at
  /// most the record the OS was still writing). If the log was rotated
  /// aside since the last append, the writer reopens a fresh log at the
  /// original path first.
  Status Append(const DeltaRecord& record);

  uint64_t records_appended() const { return records_appended_; }

 private:
  DeltaLogWriter(std::string path, std::FILE* file)
      : path_(std::move(path)), file_(file) {}

  /// Acquires the flock on file_ and guarantees path_ still names its
  /// inode, reopening a fresh log when a rotation won the race. On OK the
  /// lock is HELD; the caller releases it.
  Status LockCurrentLog();

  struct FileCloser {
    void operator()(std::FILE* f) const {
      if (f != nullptr) std::fclose(f);
    }
  };
  std::string path_;
  std::unique_ptr<std::FILE, FileCloser> file_;
  uint64_t records_appended_ = 0;
};

/// Exclusive hold on a delta log for the merge-and-rotate sequence: the
/// same flock DeltaLogWriter::Append takes per record, so while held no
/// producer append is in flight and none can start. Lets the merger
/// verify that the log did not grow past the prefix it read (quiescence)
/// and then rename the applied log aside without losing a single
/// acknowledged record. Not copyable; released on destruction.
class DeltaLogLock {
 public:
  DeltaLogLock() = default;
  ~DeltaLogLock() { Release(); }
  DeltaLogLock(const DeltaLogLock&) = delete;
  DeltaLogLock& operator=(const DeltaLogLock&) = delete;

  /// Opens `path` and blocks until the exclusive flock is held.
  /// NOT_FOUND when the log does not exist, IO_ERROR otherwise.
  Status Acquire(const std::string& path);
  bool held() const { return fd_ >= 0; }

  /// Current size of the locked file in bytes (fstat on the held
  /// descriptor — immune to a concurrent rename of the path).
  StatusOr<uint64_t> SizeNow() const;

  /// Renames the locked log to `rotated_path`. If the rename fails,
  /// truncates the log to its bare header instead — either way the
  /// applied records can never be applied twice. The lock stays held.
  Status RotateTo(const std::string& rotated_path);

  void Release();

 private:
  std::string path_;
  int fd_ = -1;
};

struct DeltaLogContents {
  std::vector<DeltaRecord> records;
  /// Bytes of the validated prefix (header + intact records).
  uint64_t valid_bytes = 0;
  /// Total bytes read from the file — equals valid_bytes unless a torn
  /// tail was dropped. The merge-and-rotate quiescence check compares
  /// this against the file size under the log's flock.
  uint64_t file_bytes = 0;
  /// True when a truncated final record was dropped (crash mid-append).
  bool torn_tail = false;
};

/// Reads and validates a delta log.
///   NOT_FOUND     the file cannot be opened
///   IO_ERROR      reading failed
///   PARSE_ERROR   not a delta log (magic/version/endian)
///   DATA_LOSS     a CRC mismatch or malformed payload inside the stream;
///                 the message names the failing record index
StatusOr<DeltaLogContents> ReadDeltaLog(const std::string& path);

/// Applies `records` to `group` in order. Records naming other groups are
/// skipped; for the targeted group:
///   kAdd     appends the entity (INVALID_ARGUMENT on duplicate id or a
///            value count that disagrees with `group->schema`)
///   kRemove  erases the entity by id (NOT_FOUND when absent)
///   kEdit    replaces the entity's values in place (NOT_FOUND / schema
///            check as above)
/// On error the group is left in the state reached so far — callers that
/// need atomicity apply to a copy (DimeService::ApplyDeltaLog does).
/// `applied`, when non-null, counts the records that touched the group.
Status ApplyDeltaRecords(const std::vector<DeltaRecord>& records,
                         Group* group, size_t* applied = nullptr);

}  // namespace dime

#endif  // DIME_STORE_DELTA_LOG_H_
