// The delta log's contract (store/delta_log.h): an append-only CRC-framed
// mutation stream where a torn tail (crash mid-append) is survivable —
// the acknowledged prefix replays intact — while mid-stream corruption is
// DATA_LOSS, never a crash and never silently wrong data. Applying a log
// to a base group must land on exactly the merged group; the live-corpus
// tests (server_service_test.cc) pin that a merged epoch's decisions
// equal a batch run over it.

#include "src/store/delta_log.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "src/common/fault_injection.h"

namespace dime {
namespace {

std::string TestPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

DeltaRecord AddRecord(const std::string& group, const std::string& id,
                      std::vector<AttributeValue> values) {
  DeltaRecord record;
  record.op = DeltaRecord::Op::kAdd;
  record.group = group;
  record.entity_id = id;
  record.values = std::move(values);
  return record;
}

/// Three records against a two-attribute schema; record 1 is the
/// corruption-matrix target (mid-stream: damage there must never be
/// mistaken for a torn tail).
std::vector<DeltaRecord> SampleRecords() {
  std::vector<DeltaRecord> records;
  records.push_back(AddRecord("page_0", "p1", {{"Xu Chu"}, {"ICDE"}}));
  records.push_back(
      AddRecord("page_0", "p2", {{"Ihab Ilyas", "Paolo Papotti"}, {"VLDB"}}));
  DeltaRecord remove;
  remove.op = DeltaRecord::Op::kRemove;
  remove.group = "page_0";
  remove.entity_id = "p1";
  records.push_back(remove);
  return records;
}

std::string WriteSampleLog(const std::string& name) {
  std::string path = TestPath(name);
  std::remove(path.c_str());
  StatusOr<DeltaLogWriter> writer = DeltaLogWriter::Open(path);
  EXPECT_TRUE(writer.ok()) << writer.status().ToString();
  for (const DeltaRecord& record : SampleRecords()) {
    EXPECT_TRUE(writer->Append(record).ok());
  }
  return path;
}

TEST(DeltaLogTest, RoundTripPreservesEveryField) {
  std::string path = WriteSampleLog("delta_roundtrip.dlt");
  StatusOr<DeltaLogContents> contents = ReadDeltaLog(path);
  ASSERT_TRUE(contents.ok()) << contents.status().ToString();
  EXPECT_FALSE(contents->torn_tail);
  std::vector<DeltaRecord> expected = SampleRecords();
  ASSERT_EQ(contents->records.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(contents->records[i].op, expected[i].op) << i;
    EXPECT_EQ(contents->records[i].group, expected[i].group) << i;
    EXPECT_EQ(contents->records[i].entity_id, expected[i].entity_id) << i;
    EXPECT_EQ(contents->records[i].values, expected[i].values) << i;
  }
  EXPECT_EQ(contents->valid_bytes, ReadFileBytes(path).size());
  EXPECT_EQ(contents->file_bytes, contents->valid_bytes);
}

TEST(DeltaLogTest, ReopenAppendsAfterValidatingHeader) {
  std::string path = WriteSampleLog("delta_reopen.dlt");
  {
    StatusOr<DeltaLogWriter> writer = DeltaLogWriter::Open(path);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE(
        writer->Append(AddRecord("page_0", "p9", {{"A"}, {"B"}})).ok());
  }
  StatusOr<DeltaLogContents> contents = ReadDeltaLog(path);
  ASSERT_TRUE(contents.ok());
  EXPECT_EQ(contents->records.size(), 4u);

  // A file that is not a delta log refuses the append outright.
  std::string bogus = TestPath("delta_bogus.dlt");
  WriteFileBytes(bogus, "this is not a delta log at all............");
  StatusOr<DeltaLogWriter> writer = DeltaLogWriter::Open(bogus);
  ASSERT_FALSE(writer.ok());
  EXPECT_EQ(writer.status().code(), StatusCode::kParseError);
}

TEST(DeltaLogTest, WriterSurvivesRotationByReopeningAFreshLog) {
  std::string path = TestPath("delta_rotated.dlt");
  std::remove(path.c_str());
  std::string rotated = path + ".applied.2";
  std::remove(rotated.c_str());

  StatusOr<DeltaLogWriter> writer = DeltaLogWriter::Open(path);
  ASSERT_TRUE(writer.ok()) << writer.status().ToString();
  ASSERT_TRUE(
      writer->Append(AddRecord("page_0", "before", {{"A"}, {"B"}})).ok());

  // A merge rotates the applied log aside while this writer still holds
  // an open stream on the old inode (the fd follows the rename).
  ASSERT_EQ(std::rename(path.c_str(), rotated.c_str()), 0);
  ASSERT_TRUE(
      writer->Append(AddRecord("page_0", "after", {{"A"}, {"B"}})).ok());

  // The rotated file kept only the pre-rotation record — the writer did
  // NOT keep appending to a file nothing will ever merge again...
  StatusOr<DeltaLogContents> applied = ReadDeltaLog(rotated);
  ASSERT_TRUE(applied.ok()) << applied.status().ToString();
  ASSERT_EQ(applied->records.size(), 1u);
  EXPECT_EQ(applied->records[0].entity_id, "before");

  // ...the post-rotation record landed in a fresh log at the original
  // path, complete with its own header.
  StatusOr<DeltaLogContents> fresh = ReadDeltaLog(path);
  ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
  ASSERT_EQ(fresh->records.size(), 1u);
  EXPECT_EQ(fresh->records[0].entity_id, "after");
}

TEST(DeltaLogTest, LockHoldsOffAppendsAndRotatesAside) {
  std::string path = TestPath("delta_locked.dlt");
  std::remove(path.c_str());
  std::string rotated = path + ".applied.9";
  std::remove(rotated.c_str());
  {
    StatusOr<DeltaLogWriter> writer = DeltaLogWriter::Open(path);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE(
        writer->Append(AddRecord("page_0", "p1", {{"A"}, {"B"}})).ok());
  }

  DeltaLogLock lock;
  ASSERT_TRUE(lock.Acquire(path).ok());
  StatusOr<uint64_t> size = lock.SizeNow();
  ASSERT_TRUE(size.ok());
  EXPECT_EQ(*size, ReadFileBytes(path).size());
  ASSERT_TRUE(lock.RotateTo(rotated).ok());
  lock.Release();

  // The applied log moved aside whole; the original path is free for the
  // next producer to start a fresh log.
  StatusOr<DeltaLogContents> applied = ReadDeltaLog(rotated);
  ASSERT_TRUE(applied.ok());
  EXPECT_EQ(applied->records.size(), 1u);
  StatusOr<DeltaLogContents> gone = ReadDeltaLog(path);
  ASSERT_FALSE(gone.ok());
  EXPECT_EQ(gone.status().code(), StatusCode::kNotFound);

  // Locking a missing log reports NOT_FOUND (the merge's trigger already
  // checked the size, so this is a should-not-happen guard).
  DeltaLogLock missing;
  EXPECT_EQ(missing.Acquire(path).code(), StatusCode::kNotFound);
}

TEST(DeltaLogTest, MissingFileIsNotFound) {
  StatusOr<DeltaLogContents> contents =
      ReadDeltaLog(TestPath("no_such_delta.dlt"));
  ASSERT_FALSE(contents.ok());
  EXPECT_EQ(contents.status().code(), StatusCode::kNotFound);
}

TEST(DeltaLogTest, TornTailDropsOnlyTheFinalRecord) {
  std::string path = WriteSampleLog("delta_torn.dlt");
  std::string bytes = ReadFileBytes(path);
  // Cut into the last record's payload (well past its 8-byte frame
  // header) — the classic crash-mid-append shape.
  std::string torn_path = TestPath("delta_torn_cut.dlt");
  WriteFileBytes(torn_path, bytes.substr(0, bytes.size() - 3));
  StatusOr<DeltaLogContents> contents = ReadDeltaLog(torn_path);
  ASSERT_TRUE(contents.ok()) << contents.status().ToString();
  EXPECT_TRUE(contents->torn_tail);
  EXPECT_EQ(contents->records.size(), 2u);
  // file_bytes covers the torn bytes too — the quiescence check must see
  // the whole file, not just the intact prefix.
  EXPECT_EQ(contents->file_bytes, bytes.size() - 3);
  EXPECT_LT(contents->valid_bytes, contents->file_bytes);

  // Cutting inside the final frame header (< 8 bytes of it present) is
  // the same story.
  size_t last_frame = static_cast<size_t>(contents->valid_bytes);
  WriteFileBytes(torn_path, bytes.substr(0, last_frame + 5));
  contents = ReadDeltaLog(torn_path);
  ASSERT_TRUE(contents.ok());
  EXPECT_TRUE(contents->torn_tail);
  EXPECT_EQ(contents->records.size(), 2u);
}

/// The corruption matrix: flip one byte in every field of a MID-STREAM
/// record (frame length, frame CRC, payload op / group / entity id /
/// values) and require the reader to refuse the log — DATA_LOSS for
/// anything that damages acknowledged bytes. A flip in the length field
/// may instead make the stream look truncated; that must still never
/// surface the damaged suffix as records.
TEST(DeltaLogTest, MidStreamByteFlipInEveryFieldIsRefused) {
  std::string path = WriteSampleLog("delta_matrix.dlt");
  std::string clean = ReadFileBytes(path);

  // Record 1's frame starts after the header and record 0's frame.
  size_t rec0_payload =
      EncodeDeltaPayload(SampleRecords()[0]).size();
  size_t frame = kDeltaLogHeaderSize + 8 + rec0_payload;
  std::string rec1_group = SampleRecords()[1].group;
  size_t payload = frame + 8;

  struct Field {
    const char* name;
    size_t offset;
    bool may_look_torn;  // length flips can mimic truncation
  };
  size_t group_bytes = payload + 4 + 8;           // u32 op | u64 len | chars
  size_t entity_bytes = group_bytes + rec1_group.size() + 8;
  size_t rec1_payload = EncodeDeltaPayload(SampleRecords()[1]).size();
  const Field fields[] = {
      {"frame-length", frame + 0, true},
      {"frame-crc", frame + 4, false},
      {"payload-op", payload + 0, false},
      {"payload-group", group_bytes, false},
      {"payload-entity-id", entity_bytes, false},
      {"payload-values", payload + rec1_payload - 1, false},
  };
  for (const Field& field : fields) {
    std::string corrupt = clean;
    ASSERT_LT(field.offset, corrupt.size()) << field.name;
    corrupt[field.offset] =
        static_cast<char>(corrupt[field.offset] ^ 0x5A);
    std::string corrupt_path = TestPath("delta_matrix_flip.dlt");
    WriteFileBytes(corrupt_path, corrupt);
    StatusOr<DeltaLogContents> contents = ReadDeltaLog(corrupt_path);
    if (contents.ok()) {
      ASSERT_TRUE(field.may_look_torn && contents->torn_tail) << field.name;
      // The damaged suffix must be dropped, never decoded.
      EXPECT_LE(contents->records.size(), 1u) << field.name;
    } else {
      EXPECT_EQ(contents.status().code(), StatusCode::kDataLoss)
          << field.name << ": " << contents.status().ToString();
    }
  }
}

TEST(DeltaLogTest, CorruptFailpointForcesTheCrcPath) {
  std::string path = WriteSampleLog("delta_failpoint.dlt");
  ScopedFailpoint corrupt(failpoints::kStoreDeltaCorrupt);
  StatusOr<DeltaLogContents> contents = ReadDeltaLog(path);
  ASSERT_FALSE(contents.ok());
  EXPECT_EQ(contents.status().code(), StatusCode::kDataLoss);
}

TEST(DeltaLogTest, ImpossibleLengthIsDataLossNotAllocation) {
  std::string path = WriteSampleLog("delta_length.dlt");
  std::string bytes = ReadFileBytes(path);
  uint32_t huge = kDeltaMaxRecordBytes + 1;
  std::memcpy(bytes.data() + kDeltaLogHeaderSize, &huge, sizeof(huge));
  WriteFileBytes(path, bytes);
  StatusOr<DeltaLogContents> contents = ReadDeltaLog(path);
  ASSERT_FALSE(contents.ok());
  EXPECT_EQ(contents.status().code(), StatusCode::kDataLoss);
}

TEST(DeltaLogTest, ApplySemanticsAddRemoveEdit) {
  Group group;
  group.name = "page_0";
  group.schema = Schema({"Authors", "Venue"});
  Entity base;
  base.id = "p0";
  base.values = {{"Anne"}, {"ICDE"}};
  group.entities.push_back(base);
  group.truth = {0};

  std::vector<DeltaRecord> records = SampleRecords();  // add p1, p2; rm p1
  size_t applied = 0;
  ASSERT_TRUE(ApplyDeltaRecords(records, &group, &applied).ok());
  EXPECT_EQ(applied, 3u);
  ASSERT_EQ(group.size(), 2u);
  EXPECT_EQ(group.entities[0].id, "p0");
  EXPECT_EQ(group.entities[1].id, "p2");
  EXPECT_EQ(group.truth.size(), 2u);  // truth tracked through add+remove

  // Records for other groups are skipped, not errors.
  std::vector<DeltaRecord> other{AddRecord("page_9", "x", {{"A"}, {"B"}})};
  applied = 99;
  ASSERT_TRUE(ApplyDeltaRecords(other, &group, &applied).ok());
  EXPECT_EQ(applied, 0u);
  EXPECT_EQ(group.size(), 2u);

  // Edit replaces values in place.
  DeltaRecord edit;
  edit.op = DeltaRecord::Op::kEdit;
  edit.group = "page_0";
  edit.entity_id = "p2";
  edit.values = {{"Someone Else"}, {"SIGMOD"}};
  ASSERT_TRUE(ApplyDeltaRecords({edit}, &group).ok());
  EXPECT_EQ(group.entities[1].values[1], AttributeValue{"SIGMOD"});

  // Error taxonomy: duplicate add, remove/edit of a missing id, schema
  // disagreement.
  EXPECT_EQ(ApplyDeltaRecords({AddRecord("page_0", "p2", {{"A"}, {"B"}})},
                              &group)
                .code(),
            StatusCode::kInvalidArgument);
  DeltaRecord rm_missing;
  rm_missing.op = DeltaRecord::Op::kRemove;
  rm_missing.group = "page_0";
  rm_missing.entity_id = "ghost";
  EXPECT_EQ(ApplyDeltaRecords({rm_missing}, &group).code(),
            StatusCode::kNotFound);
  EXPECT_EQ(
      ApplyDeltaRecords({AddRecord("page_0", "p3", {{"only-one"}})}, &group)
          .code(),
      StatusCode::kSchemaMismatch);
}

}  // namespace
}  // namespace dime
