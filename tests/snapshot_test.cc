// Tests for the snapshot store (src/store/): round-trip identity between
// a freshly prepared corpus and its snapshot-loaded twin, the mmap /
// read() fallback equivalence, envelope and version validation, and the
// corruption matrix — a single flipped byte in ANY section, and
// truncation at the footer, must yield a clean DATA_LOSS / PARSE_ERROR
// status, never a crash. The corruption cases run under ASan
// in CI like every other test.

#include "src/store/snapshot.h"

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <memory>
#include <fstream>
#include <string>
#include <string_view>
#include <vector>

#include "gtest/gtest.h"
#include "src/common/checksum.h"
#include "src/common/fault_injection.h"
#include "src/core/dime_plus.h"
#include "src/datagen/presets.h"
#include "src/datagen/scholar_gen.h"
#include "src/store/mapped_file.h"
#include "src/store/snapshot_format.h"

namespace dime {
namespace {

/// A small but representative corpus: two Scholar pages exercising every
/// representation (value lists, ontology maps via Venue/Title).
struct TestCorpus {
  ScholarSetup setup;
  std::vector<Group> groups;

  SnapshotWriteRequest Request() const {
    SnapshotWriteRequest request;
    request.groups = &groups;
    request.positive = &setup.positive;
    request.negative = &setup.negative;
    request.context = &setup.context;
    return request;
  }
};

TestCorpus MakeTestCorpus(uint64_t seed = 77, size_t pages = 2) {
  TestCorpus corpus;
  corpus.setup = MakeScholarSetup();
  for (size_t i = 0; i < pages; ++i) {
    ScholarGenOptions gen;
    gen.num_correct = 40;
    gen.seed = seed + i * 13;
    Group page =
        GenerateScholarGroup("Snapshot Owner " + std::to_string(i), gen);
    page.name = "snap_page_" + std::to_string(i);
    corpus.groups.push_back(std::move(page));
  }
  return corpus;
}

/// A scratch path private to the running test. ctest runs each test as
/// its own process, in parallel, so a path shared between tests would let
/// one test read another's half-written file.
std::string TempPath(const char* name) {
  const ::testing::TestInfo* test =
      ::testing::UnitTest::GetInstance()->current_test_info();
  return ::testing::TempDir() + "/" + test->test_suite_name() + "." +
         test->name() + "." + name;
}

void WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good());
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

class SnapshotTest : public ::testing::Test {
 protected:
  void TearDown() override { FaultInjection::DisarmAll(); }
};

TEST_F(SnapshotTest, RoundTripRunsIdentically) {
  TestCorpus corpus = MakeTestCorpus();
  const std::string path = TempPath("roundtrip.snap");
  ASSERT_TRUE(WriteSnapshot(corpus.Request(), path).ok());

  StatusOr<LoadedSnapshot> loaded = LoadSnapshot(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded->groups.size(), corpus.groups.size());
  ASSERT_EQ(loaded->prepared.size(), corpus.groups.size());
  EXPECT_EQ(loaded->positive.size(), corpus.setup.positive.size());
  EXPECT_EQ(loaded->negative.size(), corpus.setup.negative.size());
  EXPECT_EQ(loaded->schema.attribute_names(),
            corpus.groups[0].schema.attribute_names());

  for (size_t i = 0; i < corpus.groups.size(); ++i) {
    const PreparedGroup& warm = *loaded->prepared[i];
    ASSERT_EQ(warm.group, &loaded->groups[i]);
    // The rank columns borrow the loaded bytes instead of copying them.
    for (const PreparedAttr& attr : warm.attrs) {
      if (attr.has_value_list) {
        EXPECT_TRUE(attr.value_ranks.borrowed());
      }
    }

    PreparedGroup cold = PrepareGroup(corpus.groups[i], corpus.setup.positive,
                                      corpus.setup.negative,
                                      corpus.setup.context);
    DimeResult from_cold = RunDimePlus(cold, corpus.setup.positive,
                                       corpus.setup.negative);
    DimeResult from_warm =
        RunDimePlus(warm, loaded->positive, loaded->negative);
    EXPECT_EQ(from_cold.partitions, from_warm.partitions);
    EXPECT_EQ(from_cold.pivot, from_warm.pivot);
    EXPECT_EQ(from_cold.flagged_by_prefix, from_warm.flagged_by_prefix);
    EXPECT_EQ(from_cold.first_flagging_rule, from_warm.first_flagging_rule);
  }
}

TEST_F(SnapshotTest, RefsOfOneTreeShareItAfterALoad) {
  // The demo corpus maps Venue (ref 0) and Title (ref 1) onto the one
  // venue tree: the snapshot stores the tree once, and the load parses
  // it once and points both refs, in every prepared group, at it.
  Corpus demo = MakeDemoCorpus(2);
  SnapshotWriteRequest request;
  request.groups = &demo.groups;
  request.positive = &demo.positive;
  request.negative = &demo.negative;
  request.context = &demo.context;
  const std::string path = TempPath("demo.snap");
  ASSERT_TRUE(WriteSnapshot(request, path).ok());

  StatusOr<SnapshotInfo> info = InspectSnapshot(path);
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  const size_t tree_bytes = demo.context.ontologies[0].tree->ToText().size();
  for (const SnapshotInfo::Section& sec : info->sections) {
    if (sec.id == static_cast<uint32_t>(SnapshotSectionId::kOntologies)) {
      EXPECT_LT(sec.length, tree_bytes + 64);
    }
  }

  StatusOr<LoadedSnapshot> loaded = LoadSnapshot(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const std::vector<OntologyRef>& refs = loaded->context.ontologies;
  ASSERT_EQ(refs.size(), 2u);
  ASSERT_NE(refs[0].tree, nullptr);
  EXPECT_EQ(refs[0].tree, refs[1].tree);
  EXPECT_EQ(refs[0].mode, MapMode::kExactName);
  EXPECT_EQ(refs[1].mode, MapMode::kKeyword);
  EXPECT_EQ(refs[0].tree->ToText(), demo.context.ontologies[0].tree->ToText());
  for (const std::shared_ptr<PreparedGroup>& pg : loaded->prepared) {
    ASSERT_EQ(pg->context.ontologies.size(), 2u);
    EXPECT_EQ(pg->context.ontologies[0].tree, refs[0].tree);
    EXPECT_EQ(pg->context.ontologies[1].tree, refs[0].tree);
  }
}

TEST_F(SnapshotTest, ReadFallbackMatchesMmap) {
  TestCorpus corpus = MakeTestCorpus();
  const std::string path = TempPath("fallback.snap");
  ASSERT_TRUE(WriteSnapshot(corpus.Request(), path).ok());

  StatusOr<LoadedSnapshot> mapped = LoadSnapshot(path);
  ASSERT_TRUE(mapped.ok());
  EXPECT_TRUE(mapped->mapped);

  FaultInjection::Arm(failpoints::kStoreMmap, /*count=*/1);
  StatusOr<LoadedSnapshot> buffered = LoadSnapshot(path);
  ASSERT_TRUE(buffered.ok()) << buffered.status().ToString();
  EXPECT_FALSE(buffered->mapped);

  DimeResult a = RunDimePlus(*mapped->prepared[0], mapped->positive,
                             mapped->negative);
  DimeResult b = RunDimePlus(*buffered->prepared[0], buffered->positive,
                             buffered->negative);
  EXPECT_EQ(a.partitions, b.partitions);
  EXPECT_EQ(a.flagged_by_prefix, b.flagged_by_prefix);
  EXPECT_EQ(mapped->fingerprint_lo, buffered->fingerprint_lo);
  EXPECT_EQ(mapped->fingerprint_hi, buffered->fingerprint_hi);
}

TEST_F(SnapshotTest, PreferMmapFalseUsesFallback) {
  TestCorpus corpus = MakeTestCorpus(5, 1);
  const std::string path = TempPath("nommap.snap");
  ASSERT_TRUE(WriteSnapshot(corpus.Request(), path).ok());
  SnapshotLoadOptions options;
  options.prefer_mmap = false;
  StatusOr<LoadedSnapshot> loaded = LoadSnapshot(path, options);
  ASSERT_TRUE(loaded.ok());
  EXPECT_FALSE(loaded->mapped);
}

TEST_F(SnapshotTest, InspectReportsEnvelope) {
  TestCorpus corpus = MakeTestCorpus(3, 2);
  const std::string path = TempPath("inspect.snap");
  ASSERT_TRUE(WriteSnapshot(corpus.Request(), path).ok());
  StatusOr<SnapshotInfo> info = InspectSnapshot(path);
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->version, kSnapshotFormatVersion);
  EXPECT_TRUE(info->fingerprint_lo != 0 || info->fingerprint_hi != 0);
  // meta + rules + ontologies + per group (group, prepared).
  EXPECT_EQ(info->sections.size(), 3u + 2u * corpus.groups.size());
  // Every section id is present.
  for (SnapshotSectionId id :
       {SnapshotSectionId::kMeta, SnapshotSectionId::kRules,
        SnapshotSectionId::kOntologies, SnapshotSectionId::kGroup,
        SnapshotSectionId::kPrepared}) {
    bool found = false;
    for (const SnapshotInfo::Section& sec : info->sections) {
      found = found || sec.id == static_cast<uint32_t>(id);
    }
    EXPECT_TRUE(found) << SnapshotSectionIdName(static_cast<uint32_t>(id));
  }
}

TEST_F(SnapshotTest, VerifyShallowAndDeepPass) {
  TestCorpus corpus = MakeTestCorpus(11, 1);
  const std::string path = TempPath("verify.snap");
  ASSERT_TRUE(WriteSnapshot(corpus.Request(), path).ok());
  EXPECT_TRUE(VerifySnapshot(path).ok());
  Status deep = VerifySnapshot(path, /*deep=*/true);
  EXPECT_TRUE(deep.ok()) << deep.ToString();
}

TEST_F(SnapshotTest, FingerprintTracksContent) {
  TestCorpus a = MakeTestCorpus(21, 1);
  TestCorpus b = MakeTestCorpus(22, 1);
  StatusOr<std::string> image_a = SerializeSnapshot(a.Request());
  StatusOr<std::string> image_a2 = SerializeSnapshot(a.Request());
  StatusOr<std::string> image_b = SerializeSnapshot(b.Request());
  ASSERT_TRUE(image_a.ok() && image_a2.ok() && image_b.ok());
  // Deterministic serialization; distinct corpora get distinct images.
  EXPECT_EQ(*image_a, *image_a2);
  EXPECT_NE(*image_a, *image_b);
}

TEST_F(SnapshotTest, SerializeValidatesRequest) {
  SnapshotWriteRequest null_request;
  EXPECT_EQ(SerializeSnapshot(null_request).status().code(),
            StatusCode::kInvalidArgument);

  TestCorpus corpus = MakeTestCorpus(1, 1);
  std::vector<Group> empty;
  SnapshotWriteRequest no_groups = corpus.Request();
  no_groups.groups = &empty;
  EXPECT_EQ(SerializeSnapshot(no_groups).status().code(),
            StatusCode::kInvalidArgument);
}

// The rank arenas of a loaded group, copied out of whatever backs them
// (the mapping, for a mapped load).
std::vector<uint32_t> RankArenas(const PreparedGroup& pg) {
  std::vector<uint32_t> out;
  for (const PreparedAttr& attr : pg.attrs) {
    for (const RankColumn* column :
         {&attr.value_ranks, &attr.word_ranks, &attr.qgram_ranks}) {
      out.insert(out.end(), column->arena_ptr(),
                 column->arena_ptr() + column->total_ranks());
    }
  }
  return out;
}

TEST_F(SnapshotTest, RewriteLeavesALiveMappingIntact) {
  TestCorpus a = MakeTestCorpus(41, 2);
  TestCorpus b = MakeTestCorpus(42, 1);  // a smaller file than A
  const std::string path = TempPath("rewrite.snap");
  ASSERT_TRUE(WriteSnapshot(a.Request(), path).ok());
  const std::string image_a = ReadFile(path);

  StatusOr<LoadedSnapshot> loaded = LoadSnapshot(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_TRUE(loaded->mapped);
  StatusOr<MappedFile> raw = MappedFile::Open(path);
  ASSERT_TRUE(raw.ok());
  ASSERT_TRUE(raw->mapped());
  std::vector<DimeResult> before;
  std::vector<std::vector<uint32_t>> arenas;
  for (const auto& pg : loaded->prepared) {
    before.push_back(
        RunDimePlus(*pg, loaded->positive, loaded->negative));
    arenas.push_back(RankArenas(*pg));
    ASSERT_FALSE(arenas.back().empty());
  }

  // Rewrite the path with B while A is mapped, then make A fault its
  // pages back in: an in-place rewrite would shrink the file under the
  // mapping (SIGBUS) or hand back B's bytes.
  ASSERT_TRUE(WriteSnapshot(b.Request(), path).ok());
  raw->DropResidentPages();
  EXPECT_TRUE(std::string(reinterpret_cast<const char*>(raw->data()),
                          raw->size()) == image_a);
  for (size_t i = 0; i < loaded->prepared.size(); ++i) {
    const PreparedGroup& pg = *loaded->prepared[i];
    EXPECT_EQ(RankArenas(pg), arenas[i]);
    DimeResult after =
        RunDimePlus(pg, loaded->positive, loaded->negative);
    EXPECT_EQ(after.partitions, before[i].partitions);
    EXPECT_EQ(after.pivot, before[i].pivot);
    EXPECT_EQ(after.first_flagging_rule, before[i].first_flagging_rule);
    EXPECT_EQ(after.flagged_by_prefix, before[i].flagged_by_prefix);
  }

  // A fresh load sees B.
  StatusOr<LoadedSnapshot> fresh = LoadSnapshot(path);
  ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
  ASSERT_EQ(fresh->groups.size(), 1u);
  EXPECT_EQ(ReadFile(path), *SerializeSnapshot(b.Request()));
  EXPECT_TRUE(fresh->fingerprint_lo != loaded->fingerprint_lo ||
              fresh->fingerprint_hi != loaded->fingerprint_hi);
}

TEST_F(SnapshotTest, FailedRewriteLeavesNoTemporary) {
  TestCorpus corpus = MakeTestCorpus(43, 1);
  // A directory in the way: the write succeeds, the rename over it fails.
  const std::filesystem::path dir = TempPath("rewrite_blocked");
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir / "target.snap");
  EXPECT_EQ(WriteSnapshot(corpus.Request(), (dir / "target.snap").string())
                .code(),
            StatusCode::kIoError);
  EXPECT_TRUE(std::filesystem::is_directory(dir / "target.snap"));
  size_t entries = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    EXPECT_EQ(entry.path().filename(), "target.snap");
    ++entries;
  }
  EXPECT_EQ(entries, 1u);

  // An unwritable location fails cleanly too.
  EXPECT_EQ(
      WriteSnapshot(corpus.Request(), (dir / "missing" / "x.snap").string())
          .code(),
      StatusCode::kNotFound);
  std::filesystem::remove_all(dir);
}

TEST_F(SnapshotTest, MissingFileIsNotFound) {
  EXPECT_EQ(LoadSnapshot(TempPath("does_not_exist.snap")).status().code(),
            StatusCode::kNotFound);
}

// ---------------------------------------------------------------------------
// Hostile-bytes matrix. Every case must produce a descriptive Status;
// under ASan any out-of-bounds read would abort the test instead.

class SnapshotCorruptionTest : public SnapshotTest {
 protected:
  void SetUp() override {
    TestCorpus corpus = MakeTestCorpus(31, 1);
    StatusOr<std::string> serialized = SerializeSnapshot(corpus.Request());
    ASSERT_TRUE(serialized.ok());
    image_ = std::move(serialized).value();
    path_ = TempPath("corrupt.snap");
    WriteFile(path_, image_);
    StatusOr<SnapshotInfo> info = InspectSnapshot(path_);
    ASSERT_TRUE(info.ok());
    info_ = std::move(info).value();
  }

  /// Writes `bytes` to a scratch path and returns LoadSnapshot's status.
  Status LoadStatusOf(const std::string& bytes) {
    const std::string path = TempPath("corrupt_variant.snap");
    WriteFile(path, bytes);
    return LoadSnapshot(path).status();
  }

  /// Recomputes tail_crc (over the section table and the tail fields
  /// before it) after a test patched either.
  static void ResealTail(std::string* bytes) {
    const size_t tail = bytes->size() - kSnapshotTailSize;
    uint64_t table_offset;
    std::memcpy(&table_offset, &(*bytes)[tail], sizeof(table_offset));
    const uint32_t tail_crc = Crc32(std::string_view(*bytes).substr(
        table_offset, tail + 32 - table_offset));
    std::memcpy(&(*bytes)[tail + 32], &tail_crc, sizeof(tail_crc));
  }

  std::string image_;
  std::string path_;
  SnapshotInfo info_;
};

TEST_F(SnapshotCorruptionTest, SingleByteFlipInEverySectionIsDataLoss) {
  for (const SnapshotInfo::Section& sec : info_.sections) {
    ASSERT_GT(sec.length, 0u);
    std::string flipped = image_;
    flipped[sec.offset + sec.length / 2] ^= 0x40;
    Status status = LoadStatusOf(flipped);
    EXPECT_EQ(status.code(), StatusCode::kDataLoss)
        << SnapshotSectionIdName(sec.id) << "[" << sec.index
        << "]: " << status.ToString();
    // The error names the damaged section.
    EXPECT_NE(status.message().find(SnapshotSectionIdName(sec.id)),
              std::string::npos)
        << status.ToString();
  }
}

TEST_F(SnapshotCorruptionTest, FlippedTableByteIsDataLoss) {
  // Past the last section payload lies the table; tail_crc covers it.
  std::string flipped = image_;
  flipped[flipped.size() - kSnapshotTailSize - 4] ^= 0x01;
  EXPECT_EQ(LoadStatusOf(flipped).code(), StatusCode::kDataLoss);
}

TEST_F(SnapshotCorruptionTest, TruncatedFooterIsParseError) {
  for (size_t cut : {size_t{1}, size_t{17}, kSnapshotTailSize + 5}) {
    std::string truncated = image_.substr(0, image_.size() - cut);
    EXPECT_EQ(LoadStatusOf(truncated).code(), StatusCode::kParseError)
        << "cut=" << cut;
  }
  // Down to (and below) the minimum envelope.
  EXPECT_EQ(LoadStatusOf(image_.substr(0, 40)).code(),
            StatusCode::kParseError);
  EXPECT_EQ(LoadStatusOf(std::string()).code(), StatusCode::kParseError);
}

TEST_F(SnapshotCorruptionTest, BadMagicIsParseError) {
  std::string bad = image_;
  bad[0] = 'X';
  EXPECT_EQ(LoadStatusOf(bad).code(), StatusCode::kParseError);
}

TEST_F(SnapshotCorruptionTest, FutureVersionIsParseError) {
  // A newer version in the header alone, and older ones patched
  // consistently into header and tail (tail_crc recomputed), so that
  // only the version itself is wrong. Every entry point refuses each
  // and says how to fix it.
  std::string future = image_;
  future[8] = 99;  // little-endian low byte of the header version field
  auto older = [&](uint32_t version) {
    std::string bytes = image_;
    std::memcpy(&bytes[8], &version, sizeof(version));
    const size_t tail = bytes.size() - kSnapshotTailSize;
    std::memcpy(&bytes[tail + 12], &version, sizeof(version));
    ResealTail(&bytes);
    return bytes;
  };

  struct Case {
    uint32_t version;
    std::string bytes;
  };
  for (const Case& c :
       {Case{99, future}, Case{1, older(1)}, Case{2, older(2)}}) {
    const std::string path = TempPath("version_variant.snap");
    WriteFile(path, c.bytes);
    for (const Status& status :
         {LoadSnapshot(path).status(), InspectSnapshot(path).status(),
          VerifySnapshot(path)}) {
      EXPECT_EQ(status.code(), StatusCode::kParseError)
          << c.version << ": " << status.ToString();
      EXPECT_NE(
          status.message().find("version " + std::to_string(c.version)),
                std::string::npos)
          << status.ToString();
      EXPECT_NE(status.message().find("dime_snapshot build"),
                std::string::npos)
          << status.ToString();
    }
  }
}

TEST_F(SnapshotCorruptionTest, RefPastTheTreeCountIsDataLoss) {
  // The ontologies section: u64 tree count, each tree's text (u64 length
  // + bytes), u64 ref count, then per ref u32 tree index | u32 mode.
  // Point ref 0 one past the last tree and reseal every checksum, so the
  // bytes pass their CRCs and only the index is wrong.
  size_t entry = 0;
  while (info_.sections[entry].id !=
         static_cast<uint32_t>(SnapshotSectionId::kOntologies)) {
    ++entry;
  }
  const SnapshotInfo::Section& sec = info_.sections[entry];
  std::string bytes = image_;
  uint64_t trees, pos = sec.offset;
  std::memcpy(&trees, &bytes[pos], sizeof(trees));
  ASSERT_EQ(trees, 1u);  // the venue tree, shared by both refs
  pos += 8;
  for (uint64_t t = 0; t < trees; ++t) {
    uint64_t length;
    std::memcpy(&length, &bytes[pos], sizeof(length));
    pos += 8 + length;
  }
  uint64_t refs;
  std::memcpy(&refs, &bytes[pos], sizeof(refs));
  ASSERT_EQ(refs, 2u);
  pos += 8;
  for (uint32_t bad_index : {static_cast<uint32_t>(trees), UINT32_MAX}) {
    std::memcpy(&bytes[pos], &bad_index, sizeof(bad_index));
    const uint32_t crc =
        Crc32(std::string_view(bytes).substr(sec.offset, sec.length));
    uint64_t table_offset;
    std::memcpy(&table_offset,
                &bytes[bytes.size() - kSnapshotTailSize], sizeof(uint64_t));
    std::memcpy(&bytes[table_offset + entry * kSnapshotSectionEntrySize + 24],
                &crc, sizeof(crc));
    ResealTail(&bytes);

    const std::string path = TempPath("bad_tree_index.snap");
    WriteFile(path, bytes);
    for (const Status& status :
         {LoadSnapshot(path).status(), VerifySnapshot(path)}) {
      EXPECT_EQ(status.code(), StatusCode::kDataLoss) << status.ToString();
      EXPECT_NE(status.message().find("ontologies"), std::string::npos)
          << status.ToString();
    }
  }
}

TEST_F(SnapshotCorruptionTest, WrongEndianMarkerIsParseError) {
  std::string swapped = image_;
  swapped[12] = swapped[12] == 1 ? 2 : 1;
  EXPECT_EQ(LoadStatusOf(swapped).code(), StatusCode::kParseError);
}

TEST_F(SnapshotCorruptionTest, InspectIgnoresPayloadDamage) {
  // Envelope-only validation: a payload flip is invisible to inspect but
  // fatal to load/verify — the division of labor the tool doc promises.
  std::string flipped = image_;
  const SnapshotInfo::Section& sec = info_.sections.back();
  flipped[sec.offset + sec.length / 2] ^= 0x10;
  const std::string path = TempPath("inspect_damage.snap");
  WriteFile(path, flipped);
  EXPECT_TRUE(InspectSnapshot(path).ok());
  EXPECT_EQ(VerifySnapshot(path).code(), StatusCode::kDataLoss);
}

TEST_F(SnapshotTest, MappedFileRoundTripsBytes) {
  const std::string path = TempPath("mapped_file.bin");
  const std::string payload = "eight..\x01\x02\x03zzz";
  WriteFile(path, payload);
  StatusOr<MappedFile> mapped = MappedFile::Open(path);
  ASSERT_TRUE(mapped.ok());
  ASSERT_EQ(mapped->size(), payload.size());
  EXPECT_EQ(std::string(reinterpret_cast<const char*>(mapped->data()),
                        mapped->size()),
            payload);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(mapped->data()) % 8, 0u);
  // Dropped pages fault back in with the same bytes.
  mapped->DropResidentPages();
  EXPECT_EQ(std::string(reinterpret_cast<const char*>(mapped->data()),
                        mapped->size()),
            payload);

  FaultInjection::Arm(failpoints::kStoreMmap, 1);
  StatusOr<MappedFile> buffered = MappedFile::Open(path);
  ASSERT_TRUE(buffered.ok());
  EXPECT_FALSE(buffered->mapped());
  ASSERT_EQ(buffered->size(), payload.size());
  EXPECT_EQ(std::string(reinterpret_cast<const char*>(buffered->data()),
                        buffered->size()),
            payload);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(buffered->data()) % 8, 0u);
  buffered->DropResidentPages();  // a no-op off the mapping
  EXPECT_EQ(std::string(reinterpret_cast<const char*>(buffered->data()),
                        buffered->size()),
            payload);
}

}  // namespace
}  // namespace dime
