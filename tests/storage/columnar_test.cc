// Hostile-input and round-trip coverage for the SLCK/SLPW v3 columnar
// container (storage/columnar.h): the mmap-facing reader must fail
// closed on truncations, misaligned offsets, CRC damage, version
// confusion, and padding tampering — and hand out aligned zero-copy
// typed spans when the file is intact.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "sleepwalk/net/checksum.h"
#include "sleepwalk/storage/columnar.h"
#include "sleepwalk/storage/file.h"

namespace sleepwalk {
namespace {

using storage::ColumnarReader;
using storage::ColumnarWriter;
using storage::kColumnarAlignBytes;
using storage::kColumnarPageBytes;

constexpr std::uint32_t kKind = 7;
constexpr std::uint64_t kFingerprint = 0xfeedface12345678ULL;
constexpr std::uint64_t kGeneration = 42;

std::vector<std::uint8_t> SampleImage() {
  ColumnarWriter writer{"SLCK", kKind, kFingerprint, kGeneration};
  std::vector<std::uint64_t> ids{10, 20, 30, 40, 50};
  std::vector<double> values{0.5, 0.25, 0.125, 1.0, 0.0};
  std::vector<std::uint8_t> blob{1, 2, 3};
  writer.AddTyped<std::uint64_t>(1, ids);
  writer.AddTyped<double>(2, values);
  writer.Add(3, 1, blob);
  return writer.Finish();
}

storage::Error Parse(ColumnarReader& reader,
                     const std::vector<std::uint8_t>& image) {
  return reader.Parse(image, "SLCK", "test.slck");
}

TEST(Columnar, RoundTripExposesHeaderAndTypedSpans) {
  const auto image = SampleImage();
  ASSERT_GT(image.size(), kColumnarPageBytes)
      << "payloads must live past the page-aligned data region start";

  ColumnarReader reader;
  ASSERT_TRUE(Parse(reader, image).ok());
  EXPECT_EQ(reader.kind(), kKind);
  EXPECT_EQ(reader.fingerprint(), kFingerprint);
  EXPECT_EQ(reader.generation(), kGeneration);
  ASSERT_EQ(reader.columns().size(), 3u);

  std::span<const std::uint64_t> ids;
  ASSERT_TRUE(reader.FetchTyped<std::uint64_t>(1, 5, ids));
  EXPECT_EQ(ids[0], 10u);
  EXPECT_EQ(ids[4], 50u);

  std::span<const double> values;
  ASSERT_TRUE(reader.FetchTyped<double>(2, 5, values));
  EXPECT_EQ(values[3], 1.0);

  // Zero-copy: the spans point into the caller's buffer, at an in-file
  // offset on the container's cache-line grid (the absolute address
  // alignment is the *mapping's* job — Env::Map returns page-aligned
  // regions; a heap vector only promises malloc alignment).
  const auto* base = image.data();
  const auto* ids_bytes = reinterpret_cast<const std::uint8_t*>(ids.data());
  EXPECT_GE(ids_bytes, base + kColumnarPageBytes);
  EXPECT_LT(ids_bytes, base + image.size());
  EXPECT_EQ(static_cast<std::size_t>(ids_bytes - base) % kColumnarAlignBytes,
            0u);

  // Fetch demands the exact row count and element width.
  EXPECT_FALSE(reader.FetchTyped<std::uint64_t>(1, 4, ids));
  std::span<const std::uint32_t> narrow;
  EXPECT_FALSE(reader.FetchTyped<std::uint32_t>(1, 5, narrow));
  EXPECT_EQ(reader.Find(99), nullptr);
}

TEST(Columnar, DeterministicEncode) {
  EXPECT_EQ(SampleImage(), SampleImage());
}

TEST(Columnar, EveryTruncationIsDetected) {
  const auto image = SampleImage();
  for (std::size_t keep = 0; keep < image.size(); ++keep) {
    std::vector<std::uint8_t> cut{image.begin(),
                                  image.begin() + static_cast<long>(keep)};
    ColumnarReader reader;
    EXPECT_FALSE(Parse(reader, cut).ok()) << "kept " << keep << " bytes";
  }
}

TEST(Columnar, EverySingleByteCorruptionIsDetected) {
  const auto image = SampleImage();
  for (std::size_t i = 0; i < image.size(); ++i) {
    auto bent = image;
    bent[i] ^= 0x01;
    ColumnarReader reader;
    EXPECT_FALSE(Parse(reader, bent).ok()) << "flipped byte " << i;
  }
}

TEST(Columnar, FlippedPaddingByteIsNamed) {
  // The CRCs only frame header, directory, and payloads; the padding in
  // between is guarded by the explicit zero-scan. Flip a byte in the
  // inter-region padding (just before the data page boundary) and
  // check the refusal names it.
  auto image = SampleImage();
  const std::size_t pad = kColumnarPageBytes - 1;
  ASSERT_EQ(image[pad], 0u);
  image[pad] = 0xa5;
  ColumnarReader reader;
  const auto error = Parse(reader, image);
  ASSERT_FALSE(error.ok());
  EXPECT_NE(error.detail.find("nonzero padding"), std::string::npos)
      << error.ToString();
}

TEST(Columnar, TrailingBytesAreRefused) {
  auto image = SampleImage();
  image.push_back(0x00);
  ColumnarReader reader;
  const auto error = Parse(reader, image);
  ASSERT_FALSE(error.ok());
  EXPECT_NE(error.detail.find("trailing"), std::string::npos)
      << error.ToString();
}

TEST(Columnar, V2HeaderIsRefusedWithRemediation) {
  // A v2 checkpoint must not be parsed as v3 garbage: craft the minimal
  // v2-looking prefix (magic + version 2) and expect a version refusal
  // that names v2, not a CRC or truncation complaint.
  std::vector<std::uint8_t> v2(64, 0);
  std::memcpy(v2.data(), "SLCK", 4);
  const std::uint32_t version = 2;
  std::memcpy(v2.data() + 4, &version, sizeof(version));
  ColumnarReader reader;
  const auto error = reader.Parse(v2, "SLCK", "old.slck");
  ASSERT_FALSE(error.ok());
  EXPECT_NE(error.detail.find("v2"), std::string::npos) << error.ToString();
}

TEST(Columnar, BadMagicIsRefused) {
  auto image = SampleImage();
  image[0] = 'X';
  ColumnarReader reader;
  const auto error = Parse(reader, image);
  ASSERT_FALSE(error.ok());
  EXPECT_NE(error.detail.find("magic"), std::string::npos);
}

// Forgery helper: rewrite a directory field and recompute both the
// directory CRC and (if asked) a column CRC, so the tamper survives the
// checksum gauntlet and the *structural* validation has to catch it.
struct Forger {
  std::vector<std::uint8_t> image;
  static constexpr std::size_t kHeaderBytes = 36;
  static constexpr std::size_t kEntryBytes = 36;

  std::uint32_t n_columns() const {
    std::uint32_t n = 0;
    std::memcpy(&n, image.data() + 28, sizeof(n));
    return n;
  }
  std::size_t EntryOffset(std::size_t index) const {
    return kHeaderBytes + index * kEntryBytes;
  }
  template <typename T>
  void SetEntryField(std::size_t index, std::size_t field_offset, T value) {
    std::memcpy(image.data() + EntryOffset(index) + field_offset, &value,
                sizeof(value));
  }
  void ResealDirectory() {
    const std::size_t dir_bytes = n_columns() * kEntryBytes;
    const std::uint32_t crc = net::Crc32cOf(
        {image.data() + kHeaderBytes, dir_bytes});
    std::memcpy(image.data() + kHeaderBytes + dir_bytes, &crc, sizeof(crc));
  }
};

TEST(Columnar, MisalignedColumnOffsetIsRefusedEvenWithValidCrcs) {
  Forger forger{SampleImage()};
  // Entry layout: u32 id | u32 elem_width | u64 rows | u64 offset
  // | u64 byte_len | u32 crc. Nudge column 0's offset off the 64-byte
  // grid and reseal the directory CRC; the payload CRC check would now
  // read shifted bytes, so also give the entry the CRC of those bytes.
  std::uint64_t offset = 0;
  std::memcpy(&offset, forger.image.data() + forger.EntryOffset(0) + 16,
              sizeof(offset));
  std::uint64_t byte_len = 0;
  std::memcpy(&byte_len, forger.image.data() + forger.EntryOffset(0) + 24,
              sizeof(byte_len));
  const std::uint64_t bent_offset = offset + 8;  // still 8-aligned, not 64
  forger.SetEntryField(0, 16, bent_offset);
  forger.SetEntryField(
      0, 32,
      net::Crc32cOf({forger.image.data() + bent_offset,
                     static_cast<std::size_t>(byte_len)}));
  forger.ResealDirectory();

  ColumnarReader reader;
  const auto error = Parse(reader, forger.image);
  ASSERT_FALSE(error.ok());
  EXPECT_NE(error.detail.find("misaligned"), std::string::npos)
      << error.ToString();
}

TEST(Columnar, RowWidthLengthMismatchIsRefusedEvenWithValidCrcs) {
  Forger forger{SampleImage()};
  forger.SetEntryField<std::uint64_t>(0, 8, 4);  // rows: 5 -> 4
  forger.ResealDirectory();
  ColumnarReader reader;
  const auto error = Parse(reader, forger.image);
  ASSERT_FALSE(error.ok());
  EXPECT_NE(error.detail.find("rows * width"), std::string::npos)
      << error.ToString();
}

TEST(Columnar, WrappedRowCountIsRefusedEvenWithValidCrcs) {
  // A u32[2] column claiming rows = 2^62 + 2: rows * 4 wraps to 8 in u64,
  // so a multiplying check would let As<uint32_t>() type ~4.6e18
  // elements over 8 bytes.
  ColumnarWriter writer{"SLCK", kKind, kFingerprint, kGeneration};
  const std::uint32_t two[2] = {7, 9};
  writer.AddTyped<std::uint32_t>(1, two);
  Forger forger{writer.Finish()};
  ColumnarReader reader;
  ASSERT_TRUE(Parse(reader, forger.image).ok());
  forger.SetEntryField<std::uint64_t>(0, 8, (1ull << 62) + 2);
  forger.ResealDirectory();
  const auto error = Parse(reader, forger.image);
  ASSERT_FALSE(error.ok());
  EXPECT_NE(error.detail.find("rows * width"), std::string::npos)
      << error.ToString();
  EXPECT_TRUE(reader.columns().empty());

  // A byte length that is not a whole number of elements.
  Forger ragged{writer.Finish()};
  ragged.SetEntryField<std::uint64_t>(0, 8, 1);
  ragged.SetEntryField<std::uint64_t>(0, 24, 6);
  ragged.ResealDirectory();
  EXPECT_FALSE(Parse(reader, ragged.image).ok());
}

TEST(Columnar, OverlappingPayloadsAreRefusedEvenWithValidCrcs) {
  Forger forger{SampleImage()};
  // Point column 1 (the doubles) at column 0's extent. Same byte_len
  // (both 40 bytes), so rows*width still checks out; reseal both CRCs.
  std::uint64_t offset0 = 0;
  std::memcpy(&offset0, forger.image.data() + forger.EntryOffset(0) + 16,
              sizeof(offset0));
  std::uint64_t byte_len = 0;
  std::memcpy(&byte_len, forger.image.data() + forger.EntryOffset(1) + 24,
              sizeof(byte_len));
  forger.SetEntryField(1, 16, offset0);
  forger.SetEntryField(
      1, 32,
      net::Crc32cOf({forger.image.data() + offset0,
                     static_cast<std::size_t>(byte_len)}));
  forger.ResealDirectory();

  ColumnarReader reader;
  const auto error = Parse(reader, forger.image);
  ASSERT_FALSE(error.ok());
  // The duplicate extent leaves either an overlap or orphaned nonzero
  // bytes where column 1 used to live; both are structural refusals.
  EXPECT_TRUE(error.detail.find("overlap") != std::string::npos ||
              error.detail.find("nonzero padding") != std::string::npos)
      << error.ToString();
}

TEST(Columnar, PeekContainerVersionSniffsWithoutValidation) {
  const auto image = SampleImage();
  EXPECT_EQ(storage::PeekContainerVersion(image, "SLCK"),
            storage::kColumnarVersion);
  EXPECT_EQ(storage::PeekContainerVersion(image, "SLPW"), std::nullopt);
  const std::vector<std::uint8_t> tiny{'S', 'L', 'C', 'K'};
  EXPECT_EQ(storage::PeekContainerVersion(tiny, "SLCK"), std::nullopt);
}

std::vector<std::uint8_t> Concatenate(const storage::ColumnarParts& layout) {
  std::vector<std::uint8_t> bytes;
  for (const auto part : layout.parts()) {
    bytes.insert(bytes.end(), part.begin(), part.end());
  }
  return bytes;
}

TEST(Columnar, LayoutPartsConcatenateToFinish) {
  // Zero columns: the head, then padding to the page-aligned data start.
  ColumnarWriter none{"SLPW", 1, 2, 3};
  EXPECT_EQ(Concatenate(none.Layout()), none.Finish());
  EXPECT_EQ(none.Layout().size(), kColumnarPageBytes);

  // Empty columns: directory entries with no payload bytes, between and
  // after non-empty ones.
  ColumnarWriter empty{"SLCK", kKind, kFingerprint, kGeneration};
  const std::uint8_t three[3] = {1, 2, 3};
  empty.Add(1, 8, {});
  empty.Add(2, 1, three);
  empty.Add(3, 4, {});
  const auto image = empty.Finish();
  EXPECT_EQ(Concatenate(empty.Layout()), image);
  EXPECT_EQ(empty.Layout().size(), image.size());
  ColumnarReader reader;
  ASSERT_TRUE(Parse(reader, image).ok());
  EXPECT_EQ(reader.columns().size(), 3u);

  ColumnarWriter sample{"SLCK", kKind, kFingerprint, kGeneration};
  const std::uint64_t ids[5] = {10, 20, 30, 40, 50};
  sample.AddTypedBorrowed<std::uint64_t>(1, ids);
  sample.Add(3, 1, three);
  EXPECT_EQ(Concatenate(sample.Layout()), sample.Finish());
}

TEST(Columnar, WriteGathersTheFinishedImage) {
  ColumnarWriter writer{"SLCK", kKind, kFingerprint, kGeneration};
  const double values[3] = {0.5, 0.25, 0.125};
  const std::uint8_t blob[5] = {9, 8, 7, 6, 5};
  writer.AddTypedBorrowed<double>(2, values);
  writer.Add(4, 1, blob);
  storage::MemEnv env;
  ASSERT_TRUE(writer.Write(env, "/d/c.slck").ok());
  std::vector<std::uint8_t> written;
  ASSERT_TRUE(env.ReadAll("/d/c.slck", written).ok());
  EXPECT_EQ(written, writer.Finish());
  EXPECT_FALSE(env.Exists("/d/c.slck.tmp"));
}

TEST(Columnar, EmptyContainerRoundTrips) {
  ColumnarWriter writer{"SLPW", 1, 1, 1};
  const auto image = writer.Finish();
  ColumnarReader reader;
  ASSERT_TRUE(reader.Parse(image, "SLPW").ok());
  EXPECT_TRUE(reader.columns().empty());
}

}  // namespace
}  // namespace sleepwalk
