// The storage seam: MemEnv/RealEnv contract, AtomicWrite durability
// discipline (tmp unlinked on every error path, previous content
// untouched), the FaultyEnv action mapping, MemEnv's shared-buffer Map
// (regions keep their bytes through rewrites, removes and appends), and
// gathered AppendParts parity across every Env and decorator.
#include <gtest/gtest.h>

#include <algorithm>
#include <cerrno>
#include <climits>
#include <cstdio>
#include <memory>
#include <ostream>
#include <span>
#include <string>
#include <vector>

#include "sleepwalk/obs/context.h"
#include "sleepwalk/obs/metrics.h"
#include "sleepwalk/storage/faulty_env.h"
#include "sleepwalk/storage/file.h"
#include "sleepwalk/storage/instrumented_env.h"
#include "sleepwalk/util/failpoint.h"

namespace sleepwalk {
namespace {

using storage::AtomicWrite;
using storage::MemEnv;
using util::FailpointSet;

std::vector<std::uint8_t> Bytes(const std::string& text) {
  return {text.begin(), text.end()};
}

std::string ReadString(storage::Env& env, const std::string& path) {
  std::vector<std::uint8_t> out;
  const auto error = env.ReadAll(path, out);
  if (!error.ok()) {
    ADD_FAILURE() << "ReadAll " << path << ": " << error.ToString();
    return {};
  }
  return {out.begin(), out.end()};
}

TEST(MemEnv, CreateAppendCloseRoundTrips) {
  MemEnv env;
  storage::Error error;
  auto file = env.Create("/d/a", error);
  ASSERT_TRUE(error.ok()) << error.ToString();
  ASSERT_NE(file, nullptr);
  const auto payload = Bytes("hello");
  ASSERT_TRUE(file->Append(payload).ok());
  ASSERT_TRUE(file->Close().ok());
  EXPECT_TRUE(env.Exists("/d/a"));
  EXPECT_EQ(ReadString(env, "/d/a"), "hello");
}

TEST(MemEnv, RenameReplacesAndLinkRefusesExistingTarget) {
  MemEnv env;
  ASSERT_TRUE(AtomicWrite(env, "/d/a", Bytes("new")).ok());
  ASSERT_TRUE(AtomicWrite(env, "/d/b", Bytes("old")).ok());
  ASSERT_TRUE(env.Rename("/d/a", "/d/b").ok());
  EXPECT_FALSE(env.Exists("/d/a"));
  EXPECT_EQ(ReadString(env, "/d/b"), "new");

  ASSERT_TRUE(env.Link("/d/b", "/d/c").ok());
  EXPECT_EQ(ReadString(env, "/d/c"), "new");
  EXPECT_FALSE(env.Link("/d/b", "/d/c").ok());  // target exists

  EXPECT_FALSE(env.Rename("/d/missing", "/d/x").ok());
  EXPECT_FALSE(env.Remove("/d/missing").ok());
  std::vector<std::uint8_t> out;
  EXPECT_FALSE(env.ReadAll("/d/missing", out).ok());
}

TEST(MemEnv, ListReturnsSortedNamesOfOneDirectory) {
  MemEnv env;
  ASSERT_TRUE(AtomicWrite(env, "/d/b", Bytes("1")).ok());
  ASSERT_TRUE(AtomicWrite(env, "/d/a", Bytes("2")).ok());
  ASSERT_TRUE(AtomicWrite(env, "/other/c", Bytes("3")).ok());
  const auto names = env.List("/d");
  EXPECT_EQ(names, (std::vector<std::string>{"a", "b"}));
}

TEST(DirName, SplitsAtLastSlash) {
  EXPECT_EQ(storage::DirName("/a/b/c.slck"), "/a/b");
  EXPECT_EQ(storage::DirName("c.slck"), ".");
  EXPECT_EQ(storage::DirName("/c.slck"), "/");
}

TEST(RealEnv, AtomicWriteRoundTripsOnDisk) {
  auto& env = storage::RealEnvInstance();
  const std::string path = testing::TempDir() + "/storage_test_real.bin";
  ASSERT_TRUE(AtomicWrite(env, path, Bytes("payload-1")).ok());
  EXPECT_EQ(ReadString(env, path), "payload-1");
  // Replacement is atomic: the new content fully supersedes the old.
  ASSERT_TRUE(AtomicWrite(env, path, Bytes("p2")).ok());
  EXPECT_EQ(ReadString(env, path), "p2");
  EXPECT_FALSE(env.Exists(path + ".tmp"));
  ASSERT_TRUE(env.Remove(path).ok());
  EXPECT_FALSE(env.Exists(path));
}

// --- AtomicWrite failure paths --------------------------------------------
//
// One test per failing step; all must (a) report the failing op with its
// errno, (b) leave no .tmp file behind, and (c) leave the file content
// in a defined state: the previous content for every step up to the
// rename, the new content when only the final directory sync failed
// (the rename already published it; the error still surfaces because
// durability across a power cut is now uncertain).

struct AtomicWriteFailCase {
  const char* spec;     // failpoint armed
  const char* op;       // expected Error.op
  int err;              // expected Error.err
  const char* content;  // expected file content after the failure
};

// Names each case by its failpoint spec. Without a printer gtest shows the
// raw struct bytes, pointers included, and the discovered ctest names
// change with every load address.
void PrintTo(const AtomicWriteFailCase& param, std::ostream* os) {
  *os << param.spec;
}

class AtomicWriteFailure
    : public testing::TestWithParam<AtomicWriteFailCase> {};

TEST_P(AtomicWriteFailure, RemovesTmpAndPreservesPrevious) {
  const auto& param = GetParam();
  MemEnv mem;
  ASSERT_TRUE(AtomicWrite(mem, "/d/f", Bytes("previous")).ok());

  FailpointSet failpoints;
  ASSERT_TRUE(FailpointSet::Parse(param.spec, failpoints));
  storage::FaultyEnv env{mem, failpoints};

  const auto error = AtomicWrite(env, "/d/f", Bytes("replacement"));
  ASSERT_FALSE(error.ok());
  EXPECT_EQ(error.op, param.op);
  EXPECT_EQ(error.err, param.err);
  EXPECT_FALSE(mem.Exists("/d/f.tmp")) << "leaked temp file";
  EXPECT_EQ(ReadString(mem, "/d/f"), param.content);
}

INSTANTIATE_TEST_SUITE_P(
    EveryStep, AtomicWriteFailure,
    testing::Values(
        AtomicWriteFailCase{"storage.create=eio", "create", EIO, "previous"},
        AtomicWriteFailCase{"storage.append=eio", "append", EIO, "previous"},
        AtomicWriteFailCase{"storage.append=enospc", "append", ENOSPC,
                            "previous"},
        AtomicWriteFailCase{"storage.append=short", "append", ENOSPC,
                            "previous"},
        AtomicWriteFailCase{"storage.sync=eio", "sync", EIO, "previous"},
        AtomicWriteFailCase{"storage.close=eio", "close", EIO, "previous"},
        AtomicWriteFailCase{"storage.rename=eio", "rename", EIO, "previous"},
        AtomicWriteFailCase{"storage.syncdir=eio", "syncdir", EIO,
                            "replacement"}));

TEST(AtomicWrite, ShortWriteReportsByteCounts) {
  MemEnv mem;
  FailpointSet failpoints;
  ASSERT_TRUE(FailpointSet::Parse("storage.append=short", failpoints));
  storage::FaultyEnv env{mem, failpoints};
  const auto error = AtomicWrite(env, "/d/f", Bytes("123456"));
  ASSERT_FALSE(error.ok());
  EXPECT_NE(error.detail.find("short write"), std::string::npos);
  EXPECT_NE(error.ToString().find("short write"), std::string::npos);
}

TEST(AtomicWrite, CrashPropagatesAndLeavesTmpLikeAPowerCut) {
  MemEnv mem;
  ASSERT_TRUE(AtomicWrite(mem, "/d/f", Bytes("previous")).ok());
  FailpointSet failpoints;
  ASSERT_TRUE(FailpointSet::Parse("storage.sync=crash", failpoints));
  storage::FaultyEnv env{mem, failpoints};
  bool crashed = false;
  try {
    AtomicWrite(env, "/d/f", Bytes("replacement"));
  } catch (const util::CrashInjected& crash) {
    crashed = true;
    EXPECT_EQ(crash.site, "storage.sync");
  }
  ASSERT_TRUE(crashed);
  // The "process died" mid-write: the temp file stays exactly as a real
  // crash would leave it, and the published content is untouched.
  EXPECT_EQ(ReadString(mem, "/d/f"), "previous");
}

TEST(AtomicWrite, TornCrashLeavesHalfWrittenTmpOnly) {
  MemEnv mem;
  ASSERT_TRUE(AtomicWrite(mem, "/d/f", Bytes("previous")).ok());
  FailpointSet failpoints;
  ASSERT_TRUE(FailpointSet::Parse("storage.append=torn", failpoints));
  storage::FaultyEnv env{mem, failpoints};
  EXPECT_THROW(AtomicWrite(env, "/d/f", Bytes("123456")),
               util::CrashInjected);
  EXPECT_EQ(ReadString(mem, "/d/f"), "previous");
}

TEST(FaultyEnv, NonAppendSitesCoverEveryOperation) {
  MemEnv mem;
  ASSERT_TRUE(AtomicWrite(mem, "/d/f", Bytes("x")).ok());
  FailpointSet failpoints;
  ASSERT_TRUE(FailpointSet::Parse(
      "storage.read=eio,storage.link=enospc,storage.remove=eio", failpoints));
  storage::FaultyEnv env{mem, failpoints};
  std::vector<std::uint8_t> out;
  EXPECT_EQ(env.ReadAll("/d/f", out).err, EIO);
  EXPECT_EQ(env.Link("/d/f", "/d/g").err, ENOSPC);
  EXPECT_EQ(env.Remove("/d/f").err, EIO);
  // The one-shot specs disarmed; everything works again.
  EXPECT_TRUE(env.ReadAll("/d/f", out).ok());
  EXPECT_TRUE(env.Link("/d/f", "/d/g").ok());
  EXPECT_TRUE(env.Remove("/d/g").ok());
}

// --- MemEnv shared-buffer Map ----------------------------------------------
//
// Map on MemEnv shares the file's buffer instead of copying it (parity
// with RealEnv's mmap). The contract: a region's bytes never change
// after Map returns, whatever happens to the path, and the decorators
// pass the shared region through untouched.

/// MemEnv bare or under each decorator; every op still lands in `mem`.
class MemEnvStack {
 public:
  explicit MemEnvStack(const std::string& kind) {
    if (kind == "faulty") {
      env_ = std::make_unique<storage::FaultyEnv>(mem_, failpoints_);
    } else if (kind == "instrumented") {
      env_ = std::make_unique<storage::InstrumentedEnv>(
          mem_, obs::Context{nullptr, &registry_, nullptr});
    }
  }
  storage::Env& env() { return env_ != nullptr ? *env_ : mem_; }
  MemEnv& mem() { return mem_; }

 private:
  MemEnv mem_;
  FailpointSet failpoints_;
  obs::Registry registry_;
  std::unique_ptr<storage::Env> env_;
};

std::string RegionString(const storage::MappedRegion& region) {
  return {region.bytes().begin(), region.bytes().end()};
}

class MemEnvMap : public testing::TestWithParam<std::string> {};

TEST_P(MemEnvMap, SharesTheFileBufferInsteadOfCopying) {
  MemEnvStack stack{GetParam()};
  auto& env = stack.env();
  ASSERT_TRUE(AtomicWrite(env, "/d/f", Bytes("shared")).ok());
  storage::MappedRegion first;
  storage::MappedRegion second;
  ASSERT_TRUE(env.Map("/d/f", first).ok());
  ASSERT_TRUE(env.Map("/d/f", second).ok());
  EXPECT_EQ(RegionString(first), "shared");
  EXPECT_EQ(first.bytes().data(), second.bytes().data())
      << "MemEnv::Map copied the file";
  EXPECT_FALSE(first.zero_copy()) << "zero_copy() means a live mmap";
}

TEST_P(MemEnvMap, RegionKeepsItsBytesWhenThePathIsRewritten) {
  MemEnvStack stack{GetParam()};
  auto& env = stack.env();
  ASSERT_TRUE(AtomicWrite(env, "/d/f", Bytes("generation-1")).ok());
  storage::MappedRegion region;
  ASSERT_TRUE(env.Map("/d/f", region).ok());
  ASSERT_TRUE(AtomicWrite(env, "/d/f", Bytes("gen-2")).ok());
  EXPECT_EQ(RegionString(region), "generation-1");
  EXPECT_EQ(ReadString(stack.mem(), "/d/f"), "gen-2");
}

TEST_P(MemEnvMap, RegionKeepsItsBytesWhenThePathIsRemoved) {
  MemEnvStack stack{GetParam()};
  auto& env = stack.env();
  ASSERT_TRUE(AtomicWrite(env, "/d/f", Bytes("doomed")).ok());
  storage::MappedRegion region;
  ASSERT_TRUE(env.Map("/d/f", region).ok());
  ASSERT_TRUE(env.Remove("/d/f").ok());
  EXPECT_FALSE(stack.mem().Exists("/d/f"));
  EXPECT_EQ(RegionString(region), "doomed");
}

TEST_P(MemEnvMap, AppendByAnOpenFileCopiesOnWrite) {
  MemEnvStack stack{GetParam()};
  auto& env = stack.env();
  storage::Error error;
  auto file = env.Create("/d/log", error);
  ASSERT_NE(file, nullptr) << error.ToString();
  ASSERT_TRUE(file->Append(Bytes("head")).ok());
  storage::MappedRegion region;
  ASSERT_TRUE(env.Map("/d/log", region).ok());
  const std::uint8_t* mapped = region.bytes().data();
  // Enough bytes to force any in-place growth to reallocate.
  const std::vector<std::uint8_t> tail(1 << 16, 0x5a);
  ASSERT_TRUE(file->Append(tail).ok());
  ASSERT_TRUE(file->Close().ok());
  EXPECT_EQ(region.bytes().data(), mapped);
  EXPECT_EQ(RegionString(region), "head");
  EXPECT_EQ(ReadString(stack.mem(), "/d/log").size(), 4 + tail.size());

  // Once the region lets go, a new writer appends in place again and
  // the next Map sees everything.
  region.Reset();
  storage::MappedRegion after;
  ASSERT_TRUE(env.Map("/d/log", after).ok());
  EXPECT_EQ(after.size(), 4 + tail.size());
}

TEST_P(MemEnvMap, ReadAllAndLinkStillCopy) {
  MemEnvStack stack{GetParam()};
  auto& env = stack.env();
  storage::Error error;
  auto file = env.Create("/d/f", error);
  ASSERT_NE(file, nullptr) << error.ToString();
  ASSERT_TRUE(file->Append(Bytes("base")).ok());
  ASSERT_TRUE(env.Link("/d/f", "/d/f.g1").ok());
  std::vector<std::uint8_t> read;
  ASSERT_TRUE(env.ReadAll("/d/f", read).ok());
  storage::MappedRegion region;
  ASSERT_TRUE(env.Map("/d/f", region).ok());
  EXPECT_NE(read.data(), region.bytes().data());
  storage::MappedRegion linked;
  ASSERT_TRUE(env.Map("/d/f.g1", linked).ok());
  EXPECT_NE(linked.bytes().data(), region.bytes().data())
      << "Link shares the inode's buffer";

  // The still-open writer grows the original; the link and the read
  // keep the bytes they were made from.
  ASSERT_TRUE(file->Append(Bytes("+more")).ok());
  ASSERT_TRUE(file->Close().ok());
  EXPECT_EQ(ReadString(stack.mem(), "/d/f"), "base+more");
  EXPECT_EQ(ReadString(stack.mem(), "/d/f.g1"), "base");
  EXPECT_EQ(std::string(read.begin(), read.end()), "base");
}

TEST_P(MemEnvMap, MissingPathReportsMapEnoent) {
  MemEnvStack stack{GetParam()};
  storage::MappedRegion region;
  const auto error = stack.env().Map("/d/missing", region);
  EXPECT_EQ(error.op, "map");
  EXPECT_EQ(error.err, ENOENT);
  EXPECT_EQ(region.size(), 0u);
}

INSTANTIATE_TEST_SUITE_P(EveryStack, MemEnvMap,
                         testing::Values("mem", "faulty", "instrumented"),
                         [](const testing::TestParamInfo<std::string>& info) {
                           return info.param;
                         });

// --- Gathered AppendParts -------------------------------------------------

/// Four parts, one of them empty: "alpha" + "" + "-beta-" + "gamma!".
struct Parts {
  std::vector<std::uint8_t> a = Bytes("alpha");
  std::vector<std::uint8_t> b;
  std::vector<std::uint8_t> c = Bytes("-beta-");
  std::vector<std::uint8_t> d = Bytes("gamma!");
  std::span<const std::uint8_t> spans[4] = {a, b, c, d};

  storage::ByteParts parts() const { return spans; }
  static std::string Joined() { return "alpha-beta-gamma!"; }
};

struct AtomicWritePartsCase {
  const char* spec;  // failpoint armed on the storage.append site
  bool crashes;      // CrashInjected instead of an Error
  int err;           // expected Error.err when it does not crash
  const char* tmp;   // temp file left behind, or nullptr for none
};

void PrintTo(const AtomicWritePartsCase& param, std::ostream* os) {
  *os << param.spec;
}

class AtomicWritePartsFailure
    : public testing::TestWithParam<AtomicWritePartsCase> {};

// One failpoint hit per gathered append whatever the part count, and a
// short or torn write cuts the concatenation at half its bytes.
TEST_P(AtomicWritePartsFailure, OneAppendOpAndHalfTheConcatenation) {
  const auto& param = GetParam();
  MemEnv mem;
  ASSERT_TRUE(AtomicWrite(mem, "/d/f", Bytes("previous")).ok());
  FailpointSet failpoints;
  ASSERT_TRUE(FailpointSet::Parse(param.spec, failpoints));
  storage::FaultyEnv env{mem, failpoints};
  const Parts parts;

  if (param.crashes) {
    EXPECT_THROW(AtomicWrite(env, "/d/f", parts.parts()),
                 util::CrashInjected);
  } else {
    const auto error = AtomicWrite(env, "/d/f", parts.parts());
    ASSERT_FALSE(error.ok());
    EXPECT_EQ(error.op, "append");
    EXPECT_EQ(error.err, param.err);
  }
  EXPECT_EQ(ReadString(mem, "/d/f"), "previous");
  if (param.tmp == nullptr) {
    EXPECT_FALSE(mem.Exists("/d/f.tmp")) << "leaked temp file";
  } else {
    EXPECT_EQ(ReadString(mem, "/d/f.tmp"), param.tmp);
  }
  // The one-shot spec is spent: the same gathered write now succeeds.
  ASSERT_TRUE(AtomicWrite(env, "/d/f", parts.parts()).ok());
  EXPECT_EQ(ReadString(mem, "/d/f"), Parts::Joined());
}

INSTANTIATE_TEST_SUITE_P(
    EveryAction, AtomicWritePartsFailure,
    testing::Values(
        AtomicWritePartsCase{"storage.append=eio", false, EIO, nullptr},
        AtomicWritePartsCase{"storage.append=enospc", false, ENOSPC, nullptr},
        AtomicWritePartsCase{"storage.append=short", false, ENOSPC, nullptr},
        AtomicWritePartsCase{"storage.append=crash", true, 0, ""},
        // 17 bytes: the first 8 span "alpha" and three of "-beta-".
        AtomicWritePartsCase{"storage.append=torn", true, 0, "alpha-be"}));

TEST(AppendParts, ShortWriteKeepsHalfTheConcatenationAndNamesTheCounts) {
  MemEnv mem;
  FailpointSet failpoints;
  ASSERT_TRUE(FailpointSet::Parse("storage.append=short", failpoints));
  storage::FaultyEnv env{mem, failpoints};
  storage::Error error;
  auto file = env.Create("/d/f", error);
  ASSERT_NE(file, nullptr);
  const Parts parts;
  error = file->AppendParts(parts.parts());
  EXPECT_EQ(error.err, ENOSPC);
  EXPECT_NE(error.detail.find("short write (8/17 bytes)"), std::string::npos)
      << error.ToString();
  EXPECT_EQ(ReadString(mem, "/d/f"), "alpha-be");
}

TEST(AppendParts, InstrumentedEnvCountsOneAppendOfTheSummedBytes) {
  MemEnv mem;
  obs::Registry registry;
  storage::InstrumentedEnv env{mem, obs::Context{nullptr, &registry, nullptr}};
  const Parts parts;
  ASSERT_TRUE(AtomicWrite(env, "/d/f", parts.parts()).ok());
  EXPECT_EQ(ReadString(mem, "/d/f"), Parts::Joined());
  EXPECT_EQ(registry.counter("storage_appends_total")->value(), 1.0);
  EXPECT_EQ(registry.counter("storage_bytes_written_total")->value(),
            static_cast<double>(Parts::Joined().size()));
}

TEST(AppendParts, RealEnvWritesMoreThanIovMaxPartsWithEmptyOnes) {
  // 3 * IOV_MAX + 5 parts, every fourth one empty, of lengths cycling
  // 1..7: more parts than one writev takes, so the batching and the
  // mid-part resume are exercised.
  const std::size_t n_parts = 3 * static_cast<std::size_t>(IOV_MAX) + 5;
  std::vector<std::vector<std::uint8_t>> owned(n_parts);
  std::vector<std::span<const std::uint8_t>> parts;
  std::vector<std::uint8_t> expected;
  for (std::size_t i = 0; i < n_parts; ++i) {
    if (i % 4 != 3) {
      owned[i].assign(1 + i % 7, static_cast<std::uint8_t>(i * 31));
    }
    parts.emplace_back(owned[i]);
    expected.insert(expected.end(), owned[i].begin(), owned[i].end());
  }
  auto& env = storage::RealEnvInstance();
  const std::string path = testing::TempDir() + "/storage_test_parts.bin";
  ASSERT_TRUE(AtomicWrite(env, path, parts).ok());
  std::vector<std::uint8_t> read;
  ASSERT_TRUE(env.ReadAll(path, read).ok());
  EXPECT_EQ(read, expected);
  storage::MappedRegion region;
  ASSERT_TRUE(env.Map(path, region).ok());
  EXPECT_TRUE(region.zero_copy());
  EXPECT_TRUE(std::equal(region.bytes().begin(), region.bytes().end(),
                         expected.begin(), expected.end()));
  region.Reset();
  ASSERT_TRUE(env.Remove(path).ok());
}

}  // namespace
}  // namespace sleepwalk
