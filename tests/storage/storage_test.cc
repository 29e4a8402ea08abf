// The storage seam: MemEnv/RealEnv contract, AtomicWrite durability
// discipline (tmp unlinked on every error path, previous content
// untouched), and the FaultyEnv action mapping.
#include <gtest/gtest.h>

#include <cerrno>
#include <cstdio>
#include <ostream>
#include <string>
#include <vector>

#include "sleepwalk/storage/faulty_env.h"
#include "sleepwalk/storage/file.h"
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

}  // namespace
}  // namespace sleepwalk
