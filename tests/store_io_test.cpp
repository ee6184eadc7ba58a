// Whole-store persistence: bit-exact round trips for every backend, plus
// rejection of corrupted, truncated, and foreign inputs.
#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "store/store.h"
#include "store/store_io.h"
#include "util/xorwow.h"

namespace {

using namespace gf;
using store::backend_kind;

constexpr backend_kind kAllBackends[] = {
    backend_kind::tcf, backend_kind::gqf, backend_kind::blocked_bloom};

store::filter_store populated(backend_kind backend, uint64_t seed) {
  store::store_config cfg;
  cfg.backend = backend;
  cfg.num_shards = 4;
  cfg.capacity = 1 << 14;
  store::filter_store s(cfg);
  auto keys = util::hashed_xorwow_items(9000, seed);
  s.insert_bulk(keys);
  return s;
}

// A snapshot path private to this process: ctest runs this suite at
// several pool widths at once, and the runs must not share files.
std::string temp_path(const std::string& name) {
  return std::string(::testing::TempDir()) + name + "_" +
         std::to_string(::getpid()) + ".gfs";
}

TEST(StoreIo, RoundTripsBitExactEveryBackend) {
  for (backend_kind backend : kAllBackends) {
    auto s = populated(backend, 301);
    std::stringstream first;
    store::save_store(s, first);

    std::stringstream replay(first.str());
    auto loaded = store::load_store(replay);

    // Geometry and contents survive.
    EXPECT_EQ(loaded.num_shards(), s.num_shards()) << backend_name(backend);
    EXPECT_EQ(loaded.config().backend, backend);
    EXPECT_EQ(loaded.config().capacity, s.config().capacity);
    EXPECT_EQ(loaded.size(), s.size()) << backend_name(backend);
    auto keys = util::hashed_xorwow_items(9000, 301);
    EXPECT_EQ(loaded.count_contained(keys), keys.size())
        << backend_name(backend);

    // Bit-exact: re-serializing the loaded store reproduces the original
    // byte stream.
    std::stringstream second;
    store::save_store(loaded, second);
    EXPECT_EQ(first.str(), second.str()) << backend_name(backend);
  }
}

TEST(StoreIo, LoadedStoreStaysOperational) {
  auto s = populated(backend_kind::gqf, 311);
  std::stringstream buf;
  store::save_store(s, buf);
  auto loaded = store::load_store(buf);

  ASSERT_TRUE(loaded.insert(0xC0FFEE, 3));
  EXPECT_EQ(loaded.count(0xC0FFEE), 3u);
  loaded.enqueue_insert(0xF00D);
  auto r = loaded.flush();
  EXPECT_EQ(r.inserted, 1u);
  EXPECT_TRUE(loaded.contains(0xF00D));
}

TEST(StoreIo, FileRoundTrip) {
  const std::string path = temp_path("store_io_test");
  auto s = populated(backend_kind::tcf, 321);
  store::save_store(s, path);
  auto loaded = store::load_store(path);
  auto keys = util::hashed_xorwow_items(9000, 321);
  EXPECT_EQ(loaded.count_contained(keys), keys.size());
  std::remove(path.c_str());
}

TEST(StoreIo, RejectsGarbage) {
  std::stringstream garbage("definitely not a filter store file");
  EXPECT_THROW(store::load_store(garbage), std::runtime_error);
}

TEST(StoreIo, RejectsTruncation) {
  auto s = populated(backend_kind::tcf, 331);
  std::stringstream buf;
  store::save_store(s, buf);
  std::string bytes = buf.str();

  // Cut mid-payload and mid-header.
  for (size_t keep : {bytes.size() / 2, size_t{10}}) {
    std::stringstream truncated(bytes.substr(0, keep));
    EXPECT_THROW(store::load_store(truncated), std::runtime_error);
  }
}

TEST(StoreIo, RejectsCorruptedHeader) {
  auto s = populated(backend_kind::tcf, 341);
  std::stringstream buf;
  store::save_store(s, buf);
  std::string bytes = buf.str();

  // Backend field (offset 12, after u64 magic + u32 version) -> unknown.
  std::string bad_backend = bytes;
  bad_backend[12] = 0x7F;
  std::stringstream in1(bad_backend);
  EXPECT_THROW(store::load_store(in1), std::runtime_error);

  // Shard count field (offset 16) -> absurd.
  std::string bad_shards = bytes;
  bad_shards[16] = static_cast<char>(0xFF);
  bad_shards[17] = static_cast<char>(0xFF);
  bad_shards[18] = static_cast<char>(0xFF);
  bad_shards[19] = static_cast<char>(0xFF);
  std::stringstream in2(bad_shards);
  EXPECT_THROW(store::load_store(in2), std::runtime_error);

  // Version field (offset 8) -> future version.
  std::string bad_version = bytes;
  bad_version[8] = 0x42;
  std::stringstream in3(bad_version);
  EXPECT_THROW(store::load_store(in3), std::runtime_error);
}

TEST(StoreIo, RejectsForeignFilterFile) {
  // A bare TCF file is not a store file.
  tcf::point_tcf f(1 << 10);
  std::stringstream buf;
  f.save(buf);
  EXPECT_THROW(store::load_store(buf), std::runtime_error);
}

TEST(StoreIo, RejectsPayloadDisagreement) {
  // Declare gqf in the header but follow with a TCF payload: the backend
  // loader's own magic check fires.
  store::store_config cfg;
  cfg.backend = backend_kind::gqf;
  cfg.num_shards = 1;
  cfg.capacity = 1 << 10;
  std::stringstream buf;
  util::write_header(buf, store::kStoreMagic, store::kStoreVersion);
  util::write_pod<uint32_t>(buf, static_cast<uint32_t>(cfg.backend));
  util::write_pod<uint32_t>(buf, cfg.num_shards);
  util::write_pod<uint64_t>(buf, cfg.capacity);
  util::write_pod<uint64_t>(buf, cfg.capacity);  // shard capacity
  util::write_pod<uint64_t>(buf, 0);             // live items
  tcf::point_tcf f(1 << 10);
  f.save(buf);
  EXPECT_THROW(store::load_store(buf), std::runtime_error);
}

// -- Atomic file saves -------------------------------------------------------
//
// save_store(path) stages the snapshot at path + ".tmp" and renames it
// over the target only after an fsync: at every instant the target is a
// complete snapshot.  One test plants the crash state directly (a partial
// tmp file that never reached rename), the other produces it for real
// with a SIGKILL torture loop.

TEST(StoreIo, CrashMidSaveKeepsPreviousSnapshot) {
  const std::string path = temp_path("gf_atomic_save_test");
  const std::string tmp = path + ".tmp";
  std::remove(path.c_str());
  std::remove(tmp.c_str());

  auto good = populated(backend_kind::tcf, 881);
  store::save_store(good, path);
  const std::string good_bytes = store::serialize_store(good);

  // Crash state: a later save died mid-write, leaving a partial tmp file
  // (any prefix of a different store's bytes) and never reaching rename.
  auto other = populated(backend_kind::tcf, 882);
  const std::string other_bytes = store::serialize_store(other);
  for (size_t cut : {size_t{0}, size_t{1}, size_t{17}, size_t{4096},
                     other_bytes.size() / 2, other_bytes.size() - 1}) {
    std::ofstream partial(tmp, std::ios::binary | std::ios::trunc);
    partial.write(other_bytes.data(),
                  static_cast<std::streamsize>(std::min(cut,
                                                        other_bytes.size())));
    partial.close();
    // The published snapshot is untouched by the dead tmp file.
    auto loaded = store::load_store(path);
    EXPECT_EQ(store::serialize_store(loaded), good_bytes) << "cut " << cut;
  }

  // A subsequent completed save replaces both the target and the stale tmp.
  store::save_store(other, path);
  EXPECT_EQ(store::serialize_store(store::load_store(path)), other_bytes);
  EXPECT_FALSE(std::ifstream(tmp).good()) << "tmp file left behind";
  std::remove(path.c_str());
}

TEST(StoreIo, SigkillDuringSaveLeavesLoadableSnapshot) {
  // The real thing: a child process saves in a tight loop and is SIGKILLed
  // at a different point each round; wherever the kill lands — mid-write,
  // mid-fsync, right before or after the rename — the snapshot at `path`
  // must stay loadable.
  const std::string path = temp_path("gf_atomic_sigkill_test");
  std::remove(path.c_str());
  std::remove((path + ".tmp").c_str());

  auto first = populated(backend_kind::tcf, 883);
  store::save_store(first, path);
  auto churn = populated(backend_kind::tcf, 884);

  for (int round = 0; round < 6; ++round) {
    pid_t pid = fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
      // Child: save forever; the parent's SIGKILL is the only way out.
      for (;;) store::save_store(churn, path);
    }
    ::usleep(2000 + 9000 * round);
    ASSERT_EQ(::kill(pid, SIGKILL), 0);
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFSIGNALED(status));
    // Interrupted wherever it was, the published snapshot loads and is one
    // of the two complete stores — never a torn hybrid.
    auto loaded = store::load_store(path);
    EXPECT_TRUE(loaded.size() == first.size() ||
                loaded.size() == churn.size())
        << "round " << round;
  }
  std::remove(path.c_str());
  std::remove((path + ".tmp").c_str());
}

}  // namespace
