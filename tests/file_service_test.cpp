// Tests for the DRTS file service (S11): the full protocol surface, size
// limits, relocation behaviour, and concurrent clients.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "core/testbed.h"
#include "drts/file_service.h"
#include "ursa/corpus.h"

namespace ntcs::drts {
namespace {

using namespace std::chrono_literals;
using convert::Arch;

struct Rig {
  core::Testbed tb;
  std::unique_ptr<FileServer> server;
  std::unique_ptr<core::Node> client_node;
  std::unique_ptr<FileClient> fs;

  Rig() {
    tb.net("lan");
    tb.machine("vax1", Arch::vax780, {"lan"});
    tb.machine("sun1", Arch::sun3, {"lan"});
    EXPECT_TRUE(tb.start_name_server("vax1", "lan").ok());
    EXPECT_TRUE(tb.finalize().ok());
    server = std::make_unique<FileServer>(tb.node_config("", "sun1", "lan"));
    EXPECT_TRUE(server->start().ok());
    client_node = tb.spawn_module("fs-client", "vax1", "lan").value();
    fs = std::make_unique<FileClient>(*client_node);
    EXPECT_TRUE(fs->connect().ok());
  }
  ~Rig() {
    if (client_node) client_node->stop();
  }
};

TEST(FileService, WriteReadRoundTrip) {
  Rig rig;
  ASSERT_TRUE(rig.fs->write("/docs/readme", to_bytes("hello files")).ok());
  auto data = rig.fs->read("/docs/readme");
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(to_string(data.value()), "hello files");
  EXPECT_EQ(rig.server->file_count(), 1u);
  EXPECT_EQ(rig.server->bytes_stored(), 11u);
}

TEST(FileService, OverwriteBumpsVersion) {
  Rig rig;
  ASSERT_TRUE(rig.fs->write("/f", to_bytes("v1")).ok());
  auto s1 = rig.fs->stat("/f");
  ASSERT_TRUE(s1.ok());
  ASSERT_TRUE(rig.fs->write("/f", to_bytes("v2 longer")).ok());
  auto s2 = rig.fs->stat("/f");
  ASSERT_TRUE(s2.ok());
  EXPECT_GT(s2.value().version, s1.value().version);
  EXPECT_EQ(s2.value().size, 9u);
  EXPECT_EQ(to_string(rig.fs->read("/f").value()), "v2 longer");
}

TEST(FileService, AppendCreatesAndExtends) {
  Rig rig;
  ASSERT_TRUE(rig.fs->append("/log", to_bytes("line1\n")).ok());
  ASSERT_TRUE(rig.fs->append("/log", to_bytes("line2\n")).ok());
  EXPECT_EQ(to_string(rig.fs->read("/log").value()), "line1\nline2\n");
}

TEST(FileService, ReadRange) {
  Rig rig;
  ASSERT_TRUE(rig.fs->write("/r", to_bytes("0123456789")).ok());
  EXPECT_EQ(to_string(rig.fs->read_range("/r", 3, 4).value()), "3456");
  // Clamped at end-of-file.
  EXPECT_EQ(to_string(rig.fs->read_range("/r", 8, 100).value()), "89");
  // Offset past end is a caller error.
  EXPECT_EQ(rig.fs->read_range("/r", 11, 1).code(), Errc::bad_argument);
}

TEST(FileService, MissingFileNotFound) {
  Rig rig;
  EXPECT_EQ(rig.fs->read("/nope").code(), Errc::not_found);
  EXPECT_EQ(rig.fs->stat("/nope").code(), Errc::not_found);
  EXPECT_EQ(rig.fs->remove("/nope").code(), Errc::not_found);
}

TEST(FileService, RemoveDeletes) {
  Rig rig;
  ASSERT_TRUE(rig.fs->write("/tmp/x", to_bytes("x")).ok());
  ASSERT_TRUE(rig.fs->remove("/tmp/x").ok());
  EXPECT_EQ(rig.fs->read("/tmp/x").code(), Errc::not_found);
  EXPECT_EQ(rig.server->file_count(), 0u);
}

TEST(FileService, ListByPrefix) {
  Rig rig;
  ASSERT_TRUE(rig.fs->write("/a/1", to_bytes("1")).ok());
  ASSERT_TRUE(rig.fs->write("/a/2", to_bytes("22")).ok());
  ASSERT_TRUE(rig.fs->write("/b/3", to_bytes("333")).ok());
  auto a = rig.fs->list("/a/");
  ASSERT_TRUE(a.ok());
  ASSERT_EQ(a.value().size(), 2u);
  EXPECT_EQ(a.value()[0].path, "/a/1");
  EXPECT_EQ(a.value()[1].size, 2u);
  auto all = rig.fs->list("");
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all.value().size(), 3u);
}

TEST(FileService, EmptyPathRejected) {
  Rig rig;
  EXPECT_EQ(rig.fs->write("", to_bytes("x")).code(), Errc::bad_argument);
}

TEST(FileService, OversizeFileRejected) {
  Rig rig;
  // Grow the file to exactly the cap with appends, then one more byte
  // must be refused with too_big (and the file left unchanged).
  Bytes chunk(1 << 20, 1);
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(rig.fs->append("/big", chunk).ok());
  }
  EXPECT_EQ(rig.fs->stat("/big").value().size, kMaxFileSize);
  auto st = rig.fs->append("/big", to_bytes("x"));
  EXPECT_EQ(st.code(), Errc::too_big);
  EXPECT_EQ(rig.fs->stat("/big").value().size, kMaxFileSize);
}

TEST(FileService, BinaryContentSurvives) {
  Rig rig;
  Bytes blob(4096);
  for (std::size_t i = 0; i < blob.size(); ++i) {
    blob[i] = static_cast<std::uint8_t>(i * 7);
  }
  ASSERT_TRUE(rig.fs->write("/bin", blob).ok());
  EXPECT_EQ(rig.fs->read("/bin").value(), blob);
}

TEST(FileService, ConcurrentClients) {
  Rig rig;
  auto node2 = rig.tb.spawn_module("fs-client-2", "sun1", "lan").value();
  FileClient fs2(*node2);
  ASSERT_TRUE(fs2.connect().ok());
  std::jthread w1([&] {
    for (int i = 0; i < 50; ++i) {
      (void)rig.fs->append("/shared", to_bytes("a"));
    }
  });
  std::jthread w2([&] {
    for (int i = 0; i < 50; ++i) {
      (void)fs2.append("/shared", to_bytes("b"));
    }
  });
  w1.join();
  w2.join();
  auto data = rig.fs->read("/shared");
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(data.value().size(), 100u);  // all appends applied exactly once
  node2->stop();
}

TEST(FileService, DestroyedWhileAClientKeepsRequesting) {
  // The server's destructor stops its node, joining the service thread
  // before the file table it serves goes away (checked under ASan).
  Rig rig;
  ASSERT_TRUE(rig.fs->write("/f", to_bytes("data")).ok());
  std::atomic<bool> done{false};
  std::atomic<int> served{0};
  std::jthread client([&] {
    while (!done) {
      if (rig.fs->stat("/f").ok()) ++served;
    }
  });
  for (int spin = 0; spin < 200 && served < 10; ++spin) {
    std::this_thread::sleep_for(5ms);
  }
  EXPECT_GE(served, 10);
  rig.server.reset();
  std::this_thread::sleep_for(100ms);
  done = true;
  client.join();
  EXPECT_FALSE(rig.fs->stat("/f").ok());
}

TEST(FileService, UrsaDocumentsOnFileService) {
  // The original use: URSA document storage behind the backends.
  Rig rig;
  auto corpus = ursa::Corpus::generate(10, 3);
  for (const auto& doc : corpus.documents()) {
    ASSERT_TRUE(rig.fs->write("/corpus/" + std::to_string(doc.id),
                              to_bytes(doc.text))
                    .ok());
  }
  EXPECT_EQ(rig.server->file_count(), 10u);
  auto back = rig.fs->read("/corpus/5");
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(to_string(back.value()), corpus.find(5)->text);
}

}  // namespace
}  // namespace ntcs::drts
