// WormFs extension tests: versioned write-once files over the record-level
// WORM store, index rebuild from the store itself, retention-driven version
// expiry, and the hash-chained namespace audit that detects hidden versions.
#include <gtest/gtest.h>

#include "adversary/mallory.hpp"
#include "worm/worm_fs.hpp"
#include "worm_fixture.hpp"

namespace worm::core {
namespace {

using common::Duration;
using common::to_bytes;
using worm::testing::Rig;

struct FsRig : Rig {
  FsRig() : Rig(worm::testing::slow_timers_config()), fs(store) {}
  WormFs fs;
};

TEST(WormFs, CreateAndReadBack) {
  FsRig rig;
  rig.fs.write_file("/ledger/2026/q3.csv", to_bytes("q3 numbers"),
                    rig.attr(Duration::years(6)));
  ASSERT_TRUE(rig.fs.exists("/ledger/2026/q3.csv"));
  auto res = rig.fs.read_file("/ledger/2026/q3.csv");
  auto* ok = std::get_if<FsReadOk>(&res);
  ASSERT_NE(ok, nullptr);
  EXPECT_EQ(common::to_string(ok->content), "q3 numbers");
  EXPECT_EQ(ok->header.version, 1u);
  EXPECT_EQ(ok->header.prev_sn, kInvalidSn);
}

TEST(WormFs, PathsMustBeAbsolute) {
  FsRig rig;
  EXPECT_THROW(rig.fs.write_file("relative.txt", to_bytes("x"),
                                 rig.attr(Duration::days(1))),
               common::PreconditionError);
}

TEST(WormFs, UpdatesCreateChainedVersions) {
  FsRig rig;
  Sn v1 = rig.fs.write_file("/policy.txt", to_bytes("draft"),
                            rig.attr(Duration::years(1)));
  Sn v2 = rig.fs.write_file("/policy.txt", to_bytes("final"),
                            rig.attr(Duration::years(1)));
  auto vs = rig.fs.versions("/policy.txt");
  ASSERT_EQ(vs.size(), 2u);
  EXPECT_EQ(vs[0].sn, v1);
  EXPECT_EQ(vs[1].sn, v2);

  // Latest read returns v2 with a chain pointer to v1.
  auto res = rig.fs.read_file("/policy.txt");
  auto* ok = std::get_if<FsReadOk>(&res);
  ASSERT_NE(ok, nullptr);
  EXPECT_EQ(ok->header.version, 2u);
  EXPECT_EQ(ok->header.prev_sn, v1);
  EXPECT_EQ(common::to_string(ok->content), "final");

  // Old versions remain readable by number — write-once means no overwrite.
  auto res1 = rig.fs.read_file("/policy.txt", 1);
  ASSERT_NE(std::get_if<FsReadOk>(&res1), nullptr);
  EXPECT_EQ(common::to_string(std::get<FsReadOk>(res1).content), "draft");
}

TEST(WormFs, UnknownPathOrVersionThrows) {
  FsRig rig;
  EXPECT_THROW(rig.fs.read_file("/nope"), common::PreconditionError);
  rig.fs.write_file("/one.txt", to_bytes("x"), rig.attr(Duration::days(1)));
  EXPECT_THROW(rig.fs.read_file("/one.txt", 9), common::PreconditionError);
}

TEST(WormFs, ListByPrefix) {
  FsRig rig;
  for (const char* p : {"/a/x", "/a/y", "/a/sub/z", "/b/w"}) {
    rig.fs.write_file(p, to_bytes("data"), rig.attr(Duration::days(1)));
  }
  auto under_a = rig.fs.list("/a/");
  EXPECT_EQ(under_a,
            (std::vector<std::string>{"/a/sub/z", "/a/x", "/a/y"}));
  EXPECT_EQ(rig.fs.list("/").size(), 4u);
  EXPECT_TRUE(rig.fs.list("/c/").empty());
}

TEST(WormFs, IndexRebuildsFromStore) {
  FsRig rig;
  rig.fs.write_file("/f1", to_bytes("v1"), rig.attr(Duration::years(1)));
  rig.fs.write_file("/f1", to_bytes("v2"), rig.attr(Duration::years(1)));
  rig.fs.write_file("/f2", to_bytes("other"), rig.attr(Duration::years(1)));
  // Plain (non-filesystem) records in the same store are ignored.
  rig.put("raw record", Duration::years(1));

  WormFs remounted(rig.store);
  remounted.rebuild_index();
  EXPECT_EQ(remounted.file_count(), 2u);
  ASSERT_EQ(remounted.versions("/f1").size(), 2u);
  auto res = remounted.read_file("/f1");
  EXPECT_EQ(common::to_string(std::get<FsReadOk>(res).content), "v2");
}

TEST(WormFs, ExpiredVersionYieldsDeletionEvidence) {
  FsRig rig;
  rig.fs.write_file("/temp", to_bytes("short-lived"),
                    rig.attr(Duration::hours(1)));
  rig.clock.advance(Duration::hours(2));
  auto res = rig.fs.read_file("/temp", 1);
  auto* raw = std::get_if<ReadOutcome>(&res);
  ASSERT_NE(raw, nullptr);
  Outcome out = rig.verifier.verify_read(rig.fs.versions("/temp")[0].sn, *raw);
  EXPECT_EQ(out.verdict, Verdict::kDeletedVerified);
}

TEST(WormFs, AuditPassesOnHonestStore) {
  FsRig rig;
  for (int i = 0; i < 5; ++i) {
    rig.fs.write_file("/doc", to_bytes("rev " + std::to_string(i)),
                      rig.attr(Duration::years(1)));
  }
  rig.fs.write_file("/other", to_bytes("x"), rig.attr(Duration::years(1)));
  FsAuditReport report = rig.fs.audit(rig.verifier);
  EXPECT_TRUE(report.clean());
  EXPECT_EQ(report.files, 2u);
  EXPECT_EQ(report.versions, 6u);
}

TEST(WormFs, AuditReadsEachVersionOnce) {
  FsRig rig;
  for (int i = 0; i < 3; ++i) {
    rig.fs.write_file("/doc", to_bytes("rev " + std::to_string(i)),
                      rig.attr(Duration::years(1)));
  }
  rig.fs.write_file("/other", to_bytes("x"), rig.attr(Duration::years(1)));
  auto before = rig.store.counters();
  FsAuditReport report = rig.fs.audit(rig.verifier);
  auto after = rig.store.counters();
  EXPECT_TRUE(report.clean());
  EXPECT_EQ(after.at("store.reads") - before.at("store.reads"),
            report.versions);
  EXPECT_EQ(after.at("store.read_many_batches"),
            before.at("store.read_many_batches"));
}

TEST(WormFs, AuditDetectsHiddenIntermediateVersion) {
  // The incriminating revision 2 of /doc is hidden by the insider; the
  // version chain from revision 3 breaks and the audit flags the file.
  FsRig rig;
  rig.fs.write_file("/doc", to_bytes("rev 1"), rig.attr(Duration::years(1)));
  Sn v2 = rig.fs.write_file("/doc", to_bytes("rev 2 (incriminating)"),
                            rig.attr(Duration::years(1)));
  rig.fs.write_file("/doc", to_bytes("rev 3"), rig.attr(Duration::years(1)));
  rig.clock.advance(Duration::minutes(3));  // heartbeat covers all three

  adversary::hide_record(rig.store, v2);

  FsAuditReport report = rig.fs.audit(rig.verifier);
  EXPECT_FALSE(report.clean());
  ASSERT_EQ(report.broken_chains.size(), 1u);
  EXPECT_EQ(report.broken_chains[0], "/doc");
}

TEST(WormFs, AuditDetectsTamperedContent) {
  FsRig rig;
  Sn sn = rig.fs.write_file("/doc", to_bytes("original content here"),
                            rig.attr(Duration::years(1)));
  adversary::tamper_record_data(rig.store, rig.disk, sn);
  FsAuditReport report = rig.fs.audit(rig.verifier);
  EXPECT_FALSE(report.clean());
  ASSERT_EQ(report.tampered.size(), 1u);
  EXPECT_EQ(report.tampered[0], sn);
}

TEST(WormFs, AuditAcceptsRetentionTruncatedHistory) {
  // Early versions expiring is legitimate: the chain walk stops at verified
  // deletion evidence, not at a broken chain.
  FsRig rig;
  rig.fs.write_file("/doc", to_bytes("v1"), rig.attr(Duration::hours(1)));
  rig.fs.write_file("/doc", to_bytes("v2"), rig.attr(Duration::years(1)));
  rig.clock.advance(Duration::hours(2));  // v1 expires, v2 lives
  FsAuditReport report = rig.fs.audit(rig.verifier);
  EXPECT_TRUE(report.clean()) << (report.broken_chains.empty()
                                      ? "tampered"
                                      : report.broken_chains[0]);
}

TEST(WormFs, FilesystemSurvivesMigration) {
  // Migrate the underlying store, remount the filesystem on the destination
  // from the records alone — paths, versions and contents all survive.
  FsRig src;
  Rig dst(core::FirmwareConfig{.seed = 0xd15c},
          StoreConfig{.store_id = 2});
  src.fs.write_file("/books/ledger", to_bytes("page 1"),
                    src.attr(Duration::years(5)));
  src.fs.write_file("/books/ledger", to_bytes("page 1 (amended)"),
                    src.attr(Duration::years(5)));

  MigrationReport mig = Migrator::migrate(src.store, dst.store, src.verifier);
  ASSERT_TRUE(mig.clean());

  WormFs dst_fs(dst.store);
  dst_fs.rebuild_index();
  ASSERT_TRUE(dst_fs.exists("/books/ledger"));
  auto res = dst_fs.read_file("/books/ledger");
  EXPECT_EQ(common::to_string(std::get<FsReadOk>(res).content),
            "page 1 (amended)");
  EXPECT_EQ(dst_fs.versions("/books/ledger").size(), 2u);
}

TEST(WormFs, HeaderParseRejectsNonHeaders) {
  EXPECT_FALSE(FsHeader::parse(to_bytes("not a header")).has_value());
  EXPECT_FALSE(FsHeader::parse(common::Bytes{}).has_value());
  FsHeader h;
  h.path = "/x";
  h.version = 3;
  h.prev_sn = 9;
  common::Bytes enc = h.to_bytes();
  auto parsed = FsHeader::parse(enc);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->path, "/x");
  EXPECT_EQ(parsed->version, 3u);
  EXPECT_EQ(parsed->prev_sn, 9u);
  enc.push_back(0);  // trailing garbage
  EXPECT_FALSE(FsHeader::parse(enc).has_value());
}

}  // namespace
}  // namespace worm::core
