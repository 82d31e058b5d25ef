// The read-response cache: part-identity validation against copy-on-write
// snapshots (warm across publishes that shared the parts, evicted the
// moment a part was recomputed), per-protocol wire serialization, the
// LRU capacity bound, and the router-level fast path (repeat reads are
// served from cache and counted in cache.hits; any write that touches the
// answer invalidates).

#include "service/response_cache.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/assertion.h"
#include "engine/engine.h"
#include "service/protocol.h"
#include "service/router.h"
#include "service/service.h"
#include "service/snapshot.h"

namespace ecrint::service {
namespace {

constexpr const char* kUniversityDdl = R"(
schema sc1 {
  entity Student { Name: char key; GPA: real; }
}
schema sc2 {
  entity Grad { Name: char key; GPA: real; }
}
)";

engine::Engine MakeEngine() {
  engine::Engine engine;
  EXPECT_TRUE(engine.DefineSchema(kUniversityDdl).ok());
  EXPECT_TRUE(engine
                  .AssertEquivalence({"sc1", "Student", "Name"},
                                     {"sc2", "Grad", "Name"})
                  .ok());
  return engine;
}

ServiceResponse MakeResponse(std::vector<std::string> lines) {
  ServiceResponse response;
  response.lines = std::move(lines);
  return response;
}

TEST(ResponseCacheKeyTest, LengthPrefixingPreventsCollisions) {
  // Args containing the separator byte must not alias a different split.
  std::string sep = "\x01";
  EXPECT_NE(ResponseCache::Key("p", "rank", {"a" + sep + "b"}),
            ResponseCache::Key("p", "rank", {"a", "b"}));
  EXPECT_NE(ResponseCache::Key("p", "rank", {"a", "b"}),
            ResponseCache::Key("p", "rank", {"ab"}));
  EXPECT_NE(ResponseCache::Key("p", "rank", {}),
            ResponseCache::Key("p", "rank", {""}));
  EXPECT_EQ(ResponseCache::Key("p", "rank", {"a", "b"}),
            ResponseCache::Key("p", "rank", {"a", "b"}));
  // The project is part of the key, and its end cannot be moved.
  EXPECT_NE(ResponseCache::Key("p", "rank", {"a"}),
            ResponseCache::Key("q", "rank", {"a"}));
  EXPECT_NE(ResponseCache::Key("pr", "ank", {}),
            ResponseCache::Key("p", "rank", {}));
}

TEST(ResponseCacheTest, HitWhenPartsIdentical) {
  engine::Engine engine = MakeEngine();
  SnapshotManager manager;
  ASSERT_TRUE(manager.Publish(engine));
  std::shared_ptr<const EngineSnapshot> snapshot = manager.Current();

  ResponseCache cache;
  std::string key = ResponseCache::Key("p", "rank", {"sc1", "sc2"});
  cache.Insert(key, *snapshot, MakeResponse({"line-1", "line-2"}));

  auto hit = cache.Lookup(key, *snapshot, kProtocolTextVersion);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->response.lines, (std::vector<std::string>{"line-1",
                                                           "line-2"}));
  // The wire bytes are exactly what a fresh serialization would produce.
  EXPECT_EQ(hit->wire, FormatResponse(hit->response));

  auto binary_hit = cache.Lookup(key, *snapshot, kProtocolBinaryVersion);
  ASSERT_TRUE(binary_hit.has_value());
  EXPECT_EQ(binary_hit->wire, EncodeBinaryResponse(binary_hit->response));
  EXPECT_NE(binary_hit->wire, hit->wire);
}

TEST(ResponseCacheTest, StaysWarmAcrossPartSharingPublish) {
  engine::Engine engine = MakeEngine();
  SnapshotManager manager;
  ASSERT_TRUE(manager.Publish(engine));
  std::shared_ptr<const EngineSnapshot> before = manager.Current();

  ResponseCache cache;
  std::string key = ResponseCache::Key("p", "rank", {"sc1", "sc2"});
  cache.Insert(key, *before, MakeResponse({"ranked"}));

  // An assertion append republishes but shares catalog + equivalence, so
  // an entry keyed on those parts is still valid.
  ASSERT_TRUE(engine
                  .AssertRelation({"sc1", "Student"}, {"sc2", "Grad"},
                                  core::AssertionType::kContains)
                  .ok());
  ASSERT_TRUE(manager.Publish(engine));
  std::shared_ptr<const EngineSnapshot> after = manager.Current();
  ASSERT_NE(before.get(), after.get());
  ASSERT_EQ(before->catalog.get(), after->catalog.get());

  EXPECT_TRUE(cache.Lookup(key, *after, kProtocolTextVersion).has_value());
}

TEST(ResponseCacheTest, EvictedWhenPartRecomputed) {
  engine::Engine engine = MakeEngine();
  SnapshotManager manager;
  ASSERT_TRUE(manager.Publish(engine));
  std::shared_ptr<const EngineSnapshot> before = manager.Current();

  ResponseCache cache;
  std::string key = ResponseCache::Key("p", "suggest", {"sc1", "sc2"});
  cache.Insert(key, *before, MakeResponse({"suggestion"}));

  // A new equivalence edit allocates a fresh equivalence map: the entry
  // must miss AND be erased.
  ASSERT_TRUE(engine
                  .AssertEquivalence({"sc1", "Student", "GPA"},
                                     {"sc2", "Grad", "GPA"})
                  .ok());
  ASSERT_TRUE(manager.Publish(engine));
  std::shared_ptr<const EngineSnapshot> after = manager.Current();
  ASSERT_NE(before->equivalence.get(), after->equivalence.get());

  EXPECT_FALSE(cache.Lookup(key, *after, kProtocolTextVersion).has_value());
  EXPECT_EQ(cache.size(), 0u);
}

TEST(ResponseCacheTest, NullnessMismatchIsAMiss) {
  engine::Engine engine = MakeEngine();
  ASSERT_TRUE(engine
                  .AssertRelation({"sc1", "Student"}, {"sc2", "Grad"},
                                  core::AssertionType::kEquals)
                  .ok());
  SnapshotManager manager;
  ASSERT_TRUE(manager.Publish(engine));
  std::shared_ptr<const EngineSnapshot> before = manager.Current();
  ASSERT_EQ(before->integration, nullptr);

  ResponseCache cache;
  std::string key = ResponseCache::Key("p", "outline", {});
  cache.Insert(key, *before, MakeResponse({"pre-integrate"}));

  // Integration fills a part that used to be null; the entry recorded
  // had_integration=false and must not survive.
  ASSERT_TRUE(engine.Integrate().ok());
  ASSERT_TRUE(manager.Publish(engine));
  std::shared_ptr<const EngineSnapshot> after = manager.Current();
  ASSERT_NE(after->integration, nullptr);

  EXPECT_FALSE(cache.Lookup(key, *after, kProtocolTextVersion).has_value());
}

TEST(ResponseCacheTest, CapEvictsLeastRecentlyUsed) {
  engine::Engine engine = MakeEngine();
  SnapshotManager manager;
  ASSERT_TRUE(manager.Publish(engine));
  std::shared_ptr<const EngineSnapshot> snapshot = manager.Current();

  ResponseCache cache;
  MetricsRegistry metrics;
  Counter* evictions = metrics.GetCounter("cache.evictions");
  cache.SetEvictionCounter(evictions);
  for (size_t i = 0; i < ResponseCache::kMaxEntries; ++i) {
    cache.Insert(ResponseCache::Key("p", "rank", {std::to_string(i)}),
                 *snapshot, MakeResponse({"r"}));
  }
  EXPECT_EQ(cache.size(), ResponseCache::kMaxEntries);
  // One more distinct key evicts exactly one entry — the oldest ("0").
  cache.Insert(ResponseCache::Key("p", "rank", {"overflow"}), *snapshot,
               MakeResponse({"r"}));
  EXPECT_EQ(cache.size(), ResponseCache::kMaxEntries);
  EXPECT_EQ(evictions->value(), 1);
  EXPECT_FALSE(cache.Lookup(ResponseCache::Key("p", "rank", {"0"}), *snapshot,
                            kProtocolTextVersion)
                   .has_value());
  EXPECT_TRUE(cache.Lookup(ResponseCache::Key("p", "rank", {"1"}), *snapshot,
                           kProtocolTextVersion)
                  .has_value());
  // Re-inserting an existing key at the cap neither evicts nor grows.
  cache.Insert(ResponseCache::Key("p", "rank", {"1"}), *snapshot,
               MakeResponse({"r2"}));
  EXPECT_EQ(cache.size(), ResponseCache::kMaxEntries);
  EXPECT_EQ(evictions->value(), 1);
}

TEST(ResponseCacheTest, HotKeysSurviveOverflow) {
  engine::Engine engine = MakeEngine();
  SnapshotManager manager;
  ASSERT_TRUE(manager.Publish(engine));
  std::shared_ptr<const EngineSnapshot> snapshot = manager.Current();

  ResponseCache cache;
  std::string hot = ResponseCache::Key("p", "rank", {"hot"});
  cache.Insert(hot, *snapshot, MakeResponse({"hot answer"}));
  // A scan of 4x-capacity one-off keys, with the hot key re-read along the
  // way: under LRU the scan only ever evicts its own cold tail.
  for (size_t i = 0; i < 4 * ResponseCache::kMaxEntries; ++i) {
    cache.Insert(ResponseCache::Key("p", "rank", {"cold" + std::to_string(i)}),
                 *snapshot, MakeResponse({"r"}));
    if (i % 16 == 0) {
      ASSERT_TRUE(cache.Lookup(hot, *snapshot, kProtocolTextVersion)
                      .has_value())
          << "hot key evicted after " << i << " cold inserts";
    }
  }
  std::optional<ResponseCache::Hit> hit =
      cache.Lookup(hot, *snapshot, kProtocolTextVersion);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->response.lines, std::vector<std::string>{"hot answer"});
  EXPECT_EQ(cache.size(), ResponseCache::kMaxEntries);
}

// --- router-level behaviour ------------------------------------------------

constexpr const char* kInlineDdl =
    "schema sc1 { entity Student { Name: char key; GPA: real; } } "
    "schema sc2 { entity Grad { Name: char key; GPA: real; } }";

class RouterCacheTest : public ::testing::Test {
 protected:
  RouterCacheTest() : service_(ServiceConfig{}), router_(&service_) {}

  // Opens a session and seeds + integrates the project.
  void SeedThrough(RouterSession* session,
                   const std::string& project = "uni") {
    EXPECT_EQ(router_.HandleLine("open " + project, session).substr(0, 2),
              "ok");
    EXPECT_EQ(router_.HandleLine(std::string("define ") + kInlineDdl, session)
                  .substr(0, 2),
              "ok");
    EXPECT_EQ(router_.HandleLine("equiv sc1.Student.Name sc2.Grad.Name",
                                 session)
                  .substr(0, 2),
              "ok");
    EXPECT_EQ(
        router_.HandleLine("assert sc1.Student 1 sc2.Grad", session)
            .substr(0, 2),
        "ok");
    EXPECT_EQ(router_.HandleLine("integrate", session).substr(0, 2), "ok");
  }

  int64_t CacheHits() {
    return service_.metrics().GetCounter("cache.hits")->value();
  }

  IntegrationService service_;
  RequestRouter router_;
};

TEST_F(RouterCacheTest, RepeatReadsAreServedFromCache) {
  RouterSession session;
  SeedThrough(&session);

  std::string first = router_.HandleLine("outline", &session);
  int64_t hits_before = CacheHits();
  std::string second = router_.HandleLine("outline", &session);
  EXPECT_EQ(first, second);  // byte-identical, not just equivalent
  EXPECT_EQ(CacheHits(), hits_before + 1);

  // A different read verb populates its own entry.
  std::string rank1 = router_.HandleLine("rank sc1 sc2", &session);
  std::string rank2 = router_.HandleLine("rank sc1 sc2", &session);
  EXPECT_EQ(rank1, rank2);
  EXPECT_EQ(CacheHits(), hits_before + 2);
}

TEST_F(RouterCacheTest, WriteInvalidatesAffectedReads) {
  RouterSession session;
  SeedThrough(&session);

  std::string before = router_.HandleLine("rank sc1 sc2", &session);
  (void)router_.HandleLine("rank sc1 sc2", &session);  // warm the entry
  int64_t hits_after_warm = CacheHits();

  // A new equivalence changes the map the ranking is computed from.
  ASSERT_EQ(router_.HandleLine("equiv sc1.Student.GPA sc2.Grad.GPA",
                               &session)
                .substr(0, 2),
            "ok");
  int64_t hits_before = CacheHits();
  EXPECT_EQ(hits_before, hits_after_warm);
  std::string after = router_.HandleLine("rank sc1 sc2", &session);
  // The read was recomputed, not served stale: no new hit was counted and
  // the answer reflects the write (the shared-attribute score went up).
  EXPECT_EQ(CacheHits(), hits_before);
  EXPECT_NE(before, after);
  // The recomputed entry is warm again for the next identical read.
  EXPECT_EQ(router_.HandleLine("rank sc1 sc2", &session), after);
  EXPECT_EQ(CacheHits(), hits_before + 1);
}

TEST_F(RouterCacheTest, ErrorResponsesAreNotCached) {
  RouterSession session;
  SeedThrough(&session);

  // rank over a schema that does not exist fails — and must be recomputed
  // every time (error responses never enter the cache).
  int64_t hits_before = CacheHits();
  std::string first = router_.HandleLine("rank sc1 nosuch", &session);
  std::string second = router_.HandleLine("rank sc1 nosuch", &session);
  EXPECT_EQ(first.substr(0, 3), "err");
  EXPECT_EQ(first, second);
  EXPECT_EQ(CacheHits(), hits_before);
  EXPECT_EQ(router_.cache().size(), 0u);
}

TEST_F(RouterCacheTest, SecondSessionSameProjectHits) {
  RouterSession writer;
  SeedThrough(&writer);
  (void)router_.HandleLine("outline", &writer);  // populate

  RouterSession reader;
  ASSERT_EQ(router_.HandleLine("open uni", &reader).substr(0, 2), "ok");
  int64_t hits_before = CacheHits();
  std::string cached = router_.HandleLine("outline", &reader);
  EXPECT_EQ(CacheHits(), hits_before + 1);
  EXPECT_EQ(cached, router_.HandleLine("outline", &writer));
}

TEST_F(RouterCacheTest, BinaryAndTextHitsShareOneEntry) {
  RouterSession text_session;
  SeedThrough(&text_session);
  std::string text_reply = router_.HandleLine("outline", &text_session);

  // A binary-mode session issuing the same read hits the same entry and
  // gets the binary serialization of the identical response.
  RouterSession binary_session;
  ASSERT_EQ(router_.HandleLine("open uni", &binary_session).substr(0, 2),
            "ok");
  ASSERT_EQ(router_.HandleLine("proto 2", &binary_session).substr(0, 2),
            "ok");
  ASSERT_EQ(binary_session.protocol_version, kProtocolBinaryVersion);

  BinaryRequest request;
  request.verb = WireVerb::kOutline;
  std::string frame = EncodeBinaryRequest(request);
  std::string_view body;
  size_t consumed = 0;
  std::string error;
  ASSERT_EQ(ExtractFrame(frame, &body, &consumed, &error),
            FrameStatus::kComplete);

  int64_t hits_before = CacheHits();
  std::string reply_frame = router_.HandleFrame(body, &binary_session);
  EXPECT_EQ(CacheHits(), hits_before + 1);

  std::string_view reply_body;
  ASSERT_EQ(ExtractFrame(reply_frame, &reply_body, &consumed, &error),
            FrameStatus::kComplete);
  Result<DecodedResponse> decoded = DecodeBinaryResponse(reply_body);
  ASSERT_TRUE(decoded.ok());
  ASSERT_EQ(decoded->items.size(), 1u);
  // Same payload as the text reply, different framing.
  Result<ServiceResponse> text_parsed = ParseResponse(text_reply);
  ASSERT_TRUE(text_parsed.ok());
  EXPECT_EQ(decoded->items[0].lines, text_parsed->lines);
}

// Two projects with identical DDL ask identical questions; the project in
// the key keeps their entries apart, so alternating traffic stays warm
// instead of each lookup evicting the other project's entry.
TEST_F(RouterCacheTest, ProjectsWithEqualSchemaNamesKeepSeparateEntries) {
  RouterSession first;
  SeedThrough(&first);
  RouterSession second;
  SeedThrough(&second, "uni2");

  // Warm-up round: one miss per project.
  std::string answer = router_.HandleLine("rank sc1 sc2", &first);
  EXPECT_EQ(router_.HandleLine("rank sc1 sc2", &second), answer);
  int64_t hits_before = CacheHits();
  for (int round = 0; round < 5; ++round) {
    EXPECT_EQ(router_.HandleLine("rank sc1 sc2", &first), answer);
    EXPECT_EQ(router_.HandleLine("rank sc1 sc2", &second), answer);
  }
  EXPECT_EQ(CacheHits(), hits_before + 10);
  EXPECT_EQ(service_.metrics().GetCounter("cache.evictions")->value(), 0);
  EXPECT_EQ(router_.cache().size(), 2u);
}

}  // namespace
}  // namespace ecrint::service
