// Model-based property tests for the assertion closure: relations derived
// from ACTUAL sets (random subsets of a small universe) are asserted in
// random order; the closure must accept them all, remain sound (the true
// relation never gets excluded), and reject any assertion that contradicts
// the model once the model is fully pinned.

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/assertion_store.h"
#include "core/object_ref.h"

namespace ecrint::core {
namespace {

constexpr int kUniverse = 6;

SetRelation Classify(unsigned a, unsigned b) {
  if (a == b) return SetRelation::kEqual;
  if ((a & b) == a) return SetRelation::kSubset;
  if ((a & b) == b) return SetRelation::kSuperset;
  if ((a & b) != 0) return SetRelation::kOverlap;
  return SetRelation::kDisjoint;
}

AssertionType TypeFor(SetRelation relation) {
  switch (relation) {
    case SetRelation::kEqual: return AssertionType::kEquals;
    case SetRelation::kSubset: return AssertionType::kContainedIn;
    case SetRelation::kSuperset: return AssertionType::kContains;
    case SetRelation::kOverlap: return AssertionType::kMayBe;
    case SetRelation::kDisjoint: return AssertionType::kDisjointIntegrable;
  }
  return AssertionType::kDisjointIntegrable;
}

struct World {
  std::vector<unsigned> sets;   // bitmask extents, non-empty
  std::vector<ObjectRef> refs;
  std::vector<std::pair<int, int>> pairs;  // all i<j, shuffled
};

World MakeWorld(uint64_t seed, int n) {
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<unsigned> pick(1, (1u << kUniverse) - 1);
  World world;
  for (int i = 0; i < n; ++i) {
    world.sets.push_back(pick(rng));
    world.refs.push_back({"s" + std::to_string(i % 3),
                          "O" + std::to_string(i)});
  }
  for (int i = 0; i < n; ++i) {
    for (int j = i + 1; j < n; ++j) world.pairs.push_back({i, j});
  }
  std::shuffle(world.pairs.begin(), world.pairs.end(), rng);
  return world;
}

class ClosurePropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ClosurePropertyTest, TrueRelationsAlwaysConsistent) {
  World world = MakeWorld(GetParam(), 9);
  AssertionStore store;
  for (auto [i, j] : world.pairs) {
    SetRelation truth = Classify(world.sets[i], world.sets[j]);
    Result<ConflictReport> r =
        store.Assert(world.refs[i], world.refs[j], TypeFor(truth));
    ASSERT_TRUE(r.ok()) << "seed " << GetParam() << ": asserting true "
                        << SetRelationName(truth) << " between sets "
                        << world.sets[i] << " and " << world.sets[j]
                        << " conflicted: " << r.status();
  }
  // Every pair is pinned to exactly the model relation.
  for (auto [i, j] : world.pairs) {
    Result<SetRelation> established =
        store.EstablishedRelation(world.refs[i], world.refs[j]);
    ASSERT_TRUE(established.ok());
    EXPECT_EQ(*established, Classify(world.sets[i], world.sets[j]));
  }
}

TEST_P(ClosurePropertyTest, SoundnessUnderPartialKnowledge) {
  World world = MakeWorld(GetParam(), 9);
  std::mt19937_64 rng(GetParam() ^ 0x9e3779b97f4a7c15ull);
  AssertionStore store;
  // Assert roughly half of the true facts.
  for (auto [i, j] : world.pairs) {
    if (rng() % 2 == 0) continue;
    SetRelation truth = Classify(world.sets[i], world.sets[j]);
    ASSERT_TRUE(
        store.Assert(world.refs[i], world.refs[j], TypeFor(truth)).ok());
  }
  // The truth must remain possible everywhere: the closure never derives
  // something the model falsifies.
  for (auto [i, j] : world.pairs) {
    SetRelation truth = Classify(world.sets[i], world.sets[j]);
    RelationSet possible =
        store.PossibleRelations(world.refs[i], world.refs[j]);
    EXPECT_TRUE(Contains(possible, truth))
        << "seed " << GetParam() << ": " << SetRelationName(truth)
        << " wrongly excluded for sets " << world.sets[i] << "/"
        << world.sets[j] << ", possible " << RelationSetToString(possible);
  }
}

TEST_P(ClosurePropertyTest, FullyPinnedModelRejectsEveryLie) {
  World world = MakeWorld(GetParam(), 7);
  AssertionStore store;
  for (auto [i, j] : world.pairs) {
    ASSERT_TRUE(store
                    .Assert(world.refs[i], world.refs[j],
                            TypeFor(Classify(world.sets[i], world.sets[j])))
                    .ok());
  }
  std::mt19937_64 rng(GetParam() * 31 + 7);
  for (int attempt = 0; attempt < 10; ++attempt) {
    auto [i, j] = world.pairs[rng() % world.pairs.size()];
    SetRelation truth = Classify(world.sets[i], world.sets[j]);
    SetRelation lie = static_cast<SetRelation>(rng() % kNumSetRelations);
    if (lie == truth) continue;
    size_t assertions_before = store.user_assertions().size();
    Result<ConflictReport> r =
        store.Assert(world.refs[i], world.refs[j], TypeFor(lie));
    EXPECT_FALSE(r.ok()) << "lie " << SetRelationName(lie)
                         << " accepted over truth "
                         << SetRelationName(truth);
    // And the rejection must not disturb the store.
    EXPECT_EQ(store.user_assertions().size(), assertions_before);
    EXPECT_EQ(*store.EstablishedRelation(world.refs[i], world.refs[j]),
              truth);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ClosurePropertyTest,
                         ::testing::Range<uint64_t>(1, 21));

// --- worklist kernel vs brute-force oracle --------------------------------
//
// A reference implementation with no worklist, no bitmaps, and no SIMD: a
// dense matrix closed by iterating the O(N^3) refinement until fixpoint.
// The production kernel must agree with it on accept/reject AND on every
// cell of the possible-relations matrix, for arbitrary (including
// inconsistent) assertion sequences.
class OracleStore {
 public:
  int Intern(const ObjectRef& ref) {
    auto [it, inserted] = index_.emplace(ref, static_cast<int>(refs_.size()));
    if (inserted) {
      refs_.push_back(ref);
      int n = static_cast<int>(refs_.size());
      std::vector<std::vector<RelationSet>> next(
          n, std::vector<RelationSet>(n, kAnyRelation));
      for (int i = 0; i + 1 < n; ++i) {
        for (int j = 0; j + 1 < n; ++j) next[i][j] = rel_[i][j];
      }
      next[n - 1][n - 1] = MaskOf(SetRelation::kEqual);
      rel_ = std::move(next);
    }
    return it->second;
  }

  // Applies the assertion transactionally: on contradiction the matrix is
  // left unchanged and false is returned.
  bool Assert(const Assertion& assertion) {
    int i = Intern(assertion.first);
    int j = Intern(assertion.second);
    std::vector<std::vector<RelationSet>> saved = rel_;
    rel_[i][j] &= MaskOf(RelationOf(assertion.type));
    rel_[j][i] = Converse(rel_[i][j]);
    if (!Close()) {
      rel_ = std::move(saved);
      return false;
    }
    return true;
  }

  RelationSet Possible(const ObjectRef& a, const ObjectRef& b) const {
    auto ia = index_.find(a);
    auto ib = index_.find(b);
    if (ia == index_.end() || ib == index_.end()) return kAnyRelation;
    return rel_[ia->second][ib->second];
  }

  const std::vector<ObjectRef>& refs() const { return refs_; }

 private:
  bool Close() {
    int n = static_cast<int>(refs_.size());
    bool changed = true;
    while (changed) {
      changed = false;
      for (int i = 0; i < n; ++i) {
        for (int k = 0; k < n; ++k) {
          for (int j = 0; j < n; ++j) {
            RelationSet refined =
                rel_[i][j] & Compose(rel_[i][k], rel_[k][j]);
            if (refined == rel_[i][j]) continue;
            if (refined == kNoRelation) return false;
            rel_[i][j] = refined;
            rel_[j][i] = Converse(refined);
            changed = true;
          }
        }
      }
    }
    return true;
  }

  std::unordered_map<ObjectRef, int, ObjectRefHash> index_;
  std::vector<ObjectRef> refs_;
  std::vector<std::vector<RelationSet>> rel_;
};

// A random mix of true facts and lies about one ACTUAL-set world; the lies
// make a good fraction of the sequence genuinely contradictory.
std::vector<Assertion> RandomSequence(const World& world, std::mt19937_64& rng,
                                      int count) {
  std::vector<Assertion> ops;
  for (int n = 0; n < count; ++n) {
    auto [i, j] = world.pairs[rng() % world.pairs.size()];
    SetRelation relation = Classify(world.sets[i], world.sets[j]);
    if (rng() % 3 == 0) {
      relation = static_cast<SetRelation>(rng() % kNumSetRelations);
    }
    ops.push_back(Assertion{world.refs[i], world.refs[j], TypeFor(relation)});
  }
  return ops;
}

TEST_P(ClosurePropertyTest, WorklistAgreesWithBruteForceOracle) {
  World world = MakeWorld(GetParam() ^ 0xabcdef, 8);
  std::mt19937_64 rng(GetParam() * 1000003);
  std::vector<Assertion> ops = RandomSequence(world, rng, 30);

  AssertionStore store;
  OracleStore oracle;
  for (const Assertion& op : ops) {
    bool kernel_ok = store.Assert(op).ok();
    bool oracle_ok = oracle.Assert(op);
    ASSERT_EQ(kernel_ok, oracle_ok)
        << "seed " << GetParam() << ": kernel and oracle disagree on "
        << op.first.ToString() << " vs " << op.second.ToString();
    // After every step the two matrices must be bit-identical.
    for (const ObjectRef& a : oracle.refs()) {
      for (const ObjectRef& b : oracle.refs()) {
        ASSERT_EQ(store.PossibleRelations(a, b), oracle.Possible(a, b))
            << "seed " << GetParam() << ": cell " << a.ToString() << "/"
            << b.ToString() << " diverged";
      }
    }
  }
}

TEST_P(ClosurePropertyTest, ConflictReportReplaysToConflict) {
  World world = MakeWorld(GetParam() ^ 0x5eed, 8);
  std::mt19937_64 rng(GetParam() * 7919);
  std::vector<Assertion> ops = RandomSequence(world, rng, 40);

  AssertionStore store;
  int conflicts_seen = 0;
  for (const Assertion& op : ops) {
    if (store.Assert(op).ok()) continue;
    ++conflicts_seen;
    // Screen 9's derivation chain must be self-contained: the supporting
    // assertions are all user assertions, and replaying ONLY them plus the
    // attempted assertion reproduces the contradiction in a fresh store.
    ASSERT_TRUE(store.last_conflict().has_value());
    const ConflictReport& report = *store.last_conflict();
    const std::vector<Assertion>& log = store.user_assertions();
    for (const Assertion& support : report.supporting) {
      EXPECT_NE(std::find(log.begin(), log.end(), support), log.end())
          << "support is not a user assertion";
    }
    AssertionStore replay;
    for (const Assertion& support : report.supporting) {
      ASSERT_TRUE(replay.Assert(support).ok())
          << "supports alone must be consistent";
    }
    EXPECT_FALSE(replay.Assert(report.attempted).ok())
        << "seed " << GetParam()
        << ": replaying the reported supports does not reproduce the "
        << "conflict: " << report.ToString();
  }
  // The generator's lie rate makes conflict-free runs vanishingly rare;
  // guard so the property is actually exercised.
  EXPECT_GT(conflicts_seen, 0) << "seed " << GetParam();
}

TEST_P(ClosurePropertyTest, DerivedFactSupportsPinTheFact) {
  World world = MakeWorld(GetParam() ^ 0xfacade, 9);
  std::mt19937_64 rng(GetParam() + 17);
  AssertionStore store;
  for (auto [i, j] : world.pairs) {
    if (rng() % 2 == 0) continue;
    ASSERT_TRUE(store
                    .Assert(world.refs[i], world.refs[j],
                            TypeFor(Classify(world.sets[i], world.sets[j])))
                    .ok());
  }
  for (const AssertionStore::DerivedFact& fact : store.DerivedFacts()) {
    AssertionStore replay;
    for (const Assertion& support : fact.supporting) {
      ASSERT_TRUE(replay.Assert(support).ok());
    }
    RelationSet pinned = replay.PossibleRelations(fact.first, fact.second);
    EXPECT_EQ(pinned, MaskOf(fact.relation))
        << "seed " << GetParam() << ": supports leave "
        << RelationSetToString(pinned) << " possible for derived "
        << SetRelationName(fact.relation);
  }
}

// --- delta-incremental vs full rebuild ------------------------------------

TEST_P(ClosurePropertyTest, DeltaEqualsFullRebuildAtEveryPrefix) {
  World world = MakeWorld(GetParam() ^ 0xde17a, 8);
  std::mt19937_64 rng(GetParam() * 31 + 5);
  std::vector<Assertion> ops = RandomSequence(world, rng, 24);

  AssertionStore incremental;  // grows one Assert at a time
  std::vector<Assertion> accepted;
  for (const Assertion& op : ops) {
    if (incremental.Assert(op).ok()) accepted.push_back(op);

    // Full rebuild of the accepted prefix, one Assert at a time and as one
    // AssertBatch.
    AssertionStore replay;
    for (const Assertion& keep : accepted) {
      ASSERT_TRUE(replay.Assert(keep).ok());
    }
    AssertionStore batched;
    ASSERT_TRUE(batched.AssertBatch(accepted).ok());

    ASSERT_EQ(incremental.user_assertions(), replay.user_assertions());
    ASSERT_EQ(incremental.user_assertions(), batched.user_assertions());
    for (const ObjectRef& a : incremental.objects()) {
      for (const ObjectRef& b : incremental.objects()) {
        RelationSet want = incremental.PossibleRelations(a, b);
        ASSERT_EQ(replay.PossibleRelations(a, b), want)
            << "sequential rebuild diverged at " << a.ToString() << "/"
            << b.ToString();
        ASSERT_EQ(batched.PossibleRelations(a, b), want)
            << "batched rebuild diverged at " << a.ToString() << "/"
            << b.ToString();
      }
    }
  }
}

TEST_P(ClosurePropertyTest, MultiComponentBatchMatchesSequential) {
  // Three islands of objects with no cross-island assertions, asserted as
  // one shuffled batch: the store must count three clusters and match the
  // one-at-a-time replay, including derivation provenance.
  std::mt19937_64 rng(GetParam() * 2654435761u);
  std::uniform_int_distribution<unsigned> pick(1, (1u << kUniverse) - 1);
  std::vector<unsigned> sets;
  std::vector<ObjectRef> refs;
  std::vector<Assertion> batch;
  constexpr int kIslands = 3;
  constexpr int kPerIsland = 5;
  for (int g = 0; g < kIslands; ++g) {
    for (int m = 0; m < kPerIsland; ++m) {
      sets.push_back(pick(rng));
      refs.push_back({"isle" + std::to_string(g), "O" + std::to_string(m)});
    }
    int base = g * kPerIsland;
    for (int i = 0; i < kPerIsland; ++i) {
      for (int j = i + 1; j < kPerIsland; ++j) {
        batch.push_back(
            Assertion{refs[base + i], refs[base + j],
                      TypeFor(Classify(sets[base + i], sets[base + j]))});
      }
    }
  }
  std::shuffle(batch.begin(), batch.end(), rng);

  AssertionStore batched;
  ASSERT_TRUE(batched.AssertBatch(batch).ok());
  EXPECT_EQ(batched.num_clusters(), kIslands);

  AssertionStore sequential;
  for (const Assertion& op : batch) {
    ASSERT_TRUE(sequential.Assert(op).ok());
  }
  ASSERT_EQ(batched.user_assertions(), sequential.user_assertions());
  for (const ObjectRef& a : refs) {
    for (const ObjectRef& b : refs) {
      ASSERT_EQ(batched.PossibleRelations(a, b),
                sequential.PossibleRelations(a, b))
          << a.ToString() << "/" << b.ToString();
      EXPECT_EQ(batched.SupportingAssertions(a, b),
                sequential.SupportingAssertions(a, b))
          << "provenance diverged at " << a.ToString() << "/"
          << b.ToString();
    }
  }
}

}  // namespace
}  // namespace ecrint::core
