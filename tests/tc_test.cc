// Tests for the transitive-closure kernels: all four algorithms agree with
// each other and with hand-computed closures; parameterized over algorithm.

#include <gtest/gtest.h>

#include "storage/relation.h"
#include "tc/transitive_closure.h"
#include "tests/test_util.h"
#include "workload/generators.h"

namespace graphlog::tc {
namespace {

using storage::Database;
using storage::Relation;
using storage::Tuple;

Relation MakeEdges(Database* db, std::vector<std::pair<int, int>> pairs) {
  Relation r(2);
  for (auto [a, b] : pairs) {
    r.Insert(Tuple{Value::Sym(db->Intern("n" + std::to_string(a))),
                   Value::Sym(db->Intern("n" + std::to_string(b)))});
  }
  return r;
}

class TcAlgorithmTest : public ::testing::TestWithParam<TcAlgorithm> {};

TEST_P(TcAlgorithmTest, ChainClosure) {
  Database db;
  Relation edges = MakeEdges(&db, {{0, 1}, {1, 2}, {2, 3}, {3, 4}});
  ASSERT_OK_AND_ASSIGN(Relation tc, TransitiveClosure(edges, GetParam()));
  EXPECT_EQ(tc.size(), 10u);  // 5 choose 2
}

TEST_P(TcAlgorithmTest, CycleClosure) {
  Database db;
  Relation edges = MakeEdges(&db, {{0, 1}, {1, 2}, {2, 0}});
  ASSERT_OK_AND_ASSIGN(Relation tc, TransitiveClosure(edges, GetParam()));
  // Every node reaches every node including itself: 9 pairs.
  EXPECT_EQ(tc.size(), 9u);
}

TEST_P(TcAlgorithmTest, DisconnectedComponents) {
  Database db;
  Relation edges = MakeEdges(&db, {{0, 1}, {2, 3}});
  ASSERT_OK_AND_ASSIGN(Relation tc, TransitiveClosure(edges, GetParam()));
  EXPECT_EQ(tc.size(), 2u);
}

TEST_P(TcAlgorithmTest, EmptyRelation) {
  Relation edges(2);
  ASSERT_OK_AND_ASSIGN(Relation tc, TransitiveClosure(edges, GetParam()));
  EXPECT_TRUE(tc.empty());
}

TEST_P(TcAlgorithmTest, SelfLoopOnly) {
  Database db;
  Relation edges = MakeEdges(&db, {{0, 0}});
  ASSERT_OK_AND_ASSIGN(Relation tc, TransitiveClosure(edges, GetParam()));
  EXPECT_EQ(tc.size(), 1u);
}

TEST_P(TcAlgorithmTest, AgreesWithBfsOnRandomGraphs) {
  for (uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    Database db;
    ASSERT_OK(workload::RandomDigraph(25, 60, seed, &db));
    const Relation& edges = *db.Find("edge");
    ASSERT_OK_AND_ASSIGN(Relation got, TransitiveClosure(edges, GetParam()));
    ASSERT_OK_AND_ASSIGN(Relation oracle,
                         TransitiveClosure(edges, TcAlgorithm::kBfs));
    EXPECT_TRUE(got.SetEquals(oracle)) << "seed " << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(AllAlgorithms, TcAlgorithmTest,
                         ::testing::Values(TcAlgorithm::kNaive,
                                           TcAlgorithm::kSemiNaive,
                                           TcAlgorithm::kSquaring,
                                           TcAlgorithm::kBfs),
                         [](const auto& info) {
                           switch (info.param) {
                             case TcAlgorithm::kNaive:
                               return "Naive";
                             case TcAlgorithm::kSemiNaive:
                               return "SemiNaive";
                             case TcAlgorithm::kSquaring:
                               return "Squaring";
                             case TcAlgorithm::kBfs:
                               return "Bfs";
                           }
                           return "Unknown";
                         });

TEST(TcStatsTest, SquaringUsesFewerRounds) {
  Database db;
  ASSERT_OK(workload::Chain(64, &db));
  const Relation& edges = *db.Find("edge");
  TcStats semi, sq;
  ASSERT_OK(
      TransitiveClosure(edges, TcAlgorithm::kSemiNaive, &semi).status());
  ASSERT_OK(TransitiveClosure(edges, TcAlgorithm::kSquaring, &sq).status());
  // Squaring: O(log diameter) rounds; semi-naive: O(diameter).
  EXPECT_GT(semi.rounds, 60u);
  EXPECT_LT(sq.rounds, 10u);
}

TEST(TcStatsTest, NaiveVisitsMorePairsThanSemiNaive) {
  Database db;
  ASSERT_OK(workload::Chain(40, &db));
  const Relation& edges = *db.Find("edge");
  TcStats naive, semi;
  ASSERT_OK(TransitiveClosure(edges, TcAlgorithm::kNaive, &naive).status());
  ASSERT_OK(
      TransitiveClosure(edges, TcAlgorithm::kSemiNaive, &semi).status());
  EXPECT_GT(naive.pair_visits, semi.pair_visits);
}

TEST(TcTest, WrongArityRejected) {
  Relation r(3);
  EXPECT_FALSE(TransitiveClosure(r, TcAlgorithm::kBfs).ok());
}

TEST(ReachableFromTest, SingleSource) {
  Database db;
  Relation edges =
      MakeEdges(&db, {{0, 1}, {1, 2}, {3, 4}});  // two components
  ASSERT_OK_AND_ASSIGN(
      Relation reach,
      ReachableFrom(edges, Value::Sym(db.Intern("n0"))));
  EXPECT_EQ(reach.size(), 2u);  // n1, n2
}

TEST(ReachableFromTest, PositiveClosureExcludesSourceWithoutCycle) {
  Database db;
  Relation edges = MakeEdges(&db, {{0, 1}});
  ASSERT_OK_AND_ASSIGN(
      Relation reach,
      ReachableFrom(edges, Value::Sym(db.Intern("n0"))));
  EXPECT_EQ(reach.size(), 1u);
  EXPECT_FALSE(reach.Contains(Tuple{Value::Sym(db.Intern("n0"))}));
}

TEST(ReachableFromTest, CycleIncludesSource) {
  Database db;
  Relation edges = MakeEdges(&db, {{0, 1}, {1, 0}});
  ASSERT_OK_AND_ASSIGN(
      Relation reach,
      ReachableFrom(edges, Value::Sym(db.Intern("n0"))));
  EXPECT_TRUE(reach.Contains(Tuple{Value::Sym(db.Intern("n0"))}));
}

TEST(ReachableFromTest, UnknownSourceIsEmpty) {
  Database db;
  Relation edges = MakeEdges(&db, {{0, 1}});
  ASSERT_OK_AND_ASSIGN(
      Relation reach,
      ReachableFrom(edges, Value::Sym(db.Intern("missing"))));
  EXPECT_TRUE(reach.empty());
}

}  // namespace
}  // namespace graphlog::tc
