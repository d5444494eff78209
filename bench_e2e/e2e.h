// End-to-end benchmark of graphlogd: workload definitions.
//
// Everything the server receives is built here from the workload seed:
// the seed facts (as fact text, from src/workload generators) and the
// request streams (GraphLog query text plus wire knobs, and write
// batches). The benchmark program (main.cc) only sends what these
// streams produce, so the same seed gives the same byte stream on the
// wire.

#ifndef GRAPHLOG_BENCH_E2E_E2E_H_
#define GRAPHLOG_BENCH_E2E_E2E_H_

#include <cstdint>
#include <random>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/result.h"
#include "net/protocol.h"
#include "server/server.h"

namespace graphlog::e2e {

enum class Workload { kClosureMix, kPointLookups, kIngestChurn };

Result<Workload> ParseWorkload(std::string_view name);
const char* WorkloadName(Workload w);

/// \brief Generator sizes of one workload (recorded in every result).
struct Sizes {
  int digraph_nodes = 0;
  int digraph_edges = 0;
  int flight_cities = 0;  ///< closure_mix only (0 elsewhere)
  int flights = 0;
  int modules = 0;
  int functions_per_module = 0;
  int tasks = 0;
  std::string ToJson() const;
};

Sizes SizesFor(Workload w);

/// \brief The seed database of `w` rendered as fact text (the bytes the
/// benchmark commits to the server during set-up).
std::string SeedFacts(Workload w, uint64_t seed);

/// \brief One query op: the query plus the relation whose rows a user
/// fetches afterwards.
struct QueryOp {
  std::string template_name;
  net::WireQuery query;
  std::string answer;
};

/// \brief The query stream of one client of one workload. Deterministic
/// in (workload, seed, client).
class QueryStream {
 public:
  QueryStream(Workload w, uint64_t seed, int client);
  QueryOp Next();

 private:
  Workload w_;
  std::mt19937_64 rng_;
  int nodes_;
  std::vector<int> cycle_;  ///< shuffled template cycle
  std::vector<int> hot_;    ///< point_lookups: the hot nodes
};

/// \brief One write batch of novel `edge` facts between existing nodes.
struct BatchOp {
  std::string facts;  ///< fact text, one fact per line
  size_t rows = 0;    ///< facts in the batch (all novel)
};

/// \brief Write batches of 1 to 8 novel edges. Novelty is checked
/// against the seed edges and every earlier batch of this stream, so a
/// committed batch grows `edge` by exactly `rows`.
class BatchStream {
 public:
  BatchStream(Workload w, uint64_t seed);
  BatchOp Next();

 private:
  std::mt19937_64 rng_;
  int nodes_;
  std::set<std::pair<int, int>> edges_;
};

/// \brief One-row commits into `probe`, a relation no query reads: the
/// read-only workloads measure commit latency with these, outside their
/// timed loop, so their answers never depend on them. Each row adds a
/// new constant, so the commit also publishes a grown symbol table.
BatchOp ProbeBatch(uint64_t k);

/// \brief The byte stream a client of `w` would send for its first
/// `queries` query ops (every query frame, serialized), followed by the
/// first `batches` write batches' fact text. The determinism test
/// compares two of these.
std::string RequestStreamBytes(Workload w, uint64_t seed, int client,
                               int queries, int batches);

/// \brief Order-independent digest of a relation's fact text: the row
/// count plus a sum of per-line hashes. Two renderings of the same row
/// set digest equal in any row order.
struct AnswerDigest {
  uint64_t rows = 0;
  uint64_t hash = 0;
  bool operator==(const AnswerDigest& o) const {
    return rows == o.rows && hash == o.hash;
  }
};
AnswerDigest DigestFacts(std::string_view text);

uint64_t Fnv1a(std::string_view s);

}  // namespace graphlog::e2e

#endif  // GRAPHLOG_BENCH_E2E_E2E_H_
