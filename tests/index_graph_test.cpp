/// \file index_graph_test.cpp
/// Direct unit suite for IndexGraph (tn/index_graph.hpp): the sorted-unique
/// vector adjacency and determinism of top_degree.  tn_test.cpp covers the
/// Fig. 5 paper claims; this file pins the accessor contracts themselves.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "circuit/circuit.hpp"
#include "circuit/generators.hpp"
#include "tn/circuit_tensors.hpp"
#include "tn/index_graph.hpp"

namespace qts::tn {
namespace {

using tdd::Level;

IndexGraph graph_of(const circ::Circuit& c) {
  tdd::Manager mgr;
  return IndexGraph::from_network(build_network(mgr, c));
}

TEST(IndexGraphDirect, NeighboursAreSortedUniqueAndMatchDegree) {
  circ::Circuit c(3);
  c.cx(0, 1).cx(0, 2).h(1);
  const IndexGraph g = graph_of(c);
  for (const Level v : g.vertices()) {
    const std::vector<Level>& nb = g.neighbours(v);
    EXPECT_TRUE(std::is_sorted(nb.begin(), nb.end()));
    EXPECT_EQ(std::adjacent_find(nb.begin(), nb.end()), nb.end()) << "vertex " << v;
    EXPECT_EQ(nb.size(), g.degree(v));
    EXPECT_EQ(std::count(nb.begin(), nb.end(), v), 0) << "self-loop at " << v;
  }
}

TEST(IndexGraphDirect, AdjacencyIsSymmetric) {
  const IndexGraph g = graph_of(circ::make_grover_iteration(4));
  for (const Level v : g.vertices()) {
    for (const Level w : g.neighbours(v)) {
      const std::vector<Level>& back = g.neighbours(w);
      EXPECT_TRUE(std::binary_search(back.begin(), back.end(), v))
          << w << " does not list " << v;
    }
  }
}

TEST(IndexGraphDirect, IsolatedVerticesHaveNoNeighbours) {
  circ::Circuit c(3);
  c.h(0);  // qubits 1 and 2 untouched: isolated state-level vertices
  const IndexGraph g = graph_of(c);
  for (const Level v : {tdd::state_level(1), tdd::state_level(2)}) {
    EXPECT_EQ(g.degree(v), 0u);
    EXPECT_TRUE(g.neighbours(v).empty());
  }
  // The gate's own wire is connected: N(q0.t0) = {q0.t1}.
  EXPECT_EQ(g.neighbours(tdd::wire_level(0, 0)),
            std::vector<Level>{tdd::wire_level(0, 1)});
}

TEST(IndexGraphDirect, TopDegreeDeterministicAndTieBrokenBySmallerLevel) {
  // Symmetric circuit: both cx target wires have identical degree, so the
  // tie must resolve towards the smaller level, run after run.
  circ::Circuit c(3);
  c.cx(0, 1).cx(0, 2);
  const IndexGraph g = graph_of(c);
  const auto first = g.top_degree(3);
  for (int run = 0; run < 3; ++run) {
    EXPECT_EQ(graph_of(c).top_degree(3), first);
  }
  ASSERT_FALSE(first.empty());
  EXPECT_EQ(first[0], tdd::wire_level(0, 0));  // unique degree-4 vertex
  // The remaining four candidates all have degree 2; smaller levels win.
  std::vector<Level> rest(first.begin() + 1, first.end());
  std::vector<Level> sorted_rest = rest;
  std::sort(sorted_rest.begin(), sorted_rest.end());
  EXPECT_EQ(rest, sorted_rest);
}

TEST(IndexGraphDirect, VerticesSortedAndCountsAgree) {
  const IndexGraph g = graph_of(circ::make_qft(5));
  const std::vector<Level> vs = g.vertices();
  EXPECT_EQ(vs.size(), g.num_vertices());
  EXPECT_TRUE(std::is_sorted(vs.begin(), vs.end()));
  // Handshake: Σ degree is even and counts each clique edge twice.
  std::size_t total = 0;
  for (const Level v : vs) total += g.degree(v);
  EXPECT_EQ(total % 2, 0u);
}

}  // namespace
}  // namespace qts::tn
