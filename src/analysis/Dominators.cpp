//===- analysis/Dominators.cpp - Dominator trees ---------------------------===//

#include "analysis/Dominators.h"

#include <cassert>

using namespace ceal;
using namespace ceal::analysis;

std::vector<uint32_t> analysis::computeDominators(const ProgramGraph &G) {
  constexpr uint32_t Root = ProgramGraph::Root;
  // Cooper-Harvey-Kennedy: iterate to a fixed point over reverse
  // postorder, intersecting predecessor dominators by walking up the
  // current idom approximation.
  std::vector<uint32_t> Post;      // Postorder sequence of nodes.
  std::vector<uint32_t> PostNum(G.size(), InvalidNode);
  {
    std::vector<std::pair<uint32_t, size_t>> Stack{{Root, 0}};
    std::vector<uint8_t> State(G.size(), 0);
    State[Root] = 1;
    while (!Stack.empty()) {
      auto &[N, Next] = Stack.back();
      if (Next < G.Succs[N].size()) {
        uint32_t S = G.Succs[N][Next++];
        if (!State[S]) {
          State[S] = 1;
          Stack.push_back({S, 0});
        }
        continue;
      }
      PostNum[N] = static_cast<uint32_t>(Post.size());
      Post.push_back(N);
      Stack.pop_back();
    }
  }

  std::vector<uint32_t> Idom(G.size(), InvalidNode);
  Idom[Root] = Root;
  auto Intersect = [&](uint32_t A, uint32_t B) {
    while (A != B) {
      while (PostNum[A] < PostNum[B])
        A = Idom[A];
      while (PostNum[B] < PostNum[A])
        B = Idom[B];
    }
    return A;
  };
  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (size_t I = Post.size(); I > 0; --I) { // Reverse postorder.
      uint32_t N = Post[I - 1];
      if (N == Root)
        continue;
      uint32_t NewIdom = InvalidNode;
      for (uint32_t P : G.Preds[N]) {
        if (Idom[P] == InvalidNode)
          continue; // Unreachable or not yet processed.
        NewIdom = NewIdom == InvalidNode ? P : Intersect(P, NewIdom);
      }
      if (NewIdom != InvalidNode && Idom[N] != NewIdom) {
        Idom[N] = NewIdom;
        Changed = true;
      }
    }
  }
  return Idom;
}

std::vector<std::vector<uint32_t>>
analysis::dominatorTreeChildren(const std::vector<uint32_t> &Idom) {
  std::vector<std::vector<uint32_t>> Children(Idom.size());
  for (uint32_t N = 0; N < Idom.size(); ++N) {
    if (N == ProgramGraph::Root || Idom[N] == InvalidNode)
      continue;
    assert(Idom[N] < Idom.size() && "invalid idom entry");
    Children[Idom[N]].push_back(N);
  }
  return Children;
}
