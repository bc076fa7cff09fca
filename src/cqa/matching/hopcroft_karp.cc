#include "cqa/matching/hopcroft_karp.h"

#include <deque>
#include <limits>

namespace cqa {

namespace {

constexpr int kInf = std::numeric_limits<int>::max();

struct HkState {
  const BipartiteGraph* g;
  std::vector<int> match_l;
  std::vector<int> match_r;
  std::vector<int> dist;

  bool Bfs() {
    std::deque<int> queue;
    dist.assign(static_cast<size_t>(g->num_left()), kInf);
    for (int l = 0; l < g->num_left(); ++l) {
      if (match_l[static_cast<size_t>(l)] < 0) {
        dist[static_cast<size_t>(l)] = 0;
        queue.push_back(l);
      }
    }
    bool found_free = false;
    while (!queue.empty()) {
      int l = queue.front();
      queue.pop_front();
      for (int r : g->Neighbors(l)) {
        int l2 = match_r[static_cast<size_t>(r)];
        if (l2 < 0) {
          found_free = true;
        } else if (dist[static_cast<size_t>(l2)] == kInf) {
          dist[static_cast<size_t>(l2)] = dist[static_cast<size_t>(l)] + 1;
          queue.push_back(l2);
        }
      }
    }
    return found_free;
  }

  /// One frame of the augmenting-path search: left vertex `l`, trying
  /// its `next`-th neighbour.
  struct Frame {
    int l = 0;
    size_t next = 0;
  };
  /// The current alternating path from the root, one frame per left vertex.
  std::vector<Frame> path;

  /// Searches the layered graph for an augmenting path from the free left
  /// vertex `root` and flips it. Iterative — a path can be as long as the
  /// graph, so a recursion per edge would overflow the call stack — but it
  /// visits edges exactly as the recursive formulation does.
  bool Dfs(int root) {
    path.clear();
    path.push_back(Frame{root, 0});
    while (!path.empty()) {
      Frame& f = path.back();
      const std::vector<int>& nbrs = g->Neighbors(f.l);
      if (f.next == nbrs.size()) {
        // Dead end: no augmenting path through f.l in this phase.
        dist[static_cast<size_t>(f.l)] = kInf;
        path.pop_back();
        if (!path.empty()) ++path.back().next;
        continue;
      }
      int l2 = match_r[static_cast<size_t>(nbrs[f.next])];
      if (l2 < 0) {
        // Free right vertex: flip every edge on the path.
        for (const Frame& p : path) {
          int r = g->Neighbors(p.l)[p.next];
          match_l[static_cast<size_t>(p.l)] = r;
          match_r[static_cast<size_t>(r)] = p.l;
        }
        return true;
      }
      if (dist[static_cast<size_t>(l2)] ==
          dist[static_cast<size_t>(f.l)] + 1) {
        path.push_back(Frame{l2, 0});  // invalidates f
      } else {
        ++f.next;
      }
    }
    return false;
  }
};

}  // namespace

Matching MaxMatching(const BipartiteGraph& g) {
  HkState s;
  s.g = &g;
  s.match_l.assign(static_cast<size_t>(g.num_left()), -1);
  s.match_r.assign(static_cast<size_t>(g.num_right()), -1);
  int size = 0;
  while (s.Bfs()) {
    for (int l = 0; l < g.num_left(); ++l) {
      if (s.match_l[static_cast<size_t>(l)] < 0 && s.Dfs(l)) ++size;
    }
  }
  Matching out;
  out.size = size;
  out.match_left = std::move(s.match_l);
  out.match_right = std::move(s.match_r);
  return out;
}

bool HasLeftPerfectMatching(const BipartiteGraph& g) {
  return MaxMatching(g).size == g.num_left();
}

bool HasPerfectMatching(const BipartiteGraph& g) {
  return g.num_left() == g.num_right() && HasLeftPerfectMatching(g);
}

}  // namespace cqa
