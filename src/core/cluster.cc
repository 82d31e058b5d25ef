#include "core/cluster.h"

#include <algorithm>
#include <map>
#include <numeric>

namespace ecrint::core {

std::vector<Cluster> BuildClusters(const AssertionStore& store,
                                   const std::vector<ObjectRef>& universe) {
  int n = static_cast<int>(universe.size());
  std::vector<int> id(n);
  for (int i = 0; i < n; ++i) id[i] = store.IdOf(universe[i]);
  std::vector<int> parent(n);
  std::iota(parent.begin(), parent.end(), 0);
  auto find = [&](int x) {
    while (parent[x] != x) {
      parent[x] = parent[parent[x]];
      x = parent[x];
    }
    return x;
  };

  for (int i = 0; i < n; ++i) {
    for (int j = i + 1; j < n; ++j) {
      if (store.IsIntegrating(id[i], id[j])) {
        parent[find(i)] = find(j);
      }
    }
  }

  std::map<int, Cluster> by_root;
  for (int i = 0; i < n; ++i) by_root[find(i)].members.push_back(universe[i]);
  std::vector<Cluster> clusters;
  clusters.reserve(by_root.size());
  for (auto& [root, cluster] : by_root) {
    std::sort(cluster.members.begin(), cluster.members.end());
    clusters.push_back(std::move(cluster));
  }
  std::sort(clusters.begin(), clusters.end(),
            [](const Cluster& a, const Cluster& b) {
              return a.members.front() < b.members.front();
            });
  return clusters;
}

}  // namespace ecrint::core
