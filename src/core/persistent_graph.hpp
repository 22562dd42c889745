// Persistence glue: k-NN graphs and feature stores inside a pmem datastore.
//
// Reproduces the paper's two-executable workflow (§5.1.3): the
// construction program stores the k-NNG and the dataset in the datastore;
// the optimization and query programs reopen it later — possibly in a
// different process at a different mapping address. Hence the CSR layout
// built from pmem::vector (position independent) rather than serialized
// blobs: reopening is O(1), no deserialization pass.
#pragma once

#include <algorithm>
#include <string_view>

#include "core/feature_store.hpp"
#include "core/knn_graph.hpp"
#include "core/types.hpp"
#include "pmem/manager.hpp"
#include "pmem/vector.hpp"

namespace dnnd::core {

/// CSR adjacency in persistent memory. Construct only via
/// Manager::find_or_construct with the datastore's allocator.
struct PersistentGraph {
  explicit PersistentGraph(pmem::allocator<std::byte> alloc)
      : row_offsets(pmem::allocator<std::uint64_t>(alloc.header())),
        edges(pmem::allocator<Neighbor>(alloc.header())) {}

  pmem::vector<std::uint64_t> row_offsets;  ///< num_vertices + 1 entries
  pmem::vector<Neighbor> edges;
};

/// CSR feature storage in persistent memory.
template <typename T>
struct PersistentFeatures {
  explicit PersistentFeatures(pmem::allocator<std::byte> alloc)
      : values(pmem::allocator<T>(alloc.header())),
        offsets(pmem::allocator<std::uint64_t>(alloc.header())),
        ids(pmem::allocator<VertexId>(alloc.header())) {}

  pmem::vector<T> values;
  pmem::vector<std::uint64_t> offsets;
  pmem::vector<VertexId> ids;
};

/// Build provenance stored with an index so a later session (possibly a
/// different executable — §5.1.3) can refuse to search with the wrong
/// metric or mismatched dimensionality. Trivially copyable on purpose.
struct IndexMetadata {
  static constexpr std::size_t kMaxMetricBytes = 32;
  char metric[kMaxMetricBytes] = {};
  std::uint32_t k = 0;
  std::uint32_t dim = 0;
  std::uint64_t num_points = 0;
  std::uint64_t build_seed = 0;

  void set_metric(std::string_view name) {
    const std::size_t n = std::min(name.size(), kMaxMetricBytes - 1);
    std::copy_n(name.begin(), n, metric);
    metric[n] = '\0';
  }
  [[nodiscard]] std::string_view metric_name() const {
    return {metric};
  }
};
static_assert(std::is_trivially_copyable_v<IndexMetadata>);

inline void store_index_metadata(pmem::Manager& manager,
                                 const IndexMetadata& meta,
                                 std::string_view name = "index_meta") {
  auto* stored = manager.find_or_construct<IndexMetadata>(name);
  if (stored == nullptr) throw pmem::ArenaExhausted();
  *stored = meta;
}

/// Loads and returns the named metadata; throws if absent.
inline IndexMetadata load_index_metadata(
    pmem::Manager& manager, std::string_view name = "index_meta") {
  const auto* meta = manager.find<IndexMetadata>(name);
  if (meta == nullptr) {
    throw std::runtime_error("datastore has no index metadata '" +
                             std::string(name) + "'");
  }
  return *meta;
}

/// Validates that an index was built with the expected metric and
/// dimensionality; throws std::runtime_error with a precise message.
inline void validate_index_metadata(const IndexMetadata& meta,
                                    std::string_view expected_metric,
                                    std::size_t expected_dim) {
  if (meta.metric_name() != expected_metric) {
    throw std::runtime_error("index metric mismatch: built with '" +
                             std::string(meta.metric_name()) +
                             "', queried with '" +
                             std::string(expected_metric) + "'");
  }
  if (expected_dim != 0 && meta.dim != expected_dim) {
    throw std::runtime_error(
        "index dimensionality mismatch: built with " +
        std::to_string(meta.dim) + ", queried with " +
        std::to_string(expected_dim));
  }
}

/// Writes (or overwrites the contents of) a named graph in the datastore.
inline void store_graph(pmem::Manager& manager, const KnnGraph& graph,
                        std::string_view name) {
  auto* pg = manager.find_or_construct<PersistentGraph>(
      name, manager.get_allocator<std::byte>());
  if (pg == nullptr) throw pmem::ArenaExhausted();
  pg->row_offsets.clear();
  pg->edges.clear();
  pg->row_offsets.reserve(graph.num_vertices() + 1);
  pg->edges.reserve(graph.num_edges());
  pg->row_offsets.push_back(0);
  for (std::size_t v = 0; v < graph.num_vertices(); ++v) {
    for (const Neighbor& n : graph.neighbors(static_cast<VertexId>(v))) {
      pg->edges.push_back(n);
    }
    pg->row_offsets.push_back(pg->edges.size());
  }
}

/// Loads a named graph; throws std::runtime_error if absent.
inline KnnGraph load_graph(pmem::Manager& manager, std::string_view name) {
  auto* pg = manager.find<PersistentGraph>(name);
  if (pg == nullptr) {
    throw std::runtime_error("datastore has no graph named '" +
                             std::string(name) + "'");
  }
  const std::size_t n = pg->row_offsets.size() - 1;
  KnnGraph graph(n);
  for (std::size_t v = 0; v < n; ++v) {
    const auto begin = pg->row_offsets[v];
    const auto end = pg->row_offsets[v + 1];
    std::vector<Neighbor> row(pg->edges.data() + begin,
                              pg->edges.data() + end);
    graph.set_neighbors(static_cast<VertexId>(v), std::move(row));
  }
  return graph;
}

template <typename T>
void store_features(pmem::Manager& manager, const FeatureStore<T>& features,
                    std::string_view name) {
  auto* pf = manager.find_or_construct<PersistentFeatures<T>>(
      name, manager.get_allocator<std::byte>());
  if (pf == nullptr) throw pmem::ArenaExhausted();
  pf->values.clear();
  pf->offsets.clear();
  pf->ids.clear();
  pf->offsets.reserve(features.size() + 1);
  pf->ids.reserve(features.size());
  pf->offsets.push_back(0);
  for (std::size_t i = 0; i < features.size(); ++i) {
    const auto row = features.row(i);
    for (const T& v : row) pf->values.push_back(v);
    pf->offsets.push_back(pf->values.size());
    pf->ids.push_back(features.id_at(i));
  }
}

template <typename T>
FeatureStore<T> load_features(pmem::Manager& manager, std::string_view name) {
  auto* pf = manager.find<PersistentFeatures<T>>(name);
  if (pf == nullptr) {
    throw std::runtime_error("datastore has no features named '" +
                             std::string(name) + "'");
  }
  FeatureStore<T> store;
  const std::size_t n = pf->ids.size();
  for (std::size_t i = 0; i < n; ++i) {
    const auto begin = pf->offsets[i];
    const auto end = pf->offsets[i + 1];
    store.add(pf->ids[i],
              std::span<const T>(pf->values.data() + begin, end - begin));
  }
  return store;
}

}  // namespace dnnd::core
