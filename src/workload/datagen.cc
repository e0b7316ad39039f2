#include "workload/datagen.h"

#include <algorithm>
#include <cmath>

namespace dynamite {
namespace workload {

RecordNode Rec(Name type, std::vector<std::pair<Name, Value>> prims) {
  RecordNode node;
  node.type = type;
  node.prims = std::move(prims);
  return node;
}

std::string Pooled(const std::string& pool, size_t index) {
  return pool + "_" + std::to_string(index);
}

void AddChild(RecordNode* parent, Name attr, RecordNode child) {
  for (auto& [name, kids] : parent->children) {
    if (name == attr) {
      kids.push_back(std::move(child));
      return;
    }
  }
  parent->children.push_back({attr, {std::move(child)}});
}

ZipfDist::ZipfDist(size_t n, double s) {
  cdf_.reserve(n == 0 ? 1 : n);
  double total = 0;
  for (size_t k = 0; k < std::max<size_t>(n, 1); ++k) {
    total += 1.0 / std::pow(static_cast<double>(k + 1), s);
    cdf_.push_back(total);
  }
  for (double& c : cdf_) c /= total;
  cdf_.back() = 1.0;  // guard against accumulated rounding
}

size_t ZipfDist::Sample(Rng* rng) const {
  double u = rng->NextDouble();
  return static_cast<size_t>(
      std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
}

std::vector<FlatColumn> WideColumns(size_t n, size_t pool_size) {
  std::vector<FlatColumn> cols;
  cols.reserve(n);
  for (size_t c = 0; c < n; ++c) {
    cols.push_back({"w" + std::to_string(c), /*is_string=*/c % 3 != 2, pool_size});
  }
  return cols;
}

RecordForest ZipfFlatInstance(const std::string& type, const std::vector<FlatColumn>& cols,
                              size_t rows, double s, Rng* rng) {
  std::vector<ZipfDist> dists;
  dists.reserve(cols.size());
  for (const FlatColumn& col : cols) dists.emplace_back(col.pool_size, s);
  const Name type_name = type;
  std::vector<Name> attrs(cols.size());
  for (size_t c = 0; c < cols.size(); ++c) attrs[c] = cols[c].attr;
  RecordForest forest;
  forest.roots.reserve(rows);
  for (size_t r = 0; r < rows; ++r) {
    RecordNode rec;
    rec.type = type_name;
    rec.prims.reserve(cols.size());
    for (size_t c = 0; c < cols.size(); ++c) {
      size_t rank = dists[c].Sample(rng);
      rec.prims.push_back({attrs[c], cols[c].is_string ? S(Pooled(cols[c].attr, rank))
                                                       : I(static_cast<int64_t>(rank))});
    }
    forest.roots.push_back(std::move(rec));
  }
  return forest;
}

}  // namespace workload
}  // namespace dynamite
