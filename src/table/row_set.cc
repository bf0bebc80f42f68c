#include "table/row_set.h"

#include <algorithm>
#include <functional>

#include "common/logging.h"

namespace charles {

RowSet::RowSet(std::vector<int64_t> indices) : indices_(std::move(indices)) {
  // Most callers pass rows already in order; one scan then replaces the sort.
  if (std::adjacent_find(indices_.begin(), indices_.end(), std::greater_equal<int64_t>()) ==
      indices_.end()) {
    return;
  }
  std::sort(indices_.begin(), indices_.end());
  indices_.erase(std::unique(indices_.begin(), indices_.end()), indices_.end());
}

RowSet RowSet::All(int64_t n) {
  CHARLES_CHECK_GE(n, 0);
  RowSet set;
  set.indices_.resize(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) set.indices_[static_cast<size_t>(i)] = i;
  return set;
}

RowSet RowSet::FromMask(const std::vector<bool>& mask) {
  RowSet set;
  for (size_t i = 0; i < mask.size(); ++i) {
    if (mask[i]) set.indices_.push_back(static_cast<int64_t>(i));
  }
  return set;
}

bool RowSet::Contains(int64_t row) const {
  return std::binary_search(indices_.begin(), indices_.end(), row);
}

RowSet RowSet::Intersect(const RowSet& other) const {
  RowSet out;
  std::set_intersection(indices_.begin(), indices_.end(), other.indices_.begin(),
                        other.indices_.end(), std::back_inserter(out.indices_));
  return out;
}

RowSet RowSet::Union(const RowSet& other) const {
  RowSet out;
  std::set_union(indices_.begin(), indices_.end(), other.indices_.begin(),
                 other.indices_.end(), std::back_inserter(out.indices_));
  return out;
}

RowSet RowSet::Difference(const RowSet& other) const {
  RowSet out;
  std::set_difference(indices_.begin(), indices_.end(), other.indices_.begin(),
                      other.indices_.end(), std::back_inserter(out.indices_));
  return out;
}

RowSet RowSet::Complement(int64_t n) const { return All(n).Difference(*this); }

std::pair<int64_t, int64_t> RowSet::PositionsInRange(int64_t begin,
                                                     int64_t end) const {
  auto lo = std::lower_bound(indices_.begin(), indices_.end(), begin);
  auto hi = std::lower_bound(lo, indices_.end(), end);
  return {lo - indices_.begin(), hi - indices_.begin()};
}

RowSet RowSet::Restrict(int64_t begin, int64_t end) const {
  auto [lo, hi] = PositionsInRange(begin, end);
  RowSet out;
  out.indices_.assign(indices_.begin() + lo, indices_.begin() + hi);
  return out;
}

double RowSet::Coverage(int64_t n) const {
  if (n <= 0) return 0.0;
  return static_cast<double>(size()) / static_cast<double>(n);
}

std::string RowSet::ToString(int64_t max_items) const {
  std::string out = "RowSet{";
  int64_t shown = std::min<int64_t>(size(), max_items);
  for (int64_t i = 0; i < shown; ++i) {
    if (i > 0) out += ", ";
    out += std::to_string(indices_[static_cast<size_t>(i)]);
  }
  if (shown < size()) out += ", ... +" + std::to_string(size() - shown);
  out += "}";
  return out;
}

}  // namespace charles
