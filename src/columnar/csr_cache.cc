#include "columnar/csr_cache.h"

#include <utility>

namespace graphlog::columnar {

Result<std::shared_ptr<const Csr>> CsrCache::Get(
    const storage::Relation& rel, obs::MetricsRegistry* metrics,
    const gov::GovernorContext* governor, bool* built) {
  if (built != nullptr) *built = false;
  const uint64_t uid = rel.uid();
  bool invalidated = false;
  if (uid != 0) {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = by_uid_.find(uid);
    if (it != by_uid_.end()) {
      const Csr& c = *it->second;
      if (c.source_data_generation == rel.data_generation() &&
          c.source_size == rel.size()) {
        ++stats_.reuses;
        if (metrics != nullptr) {
          metrics->counter("columnar.reuses")->Increment();
        }
        return it->second;
      }
      by_uid_.erase(it);
      invalidated = true;
    }
  }
  GRAPHLOG_ASSIGN_OR_RETURN(Csr fresh, BuildCsr(rel, metrics, governor));
  auto csr = std::make_shared<const Csr>(std::move(fresh));
  if (built != nullptr) *built = true;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.builds;
    if (invalidated) {
      ++stats_.invalidations;
      if (metrics != nullptr) {
        metrics->counter("columnar.invalidations")->Increment();
      }
    }
    if (uid != 0) by_uid_[uid] = csr;
  }
  return csr;
}

CsrCache::Stats CsrCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

void CsrCache::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  by_uid_.clear();
}

size_t CsrCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return by_uid_.size();
}

}  // namespace graphlog::columnar
