#include "vhp/cosim/sync_policy.hpp"

#include <limits>

#include "vhp/common/format.hpp"

namespace vhp::cosim {

Status SyncPolicy::validate(std::size_t n_nodes) const {
  if (n_nodes == 0) {
    return Status{StatusCode::kInvalidArgument,
                  "SyncPolicy: at least one node required"};
  }
  // A zero default quantum is fine as long as every node overrides it, so
  // only the per-node resolution is checked.
  for (std::size_t i = 0; i < n_nodes; ++i) {
    if (node_quantum(i) == 0) {
      return Status{StatusCode::kInvalidArgument,
                    strformat("SyncPolicy: node {} quantum is 0", i)};
    }
  }
  if (min_quantum_ != 0 && max_quantum_ != 0 && min_quantum_ > max_quantum_) {
    return Status{
        StatusCode::kInvalidArgument,
        strformat("SyncPolicy: min_quantum {} > max_quantum {}", min_quantum_,
                  max_quantum_)};
  }
  // CLOCK_TICK carries the grant in a u32 n_ticks field; an adaptive grant
  // must fit it or the tick would silently truncate.
  constexpr u64 kTickMax = std::numeric_limits<u32>::max();
  if (max_quantum_ > kTickMax) {
    return Status{
        StatusCode::kInvalidArgument,
        strformat("SyncPolicy: max_quantum {} exceeds the u32 CLOCK_TICK "
                  "grant field",
                  max_quantum_)};
  }
  for (std::size_t i = 0; i < n_nodes; ++i) {
    if (node_quantum(i) > kTickMax) {
      return Status{
          StatusCode::kInvalidArgument,
          strformat("SyncPolicy: node {} quantum {} exceeds the u32 "
                    "CLOCK_TICK grant field",
                    i, node_quantum(i))};
    }
  }
  if (evict_after_misses_ > 0 && watchdog_.count() == 0) {
    return Status{StatusCode::kInvalidArgument,
                  "SyncPolicy: eviction needs a nonzero watchdog"};
  }
  return Status::Ok();
}

}  // namespace vhp::cosim
