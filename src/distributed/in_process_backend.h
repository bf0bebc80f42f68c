#ifndef CHARLES_DISTRIBUTED_IN_PROCESS_BACKEND_H_
#define CHARLES_DISTRIBUTED_IN_PROCESS_BACKEND_H_

#include "distributed/backend.h"

namespace charles {

/// \brief The zero-copy backend: runs the shard kernel on the calling
/// thread, against the run's in-memory ShardInput.
///
/// Parallelism comes from the Coordinator, which fans ExecuteTask calls
/// out over the run's thread pool (the EngineContext pool for attached
/// engines) — the backend itself is stateless and trivially concurrent.
/// This is the default production backend on one box; SubprocessBackend
/// exists to prove the wire format this backend never needs.
class InProcessBackend : public ShardBackend {
 public:
  std::string name() const override { return "in-process"; }

  Result<ShardTaskResult> ExecuteTask(const ShardInput& input, const ShardPlan& plan,
                                      int64_t shard_index,
                                      const ShardTask& task) override {
    return ExecuteShardTaskKernel(input, plan, shard_index, task);
  }
};

}  // namespace charles

#endif  // CHARLES_DISTRIBUTED_IN_PROCESS_BACKEND_H_
