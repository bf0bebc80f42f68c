#include "core/options.h"

#include "linalg/kernels/kernel.h"

namespace charles {

Status CharlesOptions::Validate() const {
  if (target_attribute.empty()) {
    return Status::InvalidArgument("target_attribute must be set");
  }
  if (key_columns.empty()) {
    return Status::InvalidArgument("key_columns must not be empty");
  }
  if (alpha < 0.0 || alpha > 1.0) {
    return Status::OutOfRange("alpha must be in [0, 1], got " + std::to_string(alpha));
  }
  if (max_condition_attrs < 0) {
    return Status::OutOfRange("max_condition_attrs must be >= 0");
  }
  if (max_transform_attrs < 0) {
    return Status::OutOfRange("max_transform_attrs must be >= 0");
  }
  if (top_n < 1) return Status::OutOfRange("top_n must be >= 1");
  if (max_clusters < 1) return Status::OutOfRange("max_clusters must be >= 1");
  if (correlation_threshold < 0.0 || correlation_threshold > 1.0) {
    return Status::OutOfRange("correlation_threshold must be in [0, 1]");
  }
  if (min_partition_size < 1) {
    return Status::OutOfRange("min_partition_size must be >= 1");
  }
  if (numeric_tolerance < 0.0) {
    return Status::OutOfRange("numeric_tolerance must be >= 0");
  }
  if (num_threads < 0) {
    return Status::OutOfRange("num_threads must be >= 0 (0 = hardware concurrency)");
  }
  if (num_shards < 0) {
    return Status::OutOfRange("num_shards must be >= 0 (0 = unsharded)");
  }
  if (stats_block_rows < 1) {
    return Status::OutOfRange("stats_block_rows must be >= 1");
  }
  {
    Result<kernels::KernelBackend> parsed =
        kernels::ParseKernelBackend(kernel_backend);
    if (!parsed.ok()) return parsed.status();
  }
  if (shard_backend == ShardBackendKind::kRemote) {
    if (remote_workers.empty()) {
      return Status::InvalidArgument(
          "shard_backend = kRemote requires at least one remote_workers "
          "endpoint (\"host:port\")");
    }
    if (remote_connect_timeout_ms <= 0) {
      return Status::OutOfRange("remote_connect_timeout_ms must be > 0");
    }
    if (remote_task_timeout_ms < 0) {
      return Status::OutOfRange(
          "remote_task_timeout_ms must be >= 0 (0 = no deadline)");
    }
    if (remote_max_task_retries < 0) {
      return Status::OutOfRange("remote_max_task_retries must be >= 0");
    }
    if (remote_retry_backoff_ms < 0) {
      return Status::OutOfRange("remote_retry_backoff_ms must be >= 0");
    }
  }
  double weight_sum = weights.summary_size + weights.condition_simplicity +
                      weights.transform_simplicity + weights.coverage +
                      weights.normality;
  if (weight_sum <= 0.0) {
    return Status::OutOfRange("interpretability weights must sum to a positive value");
  }
  return Status::OK();
}

}  // namespace charles
