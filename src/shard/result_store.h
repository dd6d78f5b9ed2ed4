#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "net/keyed.h"
#include "shard/key.h"
#include "sim/node.h"

namespace dema::shard {

/// \brief Live per-key result state the query API answers from.
///
/// Striped by shard: each shard's strand publishes its keys' freshest window
/// result into its own stripe (one mutex per shard, so publishes never
/// contend across shards), and a query reads every stripe it touches under
/// one lock acquisition — the consistency unit is the shard. Within one
/// shard a multi-key read is a true snapshot: it can never observe key A's
/// window w+1 next to key B's window w if the shard published both for w
/// atomically before w+1. Across shards, answers may come from different
/// window frontiers (shards progress independently by design; see
/// docs/SHARDING.md).
///
/// Keys are dense (0..K-1), so each key has one slot, guarded by its shard's
/// stripe lock; a publish overwrites the slot in place and allocates only for
/// the key's first window.
class ResultStore {
 public:
  ResultStore(uint32_t num_shards, uint64_t num_keys,
              std::vector<double> quantiles);

  /// Publishes \p out as key \p key's freshest result (called from shard
  /// \p shard's strand). Keeps only the highest-window result per key — the
  /// query API serves live state, not history, and windows may complete out
  /// of order (an older, slower window must not clobber a newer one).
  void Publish(uint32_t shard, net::KeyId key, const sim::WindowOutput& out);

  /// Answers a multi-key, multi-quantile query. Unknown keys and
  /// unconfigured quantiles reject the whole query (error set in the reply);
  /// known keys that have not emitted a window yet answer `found = false`.
  net::KeyedQueryReply Query(const net::KeyedQuery& query) const;

  /// Latest published result for \p key, if any (test/CLI convenience).
  std::optional<sim::WindowOutput> Latest(net::KeyId key) const;

  /// Total publishes across all keys (== per-key windows emitted).
  uint64_t published_windows() const;

  const std::vector<double>& quantiles() const { return quantiles_; }
  uint64_t num_keys() const { return num_keys_; }

 private:
  struct Stripe {
    mutable std::mutex mu;
    /// Monotone publish epoch: the stripe's publish count.
    uint64_t epoch = 0;
  };

  /// One key's latest result; guarded by the key's stripe.
  struct Slot {
    bool found = false;
    sim::WindowOutput latest;
  };

  /// Maps the query's quantile list onto indices into `quantiles_`, or an
  /// empty vector + error message when a quantile is not configured. An
  /// empty query list resolves to all configured quantiles.
  Status ResolveQuantiles(const std::vector<double>& asked,
                          std::vector<size_t>* indices) const;

  uint32_t num_shards_;
  uint64_t num_keys_;
  std::vector<double> quantiles_;
  std::vector<std::unique_ptr<Stripe>> stripes_;
  /// By key id.
  std::vector<Slot> slots_;
};

}  // namespace dema::shard
