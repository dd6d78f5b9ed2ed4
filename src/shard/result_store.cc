#include "shard/result_store.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>

namespace dema::shard {

ResultStore::ResultStore(uint32_t num_shards, uint64_t num_keys,
                         std::vector<double> quantiles)
    : num_shards_(num_shards),
      num_keys_(num_keys),
      quantiles_(std::move(quantiles)),
      slots_(num_keys) {
  stripes_.reserve(num_shards_);
  for (uint32_t s = 0; s < num_shards_; ++s) {
    stripes_.push_back(std::make_unique<Stripe>());
  }
}

void ResultStore::Publish(uint32_t shard, net::KeyId key,
                          const sim::WindowOutput& out) {
  if (key >= num_keys_) return;
  Stripe& stripe = *stripes_[shard % num_shards_];
  {
    std::lock_guard<std::mutex> lock(stripe.mu);
    // Windows can complete out of order: a window whose candidate round
    // touches fewer locals finishes before an older one still in flight.
    // "Latest" therefore means highest window id, not most recent arrival —
    // an older result must never overwrite a newer one.
    Slot& slot = slots_[key];
    if (!slot.found || out.window_id > slot.latest.window_id) {
      slot.latest = out;  // copy-assignment reuses the slot's buffers
      slot.found = true;
    }
    ++stripe.epoch;
  }
}

uint64_t ResultStore::published_windows() const {
  uint64_t total = 0;
  for (const auto& stripe : stripes_) {
    std::lock_guard<std::mutex> lock(stripe->mu);
    total += stripe->epoch;
  }
  return total;
}

Status ResultStore::ResolveQuantiles(const std::vector<double>& asked,
                                     std::vector<size_t>* indices) const {
  indices->clear();
  if (asked.empty()) {
    indices->reserve(quantiles_.size());
    for (size_t i = 0; i < quantiles_.size(); ++i) indices->push_back(i);
    return Status::OK();
  }
  for (double q : asked) {
    size_t found = quantiles_.size();
    for (size_t i = 0; i < quantiles_.size(); ++i) {
      if (std::abs(quantiles_[i] - q) < 1e-12) {
        found = i;
        break;
      }
    }
    if (found == quantiles_.size()) {
      return Status::InvalidArgument("quantile " + std::to_string(q) +
                                     " is not computed by this service");
    }
    indices->push_back(found);
  }
  return Status::OK();
}

net::KeyedQueryReply ResultStore::Query(const net::KeyedQuery& query) const {
  net::KeyedQueryReply reply;
  reply.query_id = query.query_id;

  std::vector<size_t> indices;
  Status resolved = ResolveQuantiles(query.quantiles, &indices);
  if (!resolved.ok()) {
    reply.error = resolved.message();
    return reply;
  }
  reply.quantiles.reserve(indices.size());
  for (size_t i : indices) reply.quantiles.push_back(quantiles_[i]);

  // Group the asked keys by shard, remembering each key's position in the
  // query so the reply preserves the caller's order.
  std::vector<std::pair<uint32_t, size_t>> by_shard;
  by_shard.reserve(query.keys.size());
  for (size_t pos = 0; pos < query.keys.size(); ++pos) {
    const net::KeyId key = query.keys[pos];
    if (key >= num_keys_) {
      reply.error = "unknown key " + std::to_string(key) + " (service has " +
                    std::to_string(num_keys_) + " keys)";
      return reply;
    }
    by_shard.emplace_back(ShardOfKey(key, num_shards_), pos);
  }
  std::sort(by_shard.begin(), by_shard.end());

  reply.answers.resize(query.keys.size());
  for (size_t begin = 0; begin < by_shard.size();) {
    const uint32_t shard = by_shard[begin].first;
    const Stripe& stripe = *stripes_[shard];
    // One lock acquisition per touched shard: all of this shard's keys are
    // answered from the same publish snapshot.
    std::lock_guard<std::mutex> lock(stripe.mu);
    size_t end = begin;
    for (; end < by_shard.size() && by_shard[end].first == shard; ++end) {
      const size_t pos = by_shard[end].second;
      const net::KeyId key = query.keys[pos];
      net::KeyedAnswer& a = reply.answers[pos];
      a.key = key;
      const Slot& slot = slots_[key];
      if (!slot.found) {
        a.found = false;
        continue;
      }
      const sim::WindowOutput& out = slot.latest;
      a.found = true;
      a.window_id = out.window_id;
      a.global_size = out.global_size;
      a.degraded = out.degraded;
      a.rank_error_bound = out.rank_error_bound;
      a.values.reserve(indices.size());
      for (size_t i : indices) {
        a.values.push_back(i < out.values.size() ? out.values[i] : 0.0);
      }
    }
    begin = end;
  }
  return reply;
}

std::optional<sim::WindowOutput> ResultStore::Latest(net::KeyId key) const {
  if (key >= num_keys_) return std::nullopt;
  const Stripe& stripe = *stripes_[ShardOfKey(key, num_shards_)];
  std::lock_guard<std::mutex> lock(stripe.mu);
  const Slot& slot = slots_[key];
  if (!slot.found) return std::nullopt;
  return slot.latest;
}

}  // namespace dema::shard
