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
      slots_(num_keys),
      values_(num_keys * quantiles_.size()) {
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
    if (!slot.found || out.window_id > slot.window_id) {
      slot.window_id = out.window_id;
      slot.global_size = out.global_size;
      slot.rank_error_bound = out.rank_error_bound;
      slot.degraded = out.degraded;
      slot.found = true;
      const size_t q = quantiles_.size();
      double* values = values_.data() + key * q;
      for (size_t i = 0; i < q; ++i) {
        values[i] = i < out.values.size() ? out.values[i] : 0.0;
      }
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

  // Every answer gets its value buffer now, so no allocation happens while
  // a stripe is locked: a publish waits on this query only while it copies.
  reply.answers.resize(query.keys.size());
  for (net::KeyedAnswer& a : reply.answers) a.values.resize(indices.size());
  const size_t q = quantiles_.size();
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
        a.values.clear();
        continue;
      }
      a.found = true;
      a.window_id = slot.window_id;
      a.global_size = slot.global_size;
      a.degraded = slot.degraded;
      a.rank_error_bound = slot.rank_error_bound;
      const double* values = values_.data() + key * q;
      for (size_t i = 0; i < indices.size(); ++i) a.values[i] = values[indices[i]];
    }
    begin = end;
  }
  return reply;
}

std::optional<sim::WindowOutput> ResultStore::Latest(net::KeyId key) const {
  if (key >= num_keys_) return std::nullopt;
  const size_t q = quantiles_.size();
  sim::WindowOutput out;
  out.values.resize(q);
  const Stripe& stripe = *stripes_[ShardOfKey(key, num_shards_)];
  std::lock_guard<std::mutex> lock(stripe.mu);
  const Slot& slot = slots_[key];
  if (!slot.found) return std::nullopt;
  out.window_id = slot.window_id;
  out.global_size = slot.global_size;
  out.degraded = slot.degraded;
  out.rank_error_bound = slot.rank_error_bound;
  std::copy_n(values_.data() + key * q, q, out.values.begin());
  return out;
}

}  // namespace dema::shard
