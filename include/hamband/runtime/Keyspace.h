//===- hamband/runtime/Keyspace.h - Consistent-hash keyspace ----*- C++ -*-==//
//
// Part of the Hamband reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The placement layer of the sharded keyspace: string object ids are
/// consistent-hashed onto shards via a chord-style ring of virtual nodes
/// (each shard owns VirtualNodes points on a 64-bit ring; an id belongs
/// to the shard of its successor point). Placement is a pure function of
/// (id, KeyspaceConfig), so every replica computes the same shard for the
/// same id with no coordination, and adding ids never moves existing ones
/// while the shard count is fixed.
///
/// The keyspace also interns ids to dense int64 keys: the runtime ships
/// calls whose arguments are int64 vectors (WireFormat), so an object id
/// rides in a call as its interned key, assigned in registration order.
///
//===----------------------------------------------------------------------===//

#ifndef HAMBAND_RUNTIME_KEYSPACE_H
#define HAMBAND_RUNTIME_KEYSPACE_H

#include "hamband/core/Call.h"

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

namespace hamband {
namespace runtime {

/// Configuration of the placement ring. All replicas of a deployment must
/// agree on every field.
struct KeyspaceConfig {
  unsigned NumShards = 1;
  /// Ring points per shard; more points tighten the max/mean load bound
  /// at O(total points * log) construction cost.
  unsigned VirtualNodes = 64;
  /// Folded into every placement hash, so two deployments can place the
  /// same ids differently.
  std::uint64_t HashSeed = 0;
};

/// Consistent-hash placement plus id interning for one deployment.
class Keyspace {
public:
  explicit Keyspace(KeyspaceConfig Cfg = KeyspaceConfig());

  const KeyspaceConfig &config() const { return Cfg; }
  unsigned numShards() const { return Cfg.NumShards; }

  /// Deterministic 64-bit point hash of an id (FNV-1a folded through a
  /// splitmix64 finalizer).
  static std::uint64_t hashId(std::string_view Id, std::uint64_t Seed);

  /// The shard owning \p Id: successor virtual node on the ring,
  /// independent of what else is registered.
  unsigned shardOf(std::string_view Id) const;

  // -- Interning ----------------------------------------------------------

  /// Registers \p Id and returns its dense key (idempotent; keys are
  /// assigned in first-registration order starting at 0).
  Value registerObject(const std::string &Id);

  /// The key of \p Id, or nullopt when never registered.
  std::optional<Value> keyOf(const std::string &Id) const;

  /// The id interned as \p Key; asserts on an unknown key.
  const std::string &idOf(Value Key) const;

  /// True when \p Key names a registered object.
  bool knownKey(Value Key) const {
    return Key >= 0 && static_cast<std::size_t>(Key) < Ids.size();
  }

  /// The shard of registered key \p Key (cached at registration).
  unsigned shardOfKey(Value Key) const;

  std::size_t numObjects() const { return Ids.size(); }

  // -- Diagnostics --------------------------------------------------------

  /// Registered objects per shard.
  std::vector<std::size_t> shardLoads() const;

  /// Max/mean registered load across shards (1.0 = perfectly balanced;
  /// defined as 1.0 when nothing is registered).
  double imbalance() const;

private:
  KeyspaceConfig Cfg;
  /// Sorted (ring point, shard) pairs.
  std::vector<std::pair<std::uint64_t, std::uint32_t>> Ring;
  std::vector<std::string> Ids;         // [key] -> id
  std::vector<std::uint32_t> KeyShard;  // [key] -> shard
  std::unordered_map<std::string, Value> Index;
};

} // namespace runtime
} // namespace hamband

#endif // HAMBAND_RUNTIME_KEYSPACE_H
