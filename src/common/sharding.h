#ifndef ITAG_COMMON_SHARDING_H_
#define ITAG_COMMON_SHARDING_H_

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

namespace itag {

// ---------------------------------------------------------------------------
// Sharded id codec.
//
// Shard-local ids (projects, task handles) are small sequential integers
// starting at 1. The sharded layer hands out *global* ids that encode the
// owning shard in the low bits:
//
//     global = local * num_shards + shard        (shard in [0, num_shards))
//
// so routing is stateless (`global % num_shards`), no cross-shard id table
// is needed, and 0 is never a valid global id (callers use 0 as "unset").
// The codec is only valid for a fixed num_shards — persisting global ids
// across a resharding would need a migration.
// ---------------------------------------------------------------------------

/// Encodes a shard-local id as a global id.
inline uint64_t EncodeShardedId(uint64_t local, size_t shard,
                                size_t num_shards) {
  return local * num_shards + shard;
}

/// The shard that owns a global id.
inline size_t ShardOfId(uint64_t global, size_t num_shards) {
  return static_cast<size_t>(global % num_shards);
}

/// Recovers the shard-local id from a global id.
inline uint64_t LocalId(uint64_t global, size_t num_shards) {
  return global / num_shards;
}

// ---------------------------------------------------------------------------
// Movable placement.
//
// The codec above fixes a project to the shard its id encodes. PlacementMap
// is the versioned overlay that makes placement *movable*: a migrated
// project keeps its original global id, and the map records where its state
// actually lives now — plus enough history to keep two derived mappings
// sound forever:
//
//   * slot history: every (shard, local) slot a migration ever filled maps
//     back to the owning global id, so stale rows left behind on a source
//     shard (e.g. notification entries) still globalize correctly, and a
//     guessed global id that codec-decodes into a migrated slot is rejected
//     instead of aliasing a foreign project. Slots are never reused (local
//     ids are monotonic per shard), so history never invalidates.
//   * handle translation: task handles are renumbered on arrival at the
//     destination shard; clients keep using the handles they were issued,
//     and the map forwards old → current. Chains collapse on re-migration
//     (every stale alias is re-pointed at the newest handle), so lookup is
//     one hop.
//
// The map is a plain data structure with no internal locking; ShardedSystem
// guards it with a shared_mutex and persists it through the storage tier
// (see docs/rebalancing.md for the table formats and the crash protocol).
// ---------------------------------------------------------------------------

class PlacementMap {
 public:
  struct Location {
    size_t shard = 0;
    uint64_t local = 0;
  };

  explicit PlacementMap(size_t num_shards) : num_shards_(num_shards) {}

  size_t num_shards() const { return num_shards_; }

  /// Monotone placement version; bumped once per Move(). Batch routers
  /// capture it before routing and retry NotFound items when it moved.
  uint64_t version() const { return version_; }

  /// Resolves a global project id to its current location. Returns false
  /// when `global` is the codec alias of a slot a migration assigned to a
  /// *different* project (the id was never issued — rejecting it here keeps
  /// "unknown id" errors from reading a foreign project's state).
  bool Resolve(uint64_t global, Location* out) const {
    auto it = overrides_.find(global);
    if (it != overrides_.end()) {
      *out = it->second;
      return true;
    }
    auto slot = slots_.find(global);
    if (slot != slots_.end() && slot->second != global) return false;
    out->shard = ShardOfId(global, num_shards_);
    out->local = LocalId(global, num_shards_);
    return true;
  }

  /// The global id owning slot (shard, local): slot history if a migration
  /// filled it, the codec otherwise (home slots need no entry — a project
  /// that never moved owns its codec slot by construction).
  uint64_t GlobalOf(size_t shard, uint64_t local) const {
    uint64_t key = EncodeShardedId(local, shard, num_shards_);
    auto it = slots_.find(key);
    return it != slots_.end() ? it->second : key;
  }

  /// Current global form of a task handle (identity for never-migrated
  /// handles).
  uint64_t TranslateHandle(uint64_t handle) const {
    auto it = handles_.find(handle);
    return it != handles_.end() ? it->second : handle;
  }

  /// Pre-claims a destination slot for `global` before the move commits, so
  /// globalization of the arriving copy (snapshots) is correct while the
  /// routing override still points at the source. Idempotent; Move() calls
  /// it too.
  void RecordSlot(uint64_t global, Location at) {
    slots_[EncodeShardedId(at.local, at.shard, num_shards_)] = global;
  }

  /// Commits a move: routing override, slot history, version bump.
  void Move(uint64_t global, Location to) {
    RecordSlot(global, to);
    overrides_[global] = to;
    ++version_;
  }

  /// Records a handle renumbering and re-points every alias of
  /// `old_handle` at `new_handle`, keeping translation one hop deep.
  /// Returns every key now mapping to `new_handle` (the re-pointed aliases
  /// plus `old_handle` itself) so the caller can persist the changed rows.
  std::vector<uint64_t> MapHandle(uint64_t old_handle, uint64_t new_handle) {
    std::vector<uint64_t> changed;
    for (auto& [from, to] : handles_) {
      if (to == old_handle) {
        to = new_handle;
        changed.push_back(from);
      }
    }
    handles_[old_handle] = new_handle;
    changed.push_back(old_handle);
    return changed;
  }

  /// Restore entry points (recovery replays persisted state verbatim).
  void RestoreOverride(uint64_t global, Location at, uint64_t version) {
    overrides_[global] = at;
    if (version > version_) version_ = version;
  }
  void RestoreSlot(uint64_t slot_key, uint64_t global) {
    slots_[slot_key] = global;
  }
  void RestoreHandle(uint64_t old_handle, uint64_t new_handle) {
    handles_[old_handle] = new_handle;
  }

  const std::unordered_map<uint64_t, Location>& overrides() const {
    return overrides_;
  }
  const std::unordered_map<uint64_t, uint64_t>& handles() const {
    return handles_;
  }

 private:
  size_t num_shards_;
  uint64_t version_ = 0;
  std::unordered_map<uint64_t, Location> overrides_;  ///< global → location
  std::unordered_map<uint64_t, uint64_t> slots_;  ///< slot codec-key → owner
  std::unordered_map<uint64_t, uint64_t> handles_;  ///< old → current handle
};

}  // namespace itag

#endif  // ITAG_COMMON_SHARDING_H_
