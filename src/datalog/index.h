// Persistent, incrementally-maintained join indexes for the Datalog engine.
//
// A JoinIndex groups a relation's rows by a key projection (fixed column
// positions) and maps each distinct key to the list of row indices carrying
// it. Keys are never materialized: the index hashes the key columns of the
// (column-major) relation directly and stores, per group, one representative
// row index — key equality checks read the relation's column storage. This
// is the columnar payoff: building or probing an index touches only the key
// columns, regardless of the relation's arity.
//
// Because Relations are append-only, an index is extended by scanning only
// the row-index suffix added since the last Refresh — it is never rebuilt.
// The engine keeps one index per (relation instance, key positions):
//
//   * EDB indexes live in the engine and survive across Eval calls, so the
//     synthesizer's thousands of candidate evaluations against the same
//     example instance pay the index build exactly once.
//   * IDB indexes live for one Eval and are extended as the fixpoint derives
//     new rows; semi-naive deltas are *views* — suffix ranges [lo, hi) of
//     the row space — not separate materialized relations.
//
// Per-key posting lists are sorted ascending by construction (rows are
// indexed in insertion order), which is what makes range-restricted lookups
// (the delta views) a lower_bound away.
//
// A group's postings are its representative row until a second row
// arrives: a key carried by one row (the usual case on an EDB relation's
// unique-id columns) allocates nothing beyond its group. Only a second
// row gives the group an array, starting with a copy of the representative;
// the array doubles whenever it is full. These arrays live in one monotonic
// arena per index: a growth step is a bump allocation rather than a heap
// block of its own, and dropping an index frees a handful of arena blocks
// rather than one block per distinct key. The arrays a group outgrows stay
// in the arena until the index dies (at most about as much again as the
// postings' final size).
//
// Thread-safety contract: Refresh and IndexCache::Get mutate and require
// exclusive access; Lookup is const and safe to call concurrently from any
// number of threads provided no Refresh (and no append to the underlying
// relation) runs at the same time. SharedIndexCache (below) relies on this
// to let the synthesis portfolio's worker engines probe one frozen EDB.

#ifndef DYNAMITE_DATALOG_INDEX_H_
#define DYNAMITE_DATALOG_INDEX_H_

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <memory>
#include <memory_resource>
#include <unordered_map>
#include <vector>

#include "util/failpoint.h"
#include "util/hash.h"
#include "util/mem_budget.h"
#include "util/thread_annotations.h"
#include "value/relation.h"

namespace dynamite {

/// A read-only view of one key group's postings: its row indexes,
/// ascending. Empty when the key is absent. Valid until the next Refresh of
/// the index that returned it.
class PostingList {
 public:
  PostingList() = default;
  PostingList(const uint32_t* rows, size_t count) : rows_(rows), count_(count) {}

  const uint32_t* begin() const { return rows_; }
  const uint32_t* end() const { return rows_ + count_; }
  size_t size() const { return count_; }
  bool empty() const { return count_ == 0; }

  friend bool operator==(const PostingList& a, const PostingList& b) {
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
  }

 private:
  const uint32_t* rows_ = nullptr;
  size_t count_ = 0;
};

/// Hash index of one relation on a fixed set of key positions, extended
/// incrementally as the relation grows.
class JoinIndex {
 public:
  explicit JoinIndex(std::vector<size_t> key_positions)
      : key_positions_(std::move(key_positions)) {}

  /// Indexes rows [indexed_upto, rel.size()); no-op when up to date.
  /// `rel` must be the same logical relation on every call.
  void Refresh(const Relation& rel) {
    size_t n = rel.size();
    size_t start = indexed_upto_;
    if (n > start) {
      // Posting-list growth: one uint32_t per newly indexed row (group
      // structs are charged as they appear below, the group table as it
      // grows in Regrow). Refresh has no Status channel; exhaustion is
      // observed at the engine's next poll.
      MemoryBudget::ChargeCurrent((n - start) * sizeof(uint32_t));
      DYNAMITE_FAILPOINT_THROW("engine.index.refresh");
    }
    // A first build sizes the group table for every row it indexes (at
    // most one group per row), so it never regrows from 16 slots; later
    // suffix extensions grow it by doubling.
    if (start == 0 && n > 0 && group_slots_.empty()) Regrow(SlotsForEntries(n));
    for (size_t i = start; i < n; ++i) {
      if (groups_.size() * 4 + 4 > group_slots_.size() * 3) {
        Regrow(group_slots_.empty() ? 16 : group_slots_.size() * 2);
      }
      size_t h = HashRowKey(rel, i);
      size_t mask = group_slots_.size() - 1;
      size_t s = h & mask;
      while (group_slots_[s] != kEmptySlot) {
        Group& g = groups_[group_slots_[s]];
        if (g.hash == h && KeysEqual(rel, g.head_row, i)) break;
        s = (s + 1) & mask;
      }
      if (group_slots_[s] == kEmptySlot) {
        group_slots_[s] = static_cast<uint32_t>(groups_.size());
        MemoryBudget::ChargeCurrent(sizeof(Group));
        groups_.push_back(Group{h, static_cast<uint32_t>(i), 1, nullptr});
      } else {
        AddRow(groups_[group_slots_[s]], static_cast<uint32_t>(i));
      }
    }
    indexed_upto_ = n;
  }

  /// Row indices whose key columns equal `key[0..count)`, sorted ascending;
  /// empty if none. `rel` must be the relation this index was built over
  /// (key verification reads its columns). The view is valid until the
  /// next Refresh.
  PostingList Lookup(const Relation& rel, const Value* key, size_t count) const {
    if (group_slots_.empty()) return {};
    size_t seed = HashValueRange(key, count);
    size_t mask = group_slots_.size() - 1;
    size_t s = seed & mask;
    while (group_slots_[s] != kEmptySlot) {
      const Group& g = groups_[group_slots_[s]];
      if (g.hash == seed && KeysEqualValues(rel, g.head_row, key)) {
        return g.count == 1 ? PostingList(&g.head_row, 1) : PostingList(g.rows, g.count);
      }
      s = (s + 1) & mask;
    }
    return {};
  }

  size_t indexed_upto() const { return indexed_upto_; }

 private:
  static constexpr uint32_t kEmptySlot = UINT32_MAX;

  /// One distinct key: its hash, a representative row (the key cells live in
  /// the relation's columns — no copy) and its postings. With one row the
  /// postings are head_row alone and `rows` is null; from the second row on
  /// they are rows[0, count), an arena array whose capacity is the smallest
  /// power of two at or above `count`.
  struct Group {
    size_t hash;
    uint32_t head_row;
    uint32_t count;
    uint32_t* rows;
  };
  static_assert(sizeof(Group) <= 32, "a group stays small: most keys have one row");

  /// Appends `row` to `g`'s postings, growing its array (a fresh arena array
  /// of twice the size, the old rows copied in) when it is full.
  void AddRow(Group& g, uint32_t row) {
    if ((g.count & (g.count - 1)) == 0) {  // full: count is 1 or a power of two
      const uint32_t* old = g.count == 1 ? &g.head_row : g.rows;
      auto* grown = static_cast<uint32_t*>(
          postings_arena_.allocate(2 * size_t{g.count} * sizeof(uint32_t), alignof(uint32_t)));
      std::copy(old, old + g.count, grown);
      g.rows = grown;
    }
    g.rows[g.count++] = row;
  }

  size_t HashRowKey(const Relation& rel, size_t row) const {
    ValueRowHasher h(key_positions_.size());
    for (size_t p : key_positions_) h.Add(rel.cell(row, p));
    return h.Finish();
  }

  bool KeysEqual(const Relation& rel, size_t row_a, size_t row_b) const {
    for (size_t p : key_positions_) {
      if (rel.cell(row_a, p) != rel.cell(row_b, p)) return false;
    }
    return true;
  }

  bool KeysEqualValues(const Relation& rel, size_t row, const Value* key) const {
    for (size_t i = 0; i < key_positions_.size(); ++i) {
      if (rel.cell(row, key_positions_[i]) != key[i]) return false;
    }
    return true;
  }

  /// Resizes the group table to `new_slot_count` slots, charging the growth
  /// to the current MemoryBudget before allocating it, and reinserts every
  /// group.
  void Regrow(size_t new_slot_count) {
    if (new_slot_count > group_slots_.size()) {
      MemoryBudget::ChargeCurrent((new_slot_count - group_slots_.size()) * sizeof(uint32_t));
    }
    group_slots_.assign(new_slot_count, kEmptySlot);
    size_t mask = new_slot_count - 1;
    for (size_t gi = 0; gi < groups_.size(); ++gi) {
      size_t s = groups_[gi].hash & mask;
      while (group_slots_[s] != kEmptySlot) s = (s + 1) & mask;
      group_slots_[s] = static_cast<uint32_t>(gi);
    }
  }

  std::vector<size_t> key_positions_;
  size_t indexed_upto_ = 0;
  /// Backs every posting array (see the file comment).
  std::pmr::monotonic_buffer_resource postings_arena_;
  std::vector<Group> groups_;
  /// Open-addressing (linear probing) table of indices into groups_.
  std::vector<uint32_t> group_slots_;
};

/// Cache of JoinIndexes keyed by (relation uid, key positions). Get()
/// refreshes the index to cover the relation's current size, so callers
/// always see a complete index up to their snapshot point.
class IndexCache {
 public:
  /// The index for (rel, key_positions), created on first use and refreshed
  /// to rel.size(). The returned pointer is stable until Clear(); Get never
  /// evicts (callers hold raw pointers across a join plan — see
  /// MaybeEvict).
  JoinIndex* Get(const Relation& rel, const std::vector<size_t>& key_positions) {
    Key key{rel.uid(), key_positions};
    auto it = entries_.find(key);
    if (it == entries_.end()) {
      it = entries_.emplace(std::move(key), std::make_unique<JoinIndex>(key_positions)).first;
    }
    it->second->Refresh(rel);
    return it->second.get();
  }

  /// The index for (rel, key_positions) iff it exists AND already covers
  /// every row of `rel`; nullptr otherwise (missing, or in need of a
  /// Refresh). Const: this is SharedIndexCache's reader-path probe, safe
  /// under a shared lock concurrently with other readers.
  const JoinIndex* FindReady(const Relation& rel,
                             const std::vector<size_t>& key_positions) const {
    auto it = entries_.find(Key{rel.uid(), key_positions});
    if (it == entries_.end()) return nullptr;
    return it->second->indexed_upto() == rel.size() ? it->second.get() : nullptr;
  }

  /// Bounds memory across long synthesizer sessions: a stale uid (destroyed
  /// relation) can never be queried again, so wholesale clearing is safe —
  /// but only between evaluations, when no JoinIndex pointers are live.
  /// The engine calls this at Eval entry, never mid-plan.
  void MaybeEvict() {
    if (entries_.size() > kMaxEntries) Clear();
  }

  void Clear() { entries_.clear(); }

  /// Drops every index over the relation with `uid`. Like Clear, only
  /// between evaluations.
  void Erase(uint64_t uid) {
    for (auto it = entries_.begin(); it != entries_.end();) {
      it = it->first.uid == uid ? entries_.erase(it) : std::next(it);
    }
  }

  size_t size() const { return entries_.size(); }

 private:
  static constexpr size_t kMaxEntries = 1024;

  struct Key {
    uint64_t uid;
    std::vector<size_t> positions;
    bool operator==(const Key& o) const {
      return uid == o.uid && positions == o.positions;
    }
  };
  struct KeyHash {
    size_t operator()(const Key& k) const {
      size_t seed = k.uid;
      for (size_t p : k.positions) HashCombine(&seed, p);
      return seed;
    }
  };

  std::unordered_map<Key, std::unique_ptr<JoinIndex>, KeyHash> entries_;
};

/// Thread-safe IndexCache wrapper for *frozen* EDB relations shared across
/// several engines — the synthesis portfolio's worker engines all evaluate
/// candidates against the same example instance, so the indexes over it are
/// built once here instead of once per engine (ISSUE 7).
///
/// Freeze contract: every relation resolved through this cache must not be
/// appended to while any sharing engine may call Get. Get serializes
/// create/Refresh under the writer half of a reader/writer lock (concurrent
/// getters of a not-yet-built index block until it is complete); getters of
/// an already-built index take only the shared half. The returned
/// JoinIndex* supports concurrent Lookup from any thread afterwards,
/// because a frozen relation means Refresh is a no-op for the cache's
/// remaining lifetime — which is also what makes the read-only contract
/// annotatable: the cache is DYNAMITE_GUARDED_BY the lock, and everything
/// handed out past it is const.
///
/// Unlike IndexCache there is no eviction: sharing engines hold the
/// returned pointers across whole plan evaluations with no quiescent point
/// visible here. The owner (one synthesis call) bounds the lifetime
/// instead — the cache holds indexes over exactly one example's EDB and is
/// dropped with the portfolio runtime.
class SharedIndexCache {
 public:
  /// Thread-safe IndexCache::Get over a frozen relation. Steady state — the
  /// index is already built and covers the (frozen) relation — is a shared
  /// lock plus one const map probe, so concurrent portfolio workers never
  /// serialize against each other once warm; only the first getter of each
  /// index takes the exclusive lock to build it.
  const JoinIndex* Get(const Relation& rel,
                       const std::vector<size_t>& key_positions) {
    {
      SharedMutexLock read_lock(mu_);
      if (const JoinIndex* ready = cache_.FindReady(rel, key_positions)) {
        return ready;
      }
    }
    // Not built yet: build under the writer lock. Re-entering Get (rather
    // than probing again) is correct because IndexCache::Get is idempotent;
    // concurrent getters of the same index serialize here and all but the
    // first see Refresh no-op.
    SharedMutexExclusiveLock write_lock(mu_);
    return cache_.Get(rel, key_positions);
  }

  size_t size() const {
    SharedMutexLock lock(mu_);
    return cache_.size();
  }

 private:
  mutable SharedMutex mu_;
  IndexCache cache_ DYNAMITE_GUARDED_BY(mu_);
};

}  // namespace dynamite

#endif  // DYNAMITE_DATALOG_INDEX_H_
