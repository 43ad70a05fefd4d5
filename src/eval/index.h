// SetIndexCache: lazily-built equality indexes over relation sets, used by
// the matcher to accelerate `(… .attr=value …)` probes.
//
// The cache is keyed by set identity (address), so it is only valid while
// the universe is immutable. Two lifetimes exist:
//
//  * per-evaluation (the original design): created by EvaluateQuery /
//    EnumerateBindings, discarded afterwards;
//  * persistent (the view engine): one cache per materialization survives
//    across rules and fixpoint passes of a materialization, keyed by a
//    *universe generation* counter that the engine bumps whenever MakeTrue
//    changes the universe. EnsureGeneration drops every entry on a
//    generation change — addresses may dangle after mutation, so
//    invalidation is whole-cache, never per-entry. While the universe is
//    unchanged (e.g. a pass that derived nothing, or many rules reading the
//    same relations within one pass), indexes are reused instead of rebuilt.
//
// An index over one (set, attribute) pair is built on first probe, and only
// for sets at least `min_set_size` elements large (scanning smaller sets is
// cheaper than indexing them).

#ifndef IDL_EVAL_INDEX_H_
#define IDL_EVAL_INDEX_H_

#include <cstdint>
#include <memory>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/interner.h"
#include "object/value.h"

namespace idl {

class ColumnarRelation;
class ColumnarStore;

class SetIndexCache {
 public:
  explicit SetIndexCache(size_t min_set_size = 32)
      : min_set_size_(min_set_size) {}

  SetIndexCache(const SetIndexCache&) = delete;
  SetIndexCache& operator=(const SetIndexCache&) = delete;

  // Declares the universe generation the next probes will run against. If it
  // differs from the generation the cache was filled under, every entry is
  // dropped (set addresses are not stable across mutations).
  void EnsureGeneration(uint64_t generation) {
    if (generation != generation_) {
      cache_.clear();
      columnar_.clear();
      generation_ = generation;
    }
  }
  uint64_t generation() const { return generation_; }

  // Candidate element positions of `set` whose `attr` equals `value`
  // (verified by hash only — the caller re-checks each candidate), in
  // ascending element order so the indexed path visits candidates in the
  // same order a scan would. Returns false if the set is below the indexing
  // threshold (caller should scan).
  bool Probe(const Value& set, std::string_view attr, const Value& value,
             std::vector<uint32_t>* candidates);

  // The columnar page for `set`: `store`'s pre-built page if it has one
  // (server epochs), else built on first request and memoized for the
  // generation. Returns nullptr when the set is not flat (memoized too, so
  // flatness is detected once per set per generation).
  std::shared_ptr<const ColumnarRelation> Columnar(const Value& set,
                                                   const ColumnarStore* store);

  uint64_t indexes_built() const { return indexes_built_; }
  // Probes answered by an index built on an earlier probe (possibly by an
  // earlier rule or fixpoint pass of the same generation).
  uint64_t indexes_reused() const { return indexes_reused_; }

 private:
  struct AttrIndex {
    // attribute value hash -> element positions.
    std::unordered_multimap<uint64_t, uint32_t> by_hash;
  };
  using SetKey = const void*;

  // All entries for one set, stamped with the cardinality they were built
  // from. Address-keyed caching assumes generation bumps cover every
  // mutation; the stamp is the defensive backstop — if a set shrank or grew
  // in place (delete-and-rederive reusing an address) without a bump, the
  // mismatch forces a rebuild instead of serving stale candidate positions.
  struct PerSetEntry {
    size_t built_size = 0;
    std::unordered_map<StringInterner::Id, AttrIndex> by_attr;
  };
  struct PageEntry {
    size_t built_size = 0;
    // nullptr = known non-flat at built_size elements.
    std::shared_ptr<const ColumnarRelation> page;
  };

  size_t min_set_size_;
  // Attribute names interned once per cache lifetime: probes on the hot
  // path then key by a 32-bit id instead of hashing the attribute string
  // per probe. Survives EnsureGeneration clears — the same few relation
  // attribute names recur across every generation.
  StringInterner attr_ids_;
  // set address -> that set's equality indexes.
  std::unordered_map<SetKey, PerSetEntry> cache_;
  // set address -> columnar page. Same lifetime discipline as cache_:
  // whole-map invalidation on generation change, size-stamp backstop.
  std::unordered_map<SetKey, PageEntry> columnar_;
  uint64_t generation_ = 0;
  uint64_t indexes_built_ = 0;
  uint64_t indexes_reused_ = 0;
};

}  // namespace idl

#endif  // IDL_EVAL_INDEX_H_
