#ifndef ECRINT_SERVICE_RESPONSE_CACHE_H_
#define ECRINT_SERVICE_RESPONSE_CACHE_H_

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "service/metrics.h"
#include "service/service.h"
#include "service/snapshot.h"

namespace ecrint::service {

// A cache of pre-serialized read-verb responses (rank / suggest / outline /
// translate), keyed by the project and the request (verb + args) and
// validated against the snapshot the reply would be computed from. Entries
// remember which snapshot PARTS their verb read — as weak_ptrs to the part
// objects — and a lookup hits only when the candidate snapshot still
// carries those exact objects. Copy-on-write publication makes this both
// precise and safe:
//
//  - a republish that did not touch the verb's parts (e.g. an assert run
//    that deduplicated to nothing) reuses the part pointers, so the cache
//    stays warm across publishes that cannot change the answer;
//  - a write that did touch a part allocates a fresh object, so every
//    dependent entry mismatches and is evicted on its next lookup;
//  - the comparison is ABA-safe: weak_ptr::lock can only resurrect the
//    original object, never a new allocation at a recycled address;
//  - keys include the project, so two projects with equal schema names
//    each keep their own entry instead of evicting each other on every
//    lookup (they could never serve each other: their snapshots never
//    share part objects).
//
// The serialized wire bytes are built per protocol version on first use
// (text framing and binary framing differ), so a hit costs one string copy
// and zero formatting work.
class ResponseCache {
 public:
  // Bound on resident entries; insertion past the cap evicts the least
  // recently used entry, so a scan of one-off requests (a crawler walking
  // distinct rank queries, say) cannot flush the hot working set the way a
  // clear-on-overflow policy would.
  static constexpr size_t kMaxEntries = 256;

  // Builds the canonical key for a request against `project`. The project
  // and each arg are length-prefixed so distinct requests never collide.
  static std::string Key(std::string_view project, std::string_view verb,
                         const std::vector<std::string>& args);

  struct Hit {
    ServiceResponse response;
    std::string wire;  // complete frame for the requested protocol version
  };

  // Returns the cached reply iff the entry's recorded parts are exactly
  // the parts of `snapshot`. A present-but-stale entry is erased.
  // `protocol_version` selects the wire framing (kProtocolTextVersion or
  // kProtocolBinaryVersion).
  std::optional<Hit> Lookup(const std::string& key,
                            const EngineSnapshot& snapshot,
                            int protocol_version);

  // Lookup variant for batch items: same validation, but returns only the
  // response body. Batch replies are framed per item by the batch encoder,
  // so building a standalone wire frame here would be wasted work.
  std::optional<ServiceResponse> LookupResponse(const std::string& key,
                                                const EngineSnapshot& snapshot);

  // Records a response computed from `snapshot`. Callers should only
  // insert ok() responses: keys omit the session, so session-specific
  // errors (and transient OVERLOADED/TIMEOUT failures) must never be
  // cached or they could be replayed to an unrelated caller.
  void Insert(const std::string& key, const EngineSnapshot& snapshot,
              const ServiceResponse& response);

  // Entry count (test hook).
  size_t size() const;

  // Counts capacity evictions (stale-entry erasure is not an eviction).
  // Null disables counting; the router wires "cache.evictions" here.
  void SetEvictionCounter(Counter* evictions);

 private:
  struct Entry {
    std::weak_ptr<const ecr::Catalog> catalog;
    std::weak_ptr<const core::EquivalenceMap> equivalence;
    std::weak_ptr<const core::IntegrationResult> integration;
    // Distinguishes "part was null" from "weak_ptr expired".
    bool had_equivalence = false;
    bool had_integration = false;
    ServiceResponse response;
    std::string wire_text;    // built on first text lookup
    std::string wire_binary;  // built on first binary lookup
    // Position in lru_ (most recent at the front).
    std::list<std::string>::iterator lru_position;
  };

  bool Valid(const Entry& entry, const EngineSnapshot& snapshot) const;
  // Moves the entry to the front of the recency list. Callers hold mutex_.
  void Touch(Entry& entry);

  mutable std::mutex mutex_;
  std::unordered_map<std::string, Entry> entries_;
  // Keys ordered by recency of use; back() is the eviction victim.
  std::list<std::string> lru_;
  Counter* evictions_ = nullptr;
};

}  // namespace ecrint::service

#endif  // ECRINT_SERVICE_RESPONSE_CACHE_H_
