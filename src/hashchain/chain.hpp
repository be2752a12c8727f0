// One-way hash chains with ALPHA's role binding.
//
// A chain is built from a random seed h_0 by iterated hashing up to the
// anchor h_n (paper §2.1). Elements are consumed in reverse order of
// creation: the anchor is published during bootstrapping, then h_{n-1},
// h_{n-2}, ... are disclosed to authenticate packets.
//
// ALPHA binds each element to its protocol purpose (§3.2.1) to defeat the
// reformatting attack: h_i = H("S1" | h_{i-1}) for odd i and
// h_i = H("S2" | h_{i-1}) for even i, so an element that authenticates an S1
// packet can never be replayed as an S2 MAC-key disclosure or vice versa.
// The plain (untagged) construction is also provided for baseline protocols
// (e.g. the TESLA-like comparison scheme).
//
// The signer-side HashChain holds O(sqrt(n)) digests instead of n+1 (sqrt(n)
// pebbles plus a segment cache; see the class comment and DESIGN.md §5),
// and ChainWalker is the disclosure cursor over it.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "crypto/bytes.hpp"
#include "crypto/digest.hpp"
#include "crypto/hash.hpp"
#include "crypto/random.hpp"

namespace alpha::hashchain {

using crypto::ByteView;
using crypto::Digest;
using crypto::HashAlgo;

enum class ChainTagging : std::uint8_t {
  kRoleBound = 1,  // ALPHA's S1/S2 domain separation (§3.2.1)
  kPlain = 2,      // h_i = H(h_{i-1}); for baselines
};

/// Domain-separation tag for the step that *produces* element i (i >= 1):
/// "S1" for odd i, "S2" for even i; empty for plain chains.
ByteView step_tag(ChainTagging tagging, std::size_t i) noexcept;

/// One chain step: element i from element i-1.
Digest chain_step(HashAlgo algo, ChainTagging tagging, const Digest& prev,
                  std::size_t i);

/// Iterates chain_step from index `from_index` (holding `from`) up to
/// `to_index`. Requires to_index >= from_index.
Digest chain_advance(HashAlgo algo, ChainTagging tagging, const Digest& from,
                     std::size_t from_index, std::size_t to_index);

/// In ALPHA, odd-index elements authenticate S1 packets and even-index
/// elements key MACs / authenticate S2 packets (§3.2.1).
inline bool is_s1_index(std::size_t i) noexcept { return i % 2 == 1; }
inline bool is_s2_index(std::size_t i) noexcept { return i % 2 == 0 && i > 0; }

/// Signer-side hash chain (owns the seed).
///
/// Resident state is the pebbles h_0, h_k, h_2k, ... (k = round(sqrt(n)))
/// plus the anchor h_n, and a two-slot cache of k-aligned segments
/// [lo, lo+k), which construction fills with the two segments holding
/// h_{n-1} and the k elements below it. A miss refills one slot with at
/// most k-1 hashes from the pebble h_lo, evicting the higher of the two
/// cached segments: a reader descending the chain is done with it. Two
/// slots keep a second reader just above the first from thrashing: the
/// signer peeking h_{i-1} across a segment boundary, or TESLA's key e-d
/// trailing key e. Both access patterns pay about one hash per element.
class HashChain {
 public:
  /// Builds a chain of `length` steps (elements h_0 .. h_length) from `seed`.
  /// `length` must be even and >= 2 for role-bound chains so the first
  /// disclosed element h_{length-1} carries the S1 tag.
  HashChain(HashAlgo algo, ChainTagging tagging, ByteView seed,
            std::size_t length);

  /// Convenience: fresh random seed of digest size.
  static HashChain generate(HashAlgo algo, ChainTagging tagging,
                            crypto::RandomSource& rng, std::size_t length);

  /// Element h_i, 0 <= i <= length(). A cached element costs no hashing, an
  /// uncached one at most k-1. The segment cache makes element()
  /// non-reentrant: do not call concurrently on one chain.
  Digest element(std::size_t i) const;
  /// h_n, stored: never hashes.
  Digest anchor() const { return pebbles_.back(); }

  std::size_t length() const noexcept { return length_; }
  HashAlgo algo() const noexcept { return algo_; }
  ChainTagging tagging() const noexcept { return tagging_; }

  /// Resident bytes for stored elements, pebbles plus both cache segments
  /// (Table 2/3 accounting, ablation).
  std::size_t memory_bytes() const noexcept;

 private:
  HashAlgo algo_;
  ChainTagging tagging_;
  std::size_t length_;
  std::size_t spacing_;          // k = round(sqrt(length)), >= 1
  std::vector<Digest> pebbles_;  // h_0, h_k, ..., then h_n when n % k != 0
  // Two segment slots back to back, slot s holding [seg_lo_[s],
  // seg_lo_[s] + k) at cache_[s*k, (s+1)*k).
  mutable std::vector<Digest> cache_;
  mutable std::size_t seg_lo_[2] = {};
};

/// Disclosure cursor over a signer's chain: hands out elements from
/// h_{length-1} downward and never re-discloses an element. Reads go
/// through HashChain::element, whose segment cache makes the sweep cheap.
class ChainWalker {
 public:
  explicit ChainWalker(const HashChain& chain) noexcept
      : chain_(&chain), next_(chain.length() - 1) {}

  /// Index that the next take() will disclose.
  std::size_t next_index() const noexcept { return next_; }

  /// Elements still available for disclosure (excludes the seed h_0).
  std::size_t remaining() const noexcept { return next_; }

  bool exhausted() const noexcept { return next_ == 0; }

  /// Looks at element (next_index - offset) without consuming.
  /// Throws std::out_of_range if the chain is too short.
  Digest peek(std::size_t offset = 0) const;

  /// Discloses the next element and advances by `steps` (default 1).
  /// Throws std::out_of_range when exhausted.
  Digest take(std::size_t steps = 1);

 private:
  const HashChain* chain_;
  std::size_t next_;
};

/// Verifier-side chain state: remembers the last authenticated element and
/// accepts only elements that hash forward onto it within `max_gap` steps
/// (gap > 1 accommodates packet loss).
class ChainVerifier {
 public:
  ChainVerifier(HashAlgo algo, ChainTagging tagging, Digest anchor,
                std::size_t anchor_index, std::size_t max_gap = 64) noexcept
      : algo_(algo),
        tagging_(tagging),
        last_(std::move(anchor)),
        last_index_(anchor_index),
        max_gap_(max_gap) {}

  /// Accepts `element` as h_index iff hashing it forward reaches the last
  /// authenticated element. On success the verifier state advances.
  bool accept(const Digest& element, std::size_t index);

  /// Verifies `element` as h_index like accept(), but also handles indices
  /// at or above the last accepted one *without* advancing state: such
  /// elements are derivable from the authenticated state by hashing
  /// forward, so out-of-order arrivals (e.g. a round's S2 overtaken by the
  /// next round's S1 on a jittery link) still verify. Use for disclosures
  /// (S2/A2), never for freshness-bearing announcements (S1/A1).
  bool accept_or_derive(const Digest& element, std::size_t index);

  /// Accepts `element` at whatever index within max_gap steps below the last
  /// authenticated element matches; returns that index, or nullopt.
  std::optional<std::size_t> accept_auto(const Digest& element);

  const Digest& last_element() const noexcept { return last_; }
  std::size_t last_index() const noexcept { return last_index_; }
  std::size_t max_gap() const noexcept { return max_gap_; }

 private:
  HashAlgo algo_;
  ChainTagging tagging_;
  Digest last_;
  std::size_t last_index_;
  std::size_t max_gap_;
};

}  // namespace alpha::hashchain
