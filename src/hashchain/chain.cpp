#include "hashchain/chain.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>

#include "crypto/counter.hpp"
#include "crypto/sha1.hpp"
#include "crypto/sha256.hpp"
#include "trace/prof.hpp"

namespace alpha::hashchain {

namespace {

constexpr std::string_view kS1Tag = "S1";
constexpr std::string_view kS2Tag = "S2";

std::size_t sqrt_spacing(std::size_t length) {
  auto k = static_cast<std::size_t>(
      std::lround(std::sqrt(static_cast<double>(length))));
  return k == 0 ? 1 : k;
}

inline void store_be32(std::uint8_t* p, std::uint32_t v) noexcept {
  p[0] = static_cast<std::uint8_t>(v >> 24);
  p[1] = static_cast<std::uint8_t>(v >> 16);
  p[2] = static_cast<std::uint8_t>(v >> 8);
  p[3] = static_cast<std::uint8_t>(v);
}

// SHA-1/SHA-256 steps from `from` (digest-sized, holding h_{i-1}) through
// h_to. The step input tag | h_{i-1} is fixed-size, so one Merkle-Damgard
// block is padded once; each step rewrites only the tag bytes, compresses
// from the initial state and stores the state big-endian over the digest
// bytes, where the next step reads it. Accounting matches crypto::hash2:
// one update of the input bytes and one finalization per step.
template <typename H, typename Keep>
Digest walk_block(ChainTagging tagging, ByteView from, std::size_t i,
                  std::size_t to, Keep& keep) {
  static_assert(H::kBlockSize == 64);
  const std::size_t tag_len = step_tag(tagging, i).size();
  const std::size_t n = tag_len + H::kDigestSize;
  std::uint8_t block[H::kBlockSize] = {};
  std::uint8_t* const value = block + tag_len;
  std::memcpy(value, from.data(), H::kDigestSize);
  block[n] = 0x80;
  const std::uint64_t bit_len = static_cast<std::uint64_t>(n) * 8;
  for (int b = 0; b < 8; ++b) {
    block[56 + b] = static_cast<std::uint8_t>(bit_len >> (56 - 8 * b));
  }
  for (; i <= to; ++i) {
    {
      // Uninstalled, the stage hook costs one thread-local pointer check;
      // installed, one in sample_every steps reads the perf counter group
      // (see trace/prof.hpp).
      trace::ScopedStage prof_stage(trace::Stage::kChainStep);
      if (tag_len != 0) {
        std::memcpy(block, step_tag(tagging, i).data(), tag_len);
      }
      typename H::State st = H::kInitState;
      H::compress(st, block);
      crypto::HashOpCounter::record_update(n);
      crypto::HashOpCounter::record_finalize();
      for (std::size_t w = 0; w < st.size(); ++w) {
        store_be32(value + 4 * w, st[w]);
      }
    }
    keep(i, ByteView{value, H::kDigestSize});
  }
  return Digest{ByteView{value, H::kDigestSize}};
}

// The one stepping kernel: walks from h_from (`from`) up to h_to, hands
// each new element to keep(i, value) -- the view dies with the step, so
// keep copies what it stores -- and returns h_to. Steps the one-block
// kernel cannot take (every AES-MMO-128 step, and a first step from a seed
// that is not digest-sized) go through crypto::hash2.
template <typename Keep>
Digest walk(HashAlgo algo, ChainTagging tagging, ByteView from,
            std::size_t from_index, std::size_t to, Keep&& keep) {
  const bool md = algo == HashAlgo::kSha1 || algo == HashAlgo::kSha256;
  const std::size_t h = crypto::digest_size(algo);
  std::size_t i = from_index + 1;
  Digest cur;
  if (!md || from.size() != h) {
    cur = Digest{from};
    for (; i <= to && (!md || cur.size() != h); ++i) {
      {
        trace::ScopedStage prof_stage(trace::Stage::kChainStep);
        cur = crypto::hash2(algo, step_tag(tagging, i), cur.view());
      }
      keep(i, cur.view());
    }
    if (i > to) return cur;
    from = cur.view();
  }
  if (i > to) return Digest{from};
  return algo == HashAlgo::kSha1
             ? walk_block<crypto::Sha1>(tagging, from, i, to, keep)
             : walk_block<crypto::Sha256>(tagging, from, i, to, keep);
}

constexpr auto kKeepNone = [](std::size_t, ByteView) {};

}  // namespace

ByteView step_tag(ChainTagging tagging, std::size_t i) noexcept {
  if (tagging == ChainTagging::kPlain) return {};
  return crypto::as_bytes(i % 2 == 1 ? kS1Tag : kS2Tag);
}

Digest chain_step(HashAlgo algo, ChainTagging tagging, const Digest& prev,
                  std::size_t i) {
  // For i == 0, i - 1 wraps and walk() still takes the one step.
  return walk(algo, tagging, prev.view(), i - 1, i, kKeepNone);
}

Digest chain_advance(HashAlgo algo, ChainTagging tagging, const Digest& from,
                     std::size_t from_index, std::size_t to_index) {
  if (to_index < from_index) {
    throw std::invalid_argument("chain_advance: to_index < from_index");
  }
  return walk(algo, tagging, from.view(), from_index, to_index, kKeepNone);
}

HashChain::HashChain(HashAlgo algo, ChainTagging tagging, ByteView seed,
                     std::size_t length)
    : algo_(algo),
      tagging_(tagging),
      length_(length),
      spacing_(sqrt_spacing(length)) {
  if (length < 2) {
    throw std::invalid_argument("HashChain: length must be >= 2");
  }
  if (tagging == ChainTagging::kRoleBound && length % 2 != 0) {
    // Even length guarantees h_{n-1} (first disclosure) is S1-tagged.
    throw std::invalid_argument(
        "HashChain: role-bound chains require even length");
  }
  // The generation pass runs through the two segments the first
  // disclosures read (h_{n-1} and below): keep them, so they cost no refill.
  // n >= 2 gives n - 1 >= k, so the lower segment exists.
  seg_lo_[1] = (length_ - 1) / spacing_ * spacing_;
  seg_lo_[0] = seg_lo_[1] - spacing_;
  cache_.resize(2 * spacing_);
  pebbles_.reserve(length_ / spacing_ + 2);
  std::size_t next_pebble = 0;
  const auto keep = [&](std::size_t i, ByteView value) {
    if (i == next_pebble) {
      pebbles_.emplace_back(value);
      next_pebble += spacing_;
    } else if (i == length_) {
      pebbles_.emplace_back(value);
    }
    if (i >= seg_lo_[0] && i < seg_lo_[1] + spacing_) {
      cache_[i - seg_lo_[0]] = Digest{value};
    }
  };
  keep(0, seed);
  walk(algo_, tagging_, seed, 0, length_, keep);
}

HashChain HashChain::generate(HashAlgo algo, ChainTagging tagging,
                              crypto::RandomSource& rng, std::size_t length) {
  std::uint8_t seed[Digest::kMaxSize];
  const std::span<std::uint8_t> drawn{seed, crypto::digest_size(algo)};
  rng.fill(drawn);
  return HashChain{algo, tagging, drawn, length};
}

Digest HashChain::element(std::size_t i) const {
  if (i > length_) throw std::out_of_range("HashChain::element: index > length");
  const std::size_t lo = i - i % spacing_;
  for (std::size_t s = 0; s < 2; ++s) {
    if (seg_lo_[s] == lo) return cache_[s * spacing_ + (i - lo)];
  }
  // Miss: refill the slot holding the higher segment from the pebble h_lo.
  const std::size_t victim = seg_lo_[0] > seg_lo_[1] ? 0 : 1;
  Digest* seg = &cache_[victim * spacing_];
  seg[0] = pebbles_[lo / spacing_];
  const std::size_t hi = std::min(lo + spacing_ - 1, length_);
  walk(algo_, tagging_, seg[0].view(), lo, hi,
       [&](std::size_t j, ByteView value) { seg[j - lo] = Digest{value}; });
  seg_lo_[victim] = lo;
  return seg[i - lo];
}

std::size_t HashChain::memory_bytes() const noexcept {
  return (pebbles_.size() + 2 * spacing_) * crypto::digest_size(algo_);
}

Digest ChainWalker::peek(std::size_t offset) const {
  if (offset > next_ || next_ == 0) {
    throw std::out_of_range("ChainWalker::peek: chain exhausted");
  }
  return chain_->element(next_ - offset);
}

Digest ChainWalker::take(std::size_t steps) {
  if (steps == 0) throw std::invalid_argument("ChainWalker::take: steps == 0");
  if (next_ == 0 || steps > next_) {
    throw std::out_of_range("ChainWalker::take: chain exhausted");
  }
  const Digest out = chain_->element(next_);
  next_ -= steps;
  return out;
}

bool ChainVerifier::accept_or_derive(const Digest& element,
                                     std::size_t index) {
  if (index == last_index_) return element.ct_equals(last_);
  if (index > last_index_) {
    if (index - last_index_ > max_gap_) return false;
    return chain_advance(algo_, tagging_, last_, last_index_, index)
        .ct_equals(element);
  }
  return accept(element, index);
}

bool ChainVerifier::accept(const Digest& element, std::size_t index) {
  if (index >= last_index_) return false;
  if (last_index_ - index > max_gap_) return false;
  if (!chain_advance(algo_, tagging_, element, index, last_index_)
           .ct_equals(last_)) {
    return false;
  }
  last_ = element;
  last_index_ = index;
  return true;
}

std::optional<std::size_t> ChainVerifier::accept_auto(const Digest& element) {
  // Tags depend on absolute indices, so candidates at different gaps cannot
  // share intermediate hashes; O(max_gap^2) fixed-size hashes worst case,
  // which is tiny for the default gap of 64.
  for (std::size_t gap = 1; gap <= max_gap_ && gap <= last_index_; ++gap) {
    const std::size_t index = last_index_ - gap;
    if (chain_advance(algo_, tagging_, element, index, last_index_)
            .ct_equals(last_)) {
      last_ = element;
      last_index_ = index;
      return index;
    }
  }
  return std::nullopt;
}

}  // namespace alpha::hashchain
