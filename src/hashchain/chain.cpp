#include "hashchain/chain.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

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

// Advances `cur` (holding element from_index) in place up to to_index,
// avoiding the temporary-per-step churn of repeated chain_advance calls.
void advance_inplace(HashAlgo algo, ChainTagging tagging, Digest& cur,
                     std::size_t from_index, std::size_t to_index) {
  for (std::size_t i = from_index + 1; i <= to_index; ++i) {
    cur = chain_step(algo, tagging, cur, i);
  }
}

}  // namespace

ByteView step_tag(ChainTagging tagging, std::size_t i) noexcept {
  if (tagging == ChainTagging::kPlain) return {};
  return crypto::as_bytes(i % 2 == 1 ? kS1Tag : kS2Tag);
}

Digest chain_step(HashAlgo algo, ChainTagging tagging, const Digest& prev,
                  std::size_t i) {
  // Uninstalled cost is one thread-local pointer check; installed, one in
  // sample_every steps reads the perf counter group (see trace/prof.hpp).
  trace::ScopedStage prof_stage(trace::Stage::kChainStep);
  return crypto::hash2(algo, step_tag(tagging, i), prev.view());
}

Digest chain_advance(HashAlgo algo, ChainTagging tagging, const Digest& from,
                     std::size_t from_index, std::size_t to_index) {
  if (to_index < from_index) {
    throw std::invalid_argument("chain_advance: to_index < from_index");
  }
  if (to_index == from_index) return from;
  Digest cur = chain_step(algo, tagging, from, from_index + 1);
  advance_inplace(algo, tagging, cur, from_index + 1, to_index);
  return cur;
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
  Digest cur{seed};
  for (std::size_t i = 0; i <= length_; ++i) {
    if (i > 0) cur = chain_step(algo_, tagging_, cur, i);
    if (i % spacing_ == 0 || i == length_) pebbles_.push_back(cur);
    if (i >= seg_lo_[0] && i < seg_lo_[1] + spacing_) {
      cache_[i - seg_lo_[0]] = cur;
    }
  }
}

HashChain HashChain::generate(HashAlgo algo, ChainTagging tagging,
                              crypto::RandomSource& rng, std::size_t length) {
  const crypto::Bytes seed = rng.bytes(crypto::digest_size(algo));
  return HashChain{algo, tagging, seed, length};
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
  for (std::size_t j = lo + 1; j <= hi; ++j) {
    seg[j - lo] = chain_step(algo_, tagging_, seg[j - lo - 1], j);
  }
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
    Digest derived = last_;
    advance_inplace(algo_, tagging_, derived, last_index_, index);
    return derived.ct_equals(element);
  }
  return accept(element, index);
}

bool ChainVerifier::accept(const Digest& element, std::size_t index) {
  if (index >= last_index_) return false;
  if (last_index_ - index > max_gap_) return false;
  Digest advanced = element;
  advance_inplace(algo_, tagging_, advanced, index, last_index_);
  if (!advanced.ct_equals(last_)) return false;
  last_ = element;
  last_index_ = index;
  return true;
}

std::optional<std::size_t> ChainVerifier::accept_auto(const Digest& element) {
  // Tags depend on absolute indices, so candidates at different gaps cannot
  // share intermediate hashes; O(max_gap^2) fixed-size hashes worst case,
  // which is tiny for the default gap of 64.
  Digest advanced;
  for (std::size_t gap = 1; gap <= max_gap_ && gap <= last_index_; ++gap) {
    const std::size_t index = last_index_ - gap;
    advanced = element;
    advance_inplace(algo_, tagging_, advanced, index, last_index_);
    if (advanced.ct_equals(last_)) {
      last_ = element;
      last_index_ = index;
      return index;
    }
  }
  return std::nullopt;
}

}  // namespace alpha::hashchain
