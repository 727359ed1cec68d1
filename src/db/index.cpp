#include "db/index.hpp"

#include <algorithm>
#include <bit>

namespace wtc::db {

namespace {

constexpr std::uint64_t kAll = ~std::uint64_t{0};

std::size_t lowest_bit(std::uint64_t word) noexcept {
  return static_cast<std::size_t>(std::countr_zero(word));
}

std::size_t highest_bit(std::uint64_t word) noexcept {
  return static_cast<std::size_t>(63 - std::countl_zero(word));
}

}  // namespace

void TableIndex::Bitmap::reset(RecordIndex size) {
  words_.assign((static_cast<std::size_t>(size) + 63) / 64, 0);
  summary_.assign((words_.size() + 63) / 64, 0);
  count_ = 0;
}

void TableIndex::Bitmap::insert(RecordIndex r) noexcept {
  std::uint64_t& word = words_[r / 64];
  const std::uint64_t bit = std::uint64_t{1} << (r % 64);
  if ((word & bit) != 0) {
    return;
  }
  if (word == 0) {
    summary_[r / 4096] |= std::uint64_t{1} << (r / 64 % 64);
  }
  word |= bit;
  ++count_;
}

void TableIndex::Bitmap::erase(RecordIndex r) noexcept {
  std::uint64_t& word = words_[r / 64];
  const std::uint64_t bit = std::uint64_t{1} << (r % 64);
  if ((word & bit) == 0) {
    return;
  }
  word &= ~bit;
  if (word == 0) {
    summary_[r / 4096] &= ~(std::uint64_t{1} << (r / 64 % 64));
  }
  --count_;
}

std::optional<RecordIndex> TableIndex::Bitmap::next_from(
    RecordIndex r) const noexcept {
  const std::size_t w = r / 64;
  if (w >= words_.size()) {
    return std::nullopt;
  }
  if (const std::uint64_t here = words_[w] & (kAll << (r % 64)); here != 0) {
    return static_cast<RecordIndex>(w * 64 + lowest_bit(here));
  }
  // The nearest non-empty word above w, found through the summary level.
  if (w + 1 == words_.size()) {
    return std::nullopt;
  }
  std::size_t s = (w + 1) / 64;
  std::uint64_t above = summary_[s] & (kAll << ((w + 1) % 64));
  while (above == 0) {
    if (++s == summary_.size()) {
      return std::nullopt;
    }
    above = summary_[s];
  }
  const std::size_t nw = s * 64 + lowest_bit(above);
  return static_cast<RecordIndex>(nw * 64 + lowest_bit(words_[nw]));
}

std::optional<RecordIndex> TableIndex::Bitmap::prev_below(
    RecordIndex r) const noexcept {
  const std::size_t w = std::min<std::size_t>(r / 64, words_.size());
  if (w < words_.size() && r % 64 != 0) {
    const std::uint64_t below = words_[w] & (kAll >> (64 - r % 64));
    if (below != 0) {
      return static_cast<RecordIndex>(w * 64 + highest_bit(below));
    }
  }
  // The nearest non-empty word below w, found through the summary level.
  if (w == 0) {
    return std::nullopt;
  }
  std::size_t s = (w - 1) / 64;
  std::uint64_t below = summary_[s] & (kAll >> (63 - (w - 1) % 64));
  while (below == 0) {
    if (s == 0) {
      return std::nullopt;
    }
    below = summary_[--s];
  }
  const std::size_t nw = s * 64 + highest_bit(below);
  return static_cast<RecordIndex>(nw * 64 + highest_bit(words_[nw]));
}

void TableIndex::reset(RecordIndex num_records) {
  for (auto& members : groups_) {
    members.reset(num_records);
  }
  free_.reset(num_records);
  group_of_.assign(num_records, kNoGroup);
}

void TableIndex::sync(RecordIndex r, std::uint32_t status, std::uint32_t group) {
  const std::uint8_t new_group =
      group < kMaxGroups ? static_cast<std::uint8_t>(group) : kNoGroup;
  std::uint8_t& old_group = group_of_[r];
  if (old_group != new_group) {
    if (old_group != kNoGroup) {
      groups_[old_group].erase(r);
    }
    if (new_group != kNoGroup) {
      groups_[new_group].insert(r);
    }
    old_group = new_group;
  }
  if (status == kStatusFree) {
    free_.insert(r);
  } else {
    free_.erase(r);
  }
}

std::optional<RecordIndex> TableIndex::pred(std::uint32_t g,
                                            RecordIndex r) const noexcept {
  if (g >= kMaxGroups || r >= group_of_.size()) {
    return std::nullopt;
  }
  return groups_[g].prev_below(r);
}

std::optional<RecordIndex> TableIndex::succ(std::uint32_t g,
                                            RecordIndex r) const noexcept {
  if (g >= kMaxGroups || r >= group_of_.size()) {
    return std::nullopt;
  }
  return groups_[g].next_from(r + 1);
}

}  // namespace wtc::db
