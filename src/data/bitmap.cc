#include "data/bitmap.h"

#include <bit>

#include "base/check.h"
#include "base/simd.h"

namespace fairlaw::data {
namespace {

constexpr size_t kWordBits = 64;

size_t WordsFor(size_t bits) { return (bits + kWordBits - 1) / kWordBits; }

/// Mask with ones in the positions the last word actually uses; ~0 when
/// the size is an exact multiple of 64 (no partial tail word).
uint64_t TailMask(size_t size) {
  const size_t rem = size % kWordBits;
  return rem == 0 ? ~uint64_t{0} : (uint64_t{1} << rem) - 1;
}

}  // namespace

Bitmap::Bitmap(size_t size) : size_(size), words_(WordsFor(size), 0) {}

Bitmap Bitmap::AllSet(size_t size) {
  Bitmap bitmap(size);
  if (size == 0) return bitmap;
  for (uint64_t& word : bitmap.words_) word = ~uint64_t{0};
  bitmap.words_.back() &= TailMask(size);
  return bitmap;
}

void Bitmap::Set(size_t i) {
  FAIRLAW_DCHECK(i < size_, "Bitmap::Set: index out of range");
  words_[i / kWordBits] |= uint64_t{1} << (i % kWordBits);
}

void Bitmap::Reset(size_t i) {
  FAIRLAW_DCHECK(i < size_, "Bitmap::Reset: index out of range");
  words_[i / kWordBits] &= ~(uint64_t{1} << (i % kWordBits));
}

bool Bitmap::Test(size_t i) const {
  FAIRLAW_DCHECK(i < size_, "Bitmap::Test: index out of range");
  return (words_[i / kWordBits] >> (i % kWordBits)) & 1;
}

size_t Bitmap::Count() const {
  return static_cast<size_t>(
      simd::PopcountWords(words_.data(), words_.size()));
}

Result<Bitmap> Bitmap::And(const Bitmap& other) const {
  if (size_ != other.size_) {
    return Status::Invalid("Bitmap::And: size mismatch (" +
                           std::to_string(size_) + " vs " +
                           std::to_string(other.size_) + ")");
  }
  Bitmap out(size_);
  for (size_t w = 0; w < words_.size(); ++w) {
    out.words_[w] = words_[w] & other.words_[w];
  }
  return out;
}

Result<Bitmap> Bitmap::AndNot(const Bitmap& other) const {
  if (size_ != other.size_) {
    return Status::Invalid("Bitmap::AndNot: size mismatch (" +
                           std::to_string(size_) + " vs " +
                           std::to_string(other.size_) + ")");
  }
  // a's tail bits are zero by invariant, so a & ~b needs no extra masking.
  Bitmap out(size_);
  for (size_t w = 0; w < words_.size(); ++w) {
    out.words_[w] = words_[w] & ~other.words_[w];
  }
  return out;
}

void Bitmap::AndInPlace(const Bitmap& other) {
  FAIRLAW_DCHECK(size_ == other.size_, "Bitmap::AndInPlace: size mismatch");
  for (size_t w = 0; w < words_.size(); ++w) {
    words_[w] &= other.words_[w];
  }
}

size_t Bitmap::AndInto(const Bitmap& a, const Bitmap& b, Bitmap* out) {
  FAIRLAW_DCHECK(a.size_ == b.size_, "Bitmap::AndInto: size mismatch");
  out->size_ = a.size_;
  out->words_.resize(a.words_.size());
  return static_cast<size_t>(simd::AndIntoPopcountWords(
      a.words_.data(), b.words_.data(), out->words_.data(),
      a.words_.size()));
}

size_t Bitmap::AndCount(const Bitmap& a, const Bitmap& b) {
  FAIRLAW_DCHECK(a.size_ == b.size_, "Bitmap::AndCount: size mismatch");
  return static_cast<size_t>(simd::AndPopcountWords(
      a.words_.data(), b.words_.data(), a.words_.size()));
}

size_t Bitmap::AndCount3(const Bitmap& a, const Bitmap& b, const Bitmap& c) {
  FAIRLAW_DCHECK(a.size_ == b.size_ && b.size_ == c.size_,
                 "Bitmap::AndCount3: size mismatch");
  return static_cast<size_t>(simd::And3PopcountWords(
      a.words_.data(), b.words_.data(), c.words_.data(), a.words_.size()));
}

size_t Bitmap::AndNotCount(const Bitmap& a, const Bitmap& b) {
  FAIRLAW_DCHECK(a.size_ == b.size_, "Bitmap::AndNotCount: size mismatch");
  return static_cast<size_t>(simd::AndNotPopcountWords(
      a.words_.data(), b.words_.data(), a.words_.size()));
}

size_t Bitmap::AndAndNotCount(const Bitmap& a, const Bitmap& b,
                              const Bitmap& c) {
  FAIRLAW_DCHECK(a.size_ == b.size_ && b.size_ == c.size_,
                 "Bitmap::AndAndNotCount: size mismatch");
  return static_cast<size_t>(simd::AndAndNotPopcountWords(
      a.words_.data(), b.words_.data(), c.words_.data(), a.words_.size()));
}

std::vector<size_t> Bitmap::ToIndices() const {
  std::vector<size_t> indices;
  indices.reserve(Count());
  for (size_t w = 0; w < words_.size(); ++w) {
    uint64_t word = words_[w];
    while (word != 0) {
      const int bit = std::countr_zero(word);
      indices.push_back(w * kWordBits + static_cast<size_t>(bit));
      word &= word - 1;  // clear lowest set bit
    }
  }
  return indices;
}

}  // namespace fairlaw::data
