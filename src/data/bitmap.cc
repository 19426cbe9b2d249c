#include "data/bitmap.h"

#include <bit>

#include "base/check.h"
#include "base/simd.h"

namespace fairlaw::data {
namespace {

constexpr size_t kWordBits = 64;

size_t WordsFor(size_t bits) { return (bits + kWordBits - 1) / kWordBits; }

}  // namespace

Bitmap::Bitmap(size_t size) : size_(size), words_(WordsFor(size), 0) {}

void Bitmap::Set(size_t i) {
  FAIRLAW_DCHECK(i < size_, "Bitmap::Set: index out of range");
  words_[i / kWordBits] |= uint64_t{1} << (i % kWordBits);
}

bool Bitmap::Test(size_t i) const {
  FAIRLAW_DCHECK(i < size_, "Bitmap::Test: index out of range");
  return (words_[i / kWordBits] >> (i % kWordBits)) & 1;
}

size_t Bitmap::Count() const {
  return static_cast<size_t>(
      simd::PopcountWords(words_.data(), words_.size()));
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
