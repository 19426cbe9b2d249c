#ifndef FAIRLAW_DATA_BITMAP_H_
#define FAIRLAW_DATA_BITMAP_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "base/result.h"

namespace fairlaw::data {

/// Fixed-size bitset packed into 64-bit words — the kernel type behind
/// subgroup enumeration and the group-metric confusion counts.
///
/// A row set over an n-row table is one bit per row, so intersecting two
/// row sets is a word-wise AND (64 rows per instruction) and counting the
/// members is std::popcount per word. That replaces the per-row
/// std::vector<size_t> / string-compare loops that used to dominate the
/// audit hot path.
///
/// Invariant: bits at positions >= size() are always zero (tail-word
/// masking). Every mutating operation preserves it, so Count() and the
/// fused kernels never need to special-case the last word.
class Bitmap {
 public:
  /// Empty bitmap (size 0).
  Bitmap() = default;

  /// All-zero bitmap of `size` bits.
  explicit Bitmap(size_t size);

  /// All-one bitmap of `size` bits (tail word masked).
  static Bitmap AllSet(size_t size);

  /// Packs a 0/1 sequence (bits[i] != 0 sets bit i): validity bytes,
  /// 0/1 prediction and label columns.
  template <typename Bits>
  static Bitmap FromBits(const Bits& bits) {
    Bitmap bitmap(bits.size());
    for (size_t i = 0; i < bits.size(); ++i) {
      if (bits[i] != 0) bitmap.Set(i);
    }
    return bitmap;
  }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  size_t num_words() const { return words_.size(); }
  std::span<const uint64_t> words() const { return words_; }

  /// Single-bit access. Callers index rows they obtained from the same
  /// table, so out-of-range is a programming error (DCHECK), not a Status.
  void Set(size_t i);
  void Reset(size_t i);
  bool Test(size_t i) const;

  /// Number of set bits (word-wise popcount).
  size_t Count() const;

  /// Word-wise a & b. Sizes must match; mismatch is a Status::Invalid —
  /// two row sets of different tables can never be meaningfully combined.
  FAIRLAW_NODISCARD Result<Bitmap> And(const Bitmap& other) const;

  /// Word-wise a & ~b (set difference). Sizes must match.
  FAIRLAW_NODISCARD Result<Bitmap> AndNot(const Bitmap& other) const;

  /// In-place a &= b for pre-validated same-size bitmaps (hot path).
  void AndInPlace(const Bitmap& other);

  /// Writes a & b into *out (resized as needed) and returns the popcount
  /// of the result in one pass. The workhorse of the subgroup enumerator:
  /// narrowing a member set by one condition and learning its support is a
  /// single sweep over the words.
  static size_t AndInto(const Bitmap& a, const Bitmap& b, Bitmap* out);

  /// Fused popcount kernels: |a & b|, |a & b & c|, |a & ~b|, |a & b & ~c|
  /// without materializing the intersection. These produce the confusion
  /// counts (TP/FP/FN/TN per group) directly from packed prediction/label
  /// bitmaps.
  static size_t AndCount(const Bitmap& a, const Bitmap& b);
  static size_t AndCount3(const Bitmap& a, const Bitmap& b, const Bitmap& c);
  static size_t AndNotCount(const Bitmap& a, const Bitmap& b);
  static size_t AndAndNotCount(const Bitmap& a, const Bitmap& b,
                               const Bitmap& c);

  /// Unpacks to ascending row indices (for interop with index-based APIs).
  std::vector<size_t> ToIndices() const;

  bool operator==(const Bitmap& other) const = default;

 private:
  size_t size_ = 0;
  std::vector<uint64_t> words_;
};

}  // namespace fairlaw::data

#endif  // FAIRLAW_DATA_BITMAP_H_
