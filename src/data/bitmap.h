#ifndef FAIRLAW_DATA_BITMAP_H_
#define FAIRLAW_DATA_BITMAP_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace fairlaw::data {

/// Fixed-size bitset packed into 64-bit words — the kernel type behind
/// the subgroup lattice walk.
///
/// A row set over an n-row table is one bit per row, so intersecting two
/// row sets is a word-wise AND (64 rows per instruction) and counting the
/// members is std::popcount per word: narrowing a subgroup by one more
/// condition costs words, not rows.
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

  /// Packs a 0/1 sequence (bits[i] != 0 sets bit i): validity bytes and
  /// 0/1 prediction columns.
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
  bool Test(size_t i) const;

  /// Number of set bits (word-wise popcount).
  size_t Count() const;

  /// Writes a & b into *out (resized as needed) and returns the popcount
  /// of the result in one pass. The workhorse of the subgroup enumerator:
  /// narrowing a member set by one condition and learning its support is a
  /// single sweep over the words.
  static size_t AndInto(const Bitmap& a, const Bitmap& b, Bitmap* out);

  /// Fused |a & b| without materializing the intersection: a leaf
  /// subgroup's positive predictions.
  static size_t AndCount(const Bitmap& a, const Bitmap& b);

  /// Unpacks to ascending row indices (for interop with index-based APIs).
  std::vector<size_t> ToIndices() const;

  bool operator==(const Bitmap& other) const = default;

 private:
  size_t size_ = 0;
  std::vector<uint64_t> words_;
};

}  // namespace fairlaw::data

#endif  // FAIRLAW_DATA_BITMAP_H_
