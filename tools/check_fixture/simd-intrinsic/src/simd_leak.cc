// Deliberate violations of the simd-intrinsic rule: vendor intrinsics
// are banned in every file. Kernels are portable C++ that the compiler
// vectorizes instead.
#include <immintrin.h>

#include <cstdint>

namespace fixture {

uint64_t LeakedAvx2Popcount(const uint64_t* words) {
  __m256i v = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(words));
  __m256i sums = _mm256_sad_epu8(v, _mm256_setzero_si256());
  return static_cast<uint64_t>(_mm256_extract_epi64(sums, 0));
}

}  // namespace fixture
