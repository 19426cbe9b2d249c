#ifndef FAIRLAW_BASE_BYTES_H_
#define FAIRLAW_BASE_BYTES_H_

namespace fairlaw::base {

// Only stats/kept.cc includes this header. A reached kept.h pulls in its
// kept.cc, so this header is reached too: silent.
constexpr int kBytes = 8;

}  // namespace fairlaw::base

#endif  // FAIRLAW_BASE_BYTES_H_
