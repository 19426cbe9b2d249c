#ifndef FAIRLAW_BASE_BYTES_H_
#define FAIRLAW_BASE_BYTES_H_

namespace fairlaw {

struct Bytes {
  int size = 0;
};

}  // namespace fairlaw

#endif  // FAIRLAW_BASE_BYTES_H_
