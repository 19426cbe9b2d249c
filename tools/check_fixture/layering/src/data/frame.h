// Fixture for layering: data (rank 2) includes ml (rank 4).
#ifndef FAIRLAW_DATA_FRAME_H_
#define FAIRLAW_DATA_FRAME_H_

#include "ml/model.h"

namespace fairlaw::data {

struct Frame {
  ml::Model model;
};

}  // namespace fairlaw::data

#endif  // FAIRLAW_DATA_FRAME_H_
