// Fixture for unknown-module: src/flow/ is not a module of the
// declared layering DAG. src/base/ next to it is.
#ifndef FAIRLAW_FLOW_QUEUE_H_
#define FAIRLAW_FLOW_QUEUE_H_

namespace fairlaw::flow {

struct Queue {
  int depth = 0;
};

}  // namespace fairlaw::flow

#endif  // FAIRLAW_FLOW_QUEUE_H_
