#ifndef FAIRLAW_FLOW_API_H_
#define FAIRLAW_FLOW_API_H_

// The fallible declarations the fixture's bad.cc calls; the signature
// index reads them from here.

namespace fairlaw::flow {

class Store {
 public:
  FAIRLAW_NODISCARD Status Save(int value);
  FAIRLAW_NODISCARD static Status Touch();
  FAIRLAW_NODISCARD Result<int> Load() const;
};

FAIRLAW_NODISCARD Result<Store> OpenStore(const std::string& path);

}  // namespace fairlaw::flow

#endif  // FAIRLAW_FLOW_API_H_
