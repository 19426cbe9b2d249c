#ifndef FAIRLAW_FLOW_API_H_
#define FAIRLAW_FLOW_API_H_

// Fixture for nodiscard-missing: every declaration below returns
// Status/Result<T> without FAIRLAW_NODISCARD, so each must land in the
// signature index AND fire the rule. The declaration shapes cover what the
// index has to parse: plain methods, static factories, free functions,
// trailing return types, and a function-try-block definition.

namespace fairlaw::flow {

class Store {
 public:
  Status Save(int value);                  // nodiscard-missing
  static Status Touch();                   // nodiscard-missing (factory)
  Result<int> Load() const;                // nodiscard-missing
  auto Reload() -> Status;                 // nodiscard-missing (trailing)
  auto LoadAll() -> Result<std::vector<int>>;  // nodiscard-missing
};

Result<Store> OpenStore(const std::string& path);  // nodiscard-missing

// Function-try-block definition: the index must parse through `try`
// without losing the declaration or desynchronizing its scope stack.
inline Status Commit(Store& store) try {
  return store.Save(0);
} catch (...) {
  return Status::Internal("commit failed");
}

}  // namespace fairlaw::flow

#endif  // FAIRLAW_FLOW_API_H_
