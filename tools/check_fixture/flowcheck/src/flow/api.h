#ifndef FAIRLAW_FLOW_API_H_
#define FAIRLAW_FLOW_API_H_

// Escape-hatch fixture for the flowcheck rules: the violating
// declarations of ../nodiscard-missing/, each carrying its
// `flowcheck: allow-<rule>` marker. The ctest run over this tree must
// report ZERO findings (every one suppressed and counted), proving each
// rule's escape actually works.

namespace fairlaw::flow {

class Store {
 public:
  Status Save(int value);  // flowcheck: allow-nodiscard-missing
  // flowcheck: allow-nodiscard-missing
  static Status Touch();
  Result<int> Load() const;  // flowcheck: allow-nodiscard-missing
  auto Reload() -> Status;   // flowcheck: allow-nodiscard-missing
  // flowcheck: allow-nodiscard-missing
  auto LoadAll() -> Result<std::vector<int>>;
};

// flowcheck: allow-nodiscard-missing
Result<Store> OpenStore(const std::string& path);

// flowcheck: allow-nodiscard-missing
inline Status Commit(Store& store) try {
  return store.Save(0);
} catch (...) {
  return Status::Internal("commit failed");
}

}  // namespace fairlaw::flow

#endif  // FAIRLAW_FLOW_API_H_
