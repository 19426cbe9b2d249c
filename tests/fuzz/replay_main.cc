// Replay driver for a fuzz harness: links against the harness's
// LLVMFuzzerTestOneInput and feeds it checked-in inputs, so the seed
// corpus runs as a ctest on compilers without libFuzzer.
//   <harness>_replay FILE_OR_DIR...
// runs every file (a directory's files in name order) as one input. A
// harness aborts at the first disagreement, as the fuzzer would.
#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size);

int main(int argc, char** argv) {
  namespace fs = std::filesystem;
  const std::string name = fs::path(argv[0]).filename().string();
  std::vector<fs::path> inputs;
  for (int i = 1; i < argc; ++i) {
    const fs::path path = argv[i];
    if (!fs::is_directory(path)) {
      inputs.push_back(path);
      continue;
    }
    std::vector<fs::path> files;
    for (const fs::directory_entry& entry : fs::directory_iterator(path)) {
      if (entry.is_regular_file()) files.push_back(entry.path());
    }
    std::sort(files.begin(), files.end());
    inputs.insert(inputs.end(), files.begin(), files.end());
  }
  if (inputs.empty()) {
    std::fprintf(stderr, "usage: %s FILE_OR_DIR...\n", name.c_str());
    return 2;
  }
  for (const fs::path& input : inputs) {
    std::ifstream in(input, std::ios::binary);
    const std::string bytes((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
    if (!in.good() && !in.eof()) {
      std::fprintf(stderr, "%s: cannot read %s\n", name.c_str(),
                   input.c_str());
      return 1;
    }
    LLVMFuzzerTestOneInput(reinterpret_cast<const uint8_t*>(bytes.data()),
                           bytes.size());
  }
  std::fprintf(stderr, "%s: %zu inputs agree\n", name.c_str(), inputs.size());
  return 0;
}
