// Fuzz harness over the serve daemon's request path: Service::HandleLine
// and the ingest decoder it tries first. Each input is one request line.
// It must not crash the daemon, and the decoder must agree with the tree
// path (JsonValue::Parse + ParseRequest): every line it accepts reads
// as the same events there, and a Service answering the line through
// the decoder answers it as one fed the same request through the tree.
//
// Built with -fsanitize=fuzzer this is a libFuzzer target. Built with
// FAIRLAW_FUZZ_REPLAY_MAIN it is a replay driver instead:
//   serve_line_fuzz_replay FILE_OR_DIR...
// runs every file (a directory's files in name order) as one input and
// aborts at the first disagreement, as the fuzzer would.
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>
#include <vector>

#include "serve/api.h"
#include "serve/service.h"
#include "support/ingest_oracle.h"

namespace {

namespace serve = fairlaw::serve;

serve::ServeConfig FuzzConfig() {
  serve::ServeConfig config;
  config.bucket_width = 10;
  config.num_buckets = 4;
  config.sketch_k = 8;
  return config;
}

[[noreturn]] void Fail(std::string_view line, const std::string& what) {
  std::fprintf(stderr, "serve_line_fuzz: %s\n  line: %.*s\n", what.c_str(),
               static_cast<int>(line.size()), line.data());
  std::abort();
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  const std::string_view line(reinterpret_cast<const char*>(data), size);
  const std::string disagreement = serve::DecoderDisagreement(line);
  if (!disagreement.empty()) Fail(line, disagreement);

  serve::Service decoded(FuzzConfig());
  std::vector<serve::Event> events;
  if (!serve::DecodeIngestLine(line, &events)) {
    // The tree path answers: the daemon's one path before the decoder.
    decoded.HandleLine(line);
    return 0;
  }
  serve::Service tree(FuzzConfig());
  if (decoded.HandleLine(line) != tree.HandleLine(serve::WithTreeOnlyKey(line))) {
    Fail(line, "the decoder's response differs from the tree path's");
  }
  const std::string query = R"({"op":"query","type":"audit"})";
  if (decoded.HandleLine(query) != tree.HandleLine(query)) {
    Fail(line, "the window after the decoder differs from the tree path's");
  }
  return 0;
}

#ifdef FAIRLAW_FUZZ_REPLAY_MAIN

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iterator>

int main(int argc, char** argv) {
  namespace fs = std::filesystem;
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
    std::fprintf(stderr, "usage: serve_line_fuzz_replay FILE_OR_DIR...\n");
    return 2;
  }
  for (const fs::path& input : inputs) {
    std::ifstream in(input, std::ios::binary);
    const std::string bytes((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
    if (!in.good() && !in.eof()) {
      std::fprintf(stderr, "serve_line_fuzz_replay: cannot read %s\n",
                   input.c_str());
      return 1;
    }
    LLVMFuzzerTestOneInput(reinterpret_cast<const uint8_t*>(bytes.data()),
                           bytes.size());
  }
  std::fprintf(stderr, "serve_line_fuzz_replay: %zu inputs agree\n",
               inputs.size());
  return 0;
}

#endif  // FAIRLAW_FUZZ_REPLAY_MAIN
