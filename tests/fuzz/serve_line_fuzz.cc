// Fuzz harness over the serve daemon's request path: Service::HandleLine
// and the ingest decoder it tries first. Each input is one request line.
// It must not crash the daemon, and the decoder must agree with the tree
// path (JsonValue::Parse + ParseRequest): every line it accepts reads
// as the same events there, and a Service answering the line through
// the decoder answers it as one fed the same request through the tree.
// Each input runs against two window configurations: 10-wide buckets,
// and 1-wide buckets, where an event time is its own bucket index and
// t = INT64_MAX reaches the last bucket there is.
//
// Built with -fsanitize=fuzzer this is a libFuzzer target. Linked with
// replay_main.cc it is the replay driver serve_line_fuzz_replay instead.
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

serve::ServeConfig FuzzConfig(int64_t bucket_width) {
  serve::ServeConfig config;
  config.bucket_width = bucket_width;
  config.num_buckets = 4;
  config.sketch_k = 8;
  return config;
}

[[noreturn]] void Fail(std::string_view line, const std::string& what) {
  std::fprintf(stderr, "serve_line_fuzz: %s\n  line: %.*s\n", what.c_str(),
               static_cast<int>(line.size()), line.data());
  std::abort();
}

void CheckService(std::string_view line, int64_t bucket_width) {
  serve::Service decoded(FuzzConfig(bucket_width));
  std::vector<serve::Event> events;
  if (!serve::DecodeIngestLine(line, &events)) {
    // The tree path answers: the daemon's one path before the decoder.
    decoded.HandleLine(line);
    return;
  }
  serve::Service tree(FuzzConfig(bucket_width));
  if (decoded.HandleLine(line) != tree.HandleLine(serve::WithTreeOnlyKey(line))) {
    Fail(line, "the decoder's response differs from the tree path's");
  }
  const std::string query = R"({"op":"query","type":"audit"})";
  if (decoded.HandleLine(query) != tree.HandleLine(query)) {
    Fail(line, "the window after the decoder differs from the tree path's");
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  const std::string_view line(reinterpret_cast<const char*>(data), size);
  const std::string disagreement = serve::DecoderDisagreement(line);
  if (!disagreement.empty()) Fail(line, disagreement);
  CheckService(line, 10);
  CheckService(line, 1);
  return 0;
}
