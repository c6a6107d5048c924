// Self-test fixture: padded storage the blessed way, through util. Mentions
// of std::align_val_t or posix_memalign in comments and "aligned_alloc in
// strings" must not fire, and neither may names that only contain them.
#include "cnet/util/cacheline.hpp"

namespace fixture {

struct alignas(cnet::util::kCacheLine) Line {
  long value = 0;
};

inline long sum_lines() {
  cnet::util::LineArray<Line> lines(4);
  long sum = 0;
  for (const Line& line : lines) sum += line.value;
  return sum;
}

inline const char* label() { return "no aligned_alloc here"; }

inline int my_memalign_count() { return 0; }

}  // namespace fixture
