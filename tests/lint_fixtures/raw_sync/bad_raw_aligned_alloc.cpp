// Self-test fixture: padded storage from the aligned allocator — every
// spelling must fire; util::LineBlock aligns a plain allocation instead.
#include <cstdlib>
#include <new>

namespace fixture {

inline void* aligned_line() {
  return ::operator new(64, std::align_val_t{64});
}

inline void* c_aligned_line() { return std::aligned_alloc(64, 64); }

inline void* posix_line() {
  void* p = nullptr;
  return posix_memalign(&p, 64, 64) == 0 ? p : nullptr;
}

inline void* legacy_line() { return memalign(64, 64); }

}  // namespace fixture
