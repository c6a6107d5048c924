#include "cnet/svc/backend.hpp"

#include <string>
#include <vector>

#include "cnet/core/counting.hpp"
#include "cnet/runtime/central.hpp"
#include "cnet/runtime/network_counter.hpp"
#include "cnet/util/mutex.hpp"
#include "cnet/util/thread_annotations.hpp"

namespace cnet::svc {

const char* backend_kind_name(BackendKind kind) noexcept {
  switch (kind) {
    case BackendKind::kCentralAtomic: return "central-atomic";
    case BackendKind::kCentralCas: return "central-cas";
    case BackendKind::kBatchedNetwork: return "batched-network";
  }
  return "?";
}

namespace {
std::string known_kinds_list() {
  std::string list;
  for (const BackendKind kind : kAllBackendKinds) {
    if (!list.empty()) list += ", ";
    list += backend_kind_name(kind);
  }
  return list;
}
}  // namespace

ParseResult parse_backend_kind(std::string_view name) {
  ParseResult result;
  for (const BackendKind k : kAllBackendKinds) {
    if (name == backend_kind_name(k)) {
      result.kind = k;
      return result;
    }
  }
  // Distinguish "right kind, junk appended" from "no such kind": the
  // former is usually a typo'd suffix worth pointing at directly.
  for (const BackendKind k : kAllBackendKinds) {
    const std::string_view kind_name = backend_kind_name(k);
    if (name.size() > kind_name.size() &&
        name.substr(0, kind_name.size()) == kind_name) {
      result.error = "trailing garbage \"" +
                     std::string(name.substr(kind_name.size())) +
                     "\" after backend kind \"" + std::string(kind_name) +
                     "\" in \"" + std::string(name) + "\"";
      return result;
    }
  }
  result.error = "unknown backend kind \"" + std::string(name) +
                 "\" (known: " + known_kinds_list() + ")";
  return result;
}

namespace {

// One compiled C(w,t) per (w,t) for the whole process: the wiring is
// immutable, so every network-backed counter of a shape shares it and owns
// only its balancer states and exit cells. The lock is taken only when a
// counter is built, never on a traversal. Shapes are never evicted; each is
// a few KB, and only valid (w,t) pairs get in (make_counting throws first).
class ShapeMemo {
 public:
  std::shared_ptr<const rt::CompiledShape> get(std::size_t w, std::size_t t) {
    const util::MutexLock lock(mu_);
    for (const Entry& e : shapes_) {
      if (e.w == w && e.t == t) return e.shape;
    }
    auto shape =
        std::make_shared<const rt::CompiledShape>(core::make_counting(w, t));
    shapes_.push_back({w, t, shape});
    return shape;
  }

 private:
  struct Entry {
    std::size_t w, t;
    std::shared_ptr<const rt::CompiledShape> shape;
  };
  util::Mutex mu_;
  // A process sees a handful of shapes, so a scan is all the lookup needs.
  std::vector<Entry> shapes_ CNET_GUARDED_BY(mu_);
};

std::shared_ptr<const rt::CompiledShape> counting_shape(std::size_t w,
                                                        std::size_t t) {
  static ShapeMemo memo;
  return memo.get(w, t);
}

}  // namespace

std::unique_ptr<rt::Counter> make_counter(BackendKind kind,
                                          const BackendConfig& cfg) {
  switch (kind) {
    case BackendKind::kCentralAtomic:
      return std::make_unique<rt::AtomicCounter>();
    case BackendKind::kCentralCas:
      return std::make_unique<rt::CasCounter>();
    case BackendKind::kBatchedNetwork:
      return std::make_unique<rt::NetworkCounter>(
          counting_shape(cfg.width_in, cfg.width_out),
          "batched C(" + std::to_string(cfg.width_in) + "," +
              std::to_string(cfg.width_out) + ")");
  }
  return nullptr;
}

}  // namespace cnet::svc
