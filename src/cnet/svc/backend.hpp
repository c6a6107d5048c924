// Counter-backend selection for the service layer: one factory that every
// svc consumer, bench driver, and property test goes through, so "compare
// central vs. network" is a loop over BackendKind instead of hand-rolled
// constructions.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <string_view>

#include "cnet/runtime/counter.hpp"
#include "cnet/util/ensure.hpp"
#include "cnet/util/scatter.hpp"

namespace cnet::svc {

enum class BackendKind {
  kCentralAtomic,   // fetch_add on one cache line
  kCentralCas,      // CAS-retry on one cache line
  kBatchedNetwork,  // NetworkCounter on C(w,t), amortized batches
};

// Every kind, in display order — the iteration axis for tests and benches.
// Each is value-faithful (exact fetch_increment identities) and usable as a
// token pool.
inline constexpr BackendKind kAllBackendKinds[] = {
    BackendKind::kCentralAtomic, BackendKind::kCentralCas,
    BackendKind::kBatchedNetwork,
};

// The backend of every pool that sees only one party's traffic: a quota
// tenant's child bucket, a dist node's local pool, and their simulator
// models. Alone, the cheap central word beats any network.
inline constexpr BackendKind kLocalPoolKind = BackendKind::kCentralAtomic;

// Shape of the counting network behind the network-backed kinds; ignored by
// the central ones. Defaults to C(w, w·lg w) sized to the host by
// util::counting_shape(): w is the CPU count rounded up to a power of two,
// between 2 and 8, so C(4,8) on a 4-CPU host and C(8,24) on 5 or more.
struct BackendConfig {
  std::size_t width_in = util::counting_shape().width_in;
  std::size_t width_out = util::counting_shape().width_out;
};

// A parsed backend choice, e.g. "batched-network". The constructor's second
// argument keeps `{kind, false}` initializers compiling (e2ebench's
// quota_skew parent is one) now that a spec can no longer ask for the
// elimination front-end; it rejects `true`. Moving e2ebench to a plain
// BackendKind replaces BackendSpec with BackendKind and drops the
// constructor.
struct BackendSpec {
  BackendSpec(BackendKind k = BackendKind::kBatchedNetwork,
              bool elimination = false)
      : kind(k) {
    CNET_REQUIRE(!elimination, "the elimination front-end was removed");
  }

  BackendKind kind;
};

const char* backend_kind_name(BackendKind kind) noexcept;
std::optional<BackendKind> parse_backend_kind(std::string_view name) noexcept;

// The kind's name; round-trips with parse_backend_spec.
std::string backend_spec_name(const BackendSpec& spec);

// Outcome of parsing a backend spec string: on success `spec` is set and
// `error` empty; on failure `spec` is empty and `error` carries the
// human-readable reason (unknown kind, trailing garbage after a known
// kind) so benches and examples can report *why* a --backend argument was
// rejected instead of silently falling back. The optional-style accessors
// keep `if (parsed)` / `*parsed` call sites reading naturally.
struct ParseResult {
  std::optional<BackendSpec> spec;
  std::string error;

  bool has_value() const noexcept { return spec.has_value(); }
  explicit operator bool() const noexcept { return spec.has_value(); }
  const BackendSpec& operator*() const { return *spec; }
  const BackendSpec* operator->() const { return &*spec; }
};

ParseResult parse_backend_spec(std::string_view name);

std::unique_ptr<rt::Counter> make_counter(BackendKind kind,
                                          const BackendConfig& cfg = {});

}  // namespace cnet::svc
