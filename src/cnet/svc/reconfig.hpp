// svc::ReconfigEngine — hot reconfiguration without draining: a reusable
// staged-commit protocol (SDS-style watch/update semantics: a
// version-stamped config is prepared off to the side and published to live
// consumers with no drain, cf. envoy's secret-discovery updates).
//
// The protocol is the paper's quiescence argument (§2.2) run in reverse:
// because a structure's outstanding token count is a well-defined function
// of what entered it, a *quiescent* structure can be replaced and its
// remaining count migrated exactly. The engine makes any config swappable
// under that argument:
//
//   readers   enter a padded per-slot reader count, load the active-state
//             pointer, run against it, and leave (RCU-style; two atomics
//             on the hot path, no locks). The reader counts are field 0 of
//             a util::SlotArray, two lines per core (util::scatter_slots()),
//             and a reader picks its line by masking its thread hint, so
//             hints may share a line; the commit scan waits for each
//             line's whole count to drain. The owner may keep per-hint
//             tallies of its own on the same lines (the `Tallies` fields
//             after the reader count), so an op's enter, tally and exit
//             touch one line;
//   stage     a full replacement state is built off to the side — new
//             backend, new network width, new batch chunking, new weight
//             vector — while traffic continues on the old one;
//   commit    publishes the new pointer (seq_cst, pairing with the reader
//             protocol), waits until every reader slot drains to zero —
//             after which no op can touch the old state — then runs the
//             caller's migration against the now-quiescent old state
//             (e.g. drain its pool and re-inject the exact count into the
//             new one) and bumps the config version.
//
// A migration that throws leaves the staged state published and owned by
// the engine and the old state retired, so readers keep running against
// live memory; the version does not move, subscribers are not notified,
// and the exception propagates to the committer.
//
// Commits serialize on a mutex (reconfiguration is a control-plane event;
// readers never block). Retired states are kept alive for the engine's
// lifetime: long-lived references handed out earlier (telemetry reads,
// `pool()` accessors) stay valid, merely stale. The memory cost is one
// retired state per commit, paid only by reconfiguring consumers.
//
// Consumers expose the stamp as config_version() and subscribe();
// validity rules for *what* may be staged (chunk bounds, weight vectors)
// are pure functions in svc/policy.hpp (respec_safe / reweigh_safe),
// shared with the virtual-time simulator's sim::simulate_reconfig mirror.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "cnet/util/atomic.hpp"
#include "cnet/util/ensure.hpp"
#include "cnet/util/mutex.hpp"
#include "cnet/util/sched_point.hpp"
#include "cnet/util/slot_array.hpp"
#include "cnet/util/thread_annotations.hpp"

namespace cnet::svc {

// Invoked once per committed reconfiguration with the freshly bumped
// version (SDS-style watch: push on update instead of polling).
using CommitCallback = std::function<void(std::uint64_t version)>;

template <class State, std::size_t Tallies = 0>
class ReconfigEngine final {
 public:
  explicit ReconfigEngine(std::unique_ptr<State> initial)
      : current_(std::move(initial)),
        active_(current_.get()) {
    CNET_REQUIRE(current_ != nullptr, "null initial state");
  }

  ReconfigEngine(const ReconfigEngine&) = delete;
  ReconfigEngine& operator=(const ReconfigEngine&) = delete;

  // Runs fn against the currently published state inside a reader section.
  // seq_cst on the enter RMW and the pointer load pairs with commit()'s
  // seq_cst publish + slot scan: in the single total order, either this
  // enter precedes the scan (the committer waits for us) or the publish
  // precedes our load (we already run on the new state). Either way no
  // reader touches the old state after the committer starts migrating it.
  template <class Fn>
  auto read(std::size_t thread_hint, Fn&& fn) {
    auto& slot = lines_.line(thread_hint).field[kReaders];
    slot.fetch_add(1, std::memory_order_seq_cst);
    State* active = active_.load(std::memory_order_seq_cst);
    struct Exit {
      util::Atomic<std::uint64_t>& slot;
      ~Exit() { slot.fetch_sub(1, std::memory_order_release); }
    } exit{slot};
    return fn(*active);
  }

  // The owner's per-hint tallies, fields 0..Tallies-1 after each line's
  // reader count.
  void tally(std::size_t field, std::size_t thread_hint,
             std::uint64_t v) noexcept(!util::kSchedCheckEnabled) {
    lines_.add(kReaders + 1 + field, thread_hint, v);
  }
  std::uint64_t tally_total(std::size_t field) const
      noexcept(!util::kSchedCheckEnabled) {
    return lines_.total(kReaders + 1 + field);
  }

  // The currently published state, outside any reader section. Safe to
  // dereference at any time (retired states stay alive), but a concurrent
  // commit can make the snapshot stale — use read() when the op must land
  // entirely on one configuration.
  State& current() noexcept { return *active_.load(std::memory_order_acquire); }
  const State& current() const noexcept {
    return *active_.load(std::memory_order_acquire);
  }

  // The version stamp: starts at 1; each committed reconfiguration
  // increments it by one. A reader that sees the same version before and
  // after an observation knows no commit landed in between. Kept alongside
  // subscribe() — a one-shot stamp read is still the right tool for
  // bracketing an observation. Every reconfigurable consumer
  // (NetTokenBucket, QuotaHierarchy) reports its engine's stamp.
  std::uint64_t config_version() const noexcept {
    return version_.load(std::memory_order_acquire);
  }

  // Registers a callback fired after each commit completes (migration done,
  // version bumped), on the committing thread and under the commit lock —
  // so callbacks see a fully consistent new state, must stay cheap, and
  // must not re-enter commit()/subscribe() on the same engine. Callbacks
  // cannot be unregistered and must outlive the engine; distinct commits
  // are delivered in order with strictly increasing versions.
  void subscribe(CommitCallback on_commit) CNET_EXCLUDES(commit_mutex_) {
    CNET_REQUIRE(on_commit != nullptr, "null commit callback");
    const util::MutexLock lock(commit_mutex_);
    subscribers_.push_back(std::move(on_commit));
  }

  // Applies a staged state: publish, wait for reader quiescence, then run
  // `migrate(old_state, new_state)` against the quiescent old state (move
  // pool tokens, roll up telemetry — whatever the consumer's conservation
  // argument needs), retire the old state, and bump the version. Returns
  // the new version. Concurrent commits serialize; readers never wait. If
  // `migrate` throws, `next` stays published and the version stays put.
  template <class Migrate>
  std::uint64_t commit(std::unique_ptr<State> next, Migrate&& migrate)
      CNET_EXCLUDES(commit_mutex_) {
    CNET_REQUIRE(next != nullptr, "null staged state");
    const util::MutexLock lock(commit_mutex_);
    // Take ownership before publishing, so a throwing migrate cannot
    // unwind the published state out from under the readers.
    State* const old = current_.get();
    retired_.push_back(std::move(current_));
    current_ = std::move(next);
    State* const fresh = current_.get();
    active_.store(fresh, std::memory_order_seq_cst);
    for (std::size_t i = 0; i < lines_.size(); ++i) {
      while (lines_.line(i).field[kReaders].load(std::memory_order_seq_cst) !=
             0) {
        // sched_yield rather than std::this_thread::yield: under the
        // schedule checker this unbounded wait must deschedule the
        // committer until a reader makes a step, or the explorer's
        // continue-current default would spin here forever.
        util::sched_yield();
      }
    }
    migrate(*old, *fresh);
    const std::uint64_t version =
        version_.fetch_add(1, std::memory_order_acq_rel) + 1;
    // Notify under the commit lock: subscribers see commits in order with
    // strictly increasing versions, and never concurrently with the next
    // migration. The contract (subscribe() above) forbids
    // re-entering commit() from a callback.
    for (const auto& on_commit : subscribers_) on_commit(version);
    return version;
  }

  // Retired states, oldest first, for telemetry rollups. Only grows; safe
  // to call concurrently with readers but serializes against commits.
  std::size_t num_retired() const CNET_EXCLUDES(commit_mutex_) {
    const util::MutexLock lock(commit_mutex_);
    return retired_.size();
  }

 private:
  static constexpr std::size_t kReaders = 0;

  // util::Atomic on the reader counts and the active pointer: the
  // enter-RMW / publish / scan triangle *is* the protocol the checker
  // explores — every one of those operations must be a schedulable step.
  util::SlotArray<1 + Tallies> lines_;
  mutable util::Mutex commit_mutex_;
  std::unique_ptr<State> current_ CNET_GUARDED_BY(commit_mutex_);
  std::vector<std::unique_ptr<State>> retired_ CNET_GUARDED_BY(commit_mutex_);
  std::vector<CommitCallback> subscribers_ CNET_GUARDED_BY(commit_mutex_);
  util::Atomic<State*> active_;
  std::atomic<std::uint64_t> version_{1};
};

}  // namespace cnet::svc
