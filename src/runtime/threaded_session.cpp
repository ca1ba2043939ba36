#include "runtime/threaded_session.h"

#include <atomic>
#include <exception>
#include <memory>
#include <optional>
#include <span>
#include <thread>
#include <vector>

#include "dist/session_detail.h"
#include "dist/worker.h"
#include "runtime/reliable.h"
#include "runtime/topology.h"
#include "runtime/transport.h"
#include "util/timer.h"

namespace sidco::runtime {

namespace {

using dist::SessionConfig;
using dist::SessionResult;
using dist::Worker;

/// Per-thread error collection: worker threads never let an exception
/// escape; the coordinator rethrows the first one after joining.
class ErrorSink {
 public:
  explicit ErrorSink(std::size_t slots) : errors_(slots) {}

  /// Runs `body`, capturing any exception into this thread's slot and
  /// flagging the session as failed.  topo::AbortedError is not an error:
  /// it is cooperative shutdown, and the originating error lives in another
  /// thread's slot.
  template <typename Body>
  void guard(std::size_t slot, Body&& body) {
    try {
      body();
    } catch (const topo::AbortedError&) {
    } catch (...) {
      errors_[slot] = std::current_exception();
      failed_.store(true, std::memory_order_release);
    }
  }

  [[nodiscard]] bool failed() const {
    return failed_.load(std::memory_order_acquire);
  }

  /// First captured error in slot order (call after joining all threads).
  /// Slots flagged in `skip` are ignored: an evicted worker's own death
  /// throes (its reliable layer giving up on the server) are an expected
  /// consequence of the fault being tested, not a session failure.
  void rethrow_if_any(const std::vector<bool>& skip = {}) const {
    for (std::size_t i = 0; i < errors_.size(); ++i) {
      if (i < skip.size() && skip[i]) continue;
      if (errors_[i]) std::rethrow_exception(errors_[i]);
    }
  }

 private:
  std::vector<std::exception_ptr> errors_;
  std::atomic<bool> failed_{false};
};

}  // namespace

/// Runs the topology bodies (runtime/topology.h) with every worker on a real
/// std::thread and the coordinator/server body on the calling thread, all
/// wired through one InMemoryTransport (endpoint n = coordinator).  The
/// protocol code itself is shared with the sockets engine verbatim.
SessionResult run_session_threads(const SessionConfig& config) {
  dist::detail::validate_config(config);
  std::vector<std::unique_ptr<Worker>> workers =
      dist::detail::make_workers(config);

  SessionResult result;
  result.config = config;
  const std::size_t dim = workers.front()->gradient_dimension();
  result.gradient_dimension = dim;

  const std::size_t n = config.workers;
  const bool ps = config.topology == dist::Topology::kParameterServer;
  std::vector<float> init_params;
  if (ps) {
    const std::span<const float> init = workers.front()->parameters();
    init_params.assign(init.begin(), init.end());
  }

  InMemoryTransport transport(n + 1, config.channel_capacity);
  if (const auto deadline = session_deadline(config)) {
    transport.set_deadline(*deadline);
  }

  // Chaos decorator stacks (single-threaded construction, before any
  // participant starts), the same as the sockets engine's.  Every decorated
  // endpoint stays single-owner.  Only the server endpoint turns peer death
  // into an eviction notice; everyone else fails fast (their errors are
  // skipped at rethrow when the worker was evicted).
  const bool evict = config.on_worker_failure == dist::FailurePolicy::kEvict;
  std::vector<DecoratedEndpoint> eps(n + 1);
  for (std::size_t id = 0; id <= n; ++id) {
    eps[id].wrap(config, id, transport.endpoint(id),
                 /*deliver_peer_death=*/evict && id == n);
  }

  std::vector<topo::MeasuredSeconds> measured;
  ErrorSink errors(n + 1);  // slot n belongs to the coordinator
  util::Timer wall;

  std::vector<std::thread> threads;
  threads.reserve(n);
  for (std::size_t w = 0; w < n; ++w) {
    threads.emplace_back([&, w] {
      errors.guard(w, [&] {
        if (ps) {
          topo::run_ps_worker(config, w, *workers[w], eps[w].get());
        } else {
          topo::run_collective_worker(config, w, *workers[w], eps[w].get());
        }
        // The reliable layer must drain its window and fence the link (bye)
        // before this thread goes quiet — inside the guard, because a dead
        // peer during the drain is a real error.
        eps[w].get().flush();
      });
      // This thread is done with its endpoint for good; close the inbox so
      // peers flushing late tail frames at it (a fault schedule's held
      // duplicates, say) fail fast instead of blocking on a full channel
      // nobody will ever drain again — the in-memory analog of a clean
      // process exit closing its sockets.
      transport.close_endpoint(w);
      // A failing worker must wake the coordinator and its peers, or they
      // would block forever on links nobody feeds.  Under the evict policy a
      // worker failure is survivable by design — the server detects the
      // death itself and the session must keep running.
      if (errors.failed() && !evict) transport.shutdown();
    });
  }

  errors.guard(n, [&] {
    if (ps) {
      topo::run_ps_server(config, init_params, dim, eps[n].get(), result,
                          measured);
    } else {
      topo::run_collective_coordinator(config, dim, eps[n].get(), result,
                                       measured);
    }
    eps[n].get().flush();
  });

  transport.shutdown();
  for (std::thread& t : threads) t.join();
  std::vector<bool> evicted(n + 1, false);
  for (const dist::Eviction& e : result.evictions) evicted[e.worker] = true;
  errors.rethrow_if_any(evicted);

  result.fault_counters += eps[n].get().counters();
  dist::detail::finalize_result(result);
  topo::fill_measured(result, wall, measured);
  return result;
}

}  // namespace sidco::runtime
