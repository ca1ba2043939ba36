#include "runtime/process_session.h"

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "dist/session_detail.h"
#include "dist/worker.h"
#include "nn/zoo.h"
#include "runtime/reliable.h"
#include "runtime/socket_transport.h"
#include "runtime/topology.h"
#include "util/check.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace sidco::runtime {

namespace {

using dist::SessionConfig;
using dist::SessionResult;
using dist::Worker;

SocketTransport::Family family_from_env() {
  const char* env = std::getenv("SIDCO_SOCKET_FAMILY");
  if (env == nullptr || std::strcmp(env, "unix") == 0) {
    return SocketTransport::Family::kUnix;
  }
  if (std::strcmp(env, "tcp") == 0) return SocketTransport::Family::kTcp;
  util::check_fail(std::string("SIDCO_SOCKET_FAMILY must be \"unix\" or "
                               "\"tcp\", got \"") +
                   env + "\"");
  return SocketTransport::Family::kUnix;
}

/// Narrows the process-wide ThreadPool to a single thread (joining every
/// pool worker) for the lifetime of the scope.  fork() only duplicates the
/// calling thread; forking with live pool workers would leave children with
/// a pool whose threads do not exist but whose locks might be held.  The
/// pool contract keeps numerics bit-identical at any width, so this cannot
/// perturb results.
class SingleThreadScope {
 public:
  SingleThreadScope() : saved_(util::ThreadPool::instance().threads()) {
    util::ThreadPool::instance().set_threads(1);
  }
  ~SingleThreadScope() { util::ThreadPool::instance().set_threads(saved_); }

  SingleThreadScope(const SingleThreadScope&) = delete;
  SingleThreadScope& operator=(const SingleThreadScope&) = delete;

 private:
  int saved_;
};

/// Child-side session body.  Never returns: a forked child must not unwind
/// into the duplicated caller stack (gtest would re-report the parent's
/// tests), so every path ends in _exit().
[[noreturn]] void run_child(const SessionConfig& config,
                            SocketTransport& transport, std::size_t w,
                            bool ps, std::span<const float> initial) {
  Endpoint* endpoint = nullptr;
  DecoratedEndpoint chaos;  // outlives the catch block's kError path
  try {
    transport.forget_other_listeners(w);
    // Workers always fail fast on a confirmed-dead peer: eviction is the
    // server's call, and a worker whose server died has nothing left to do.
    chaos.wrap(config, w, transport.establish(w),
               /*deliver_peer_death=*/false);
    endpoint = &chaos.get();
    const std::unique_ptr<Worker> worker =
        dist::detail::make_worker(config, w, initial);
    if (ps) {
      topo::run_ps_worker(config, w, *worker, *endpoint);
    } else {
      topo::run_collective_worker(config, w, *worker, *endpoint);
    }
    // The protocol body may return with its final frames (kDone, a last
    // push) still in the bounded send queue; _exit-ing now would lose them
    // and strand the peers waiting.  Drain before going quiet.
    endpoint->flush();
    std::fflush(nullptr);
    ::_exit(0);
  } catch (const topo::AbortedError&) {
    // Transport closed under us — the originating failure is elsewhere.
    ::_exit(1);
  } catch (...) {
    // Best-effort kError to the parent: it carries the real failure text
    // across the process boundary (the exit status alone cannot).
    std::string text = "unknown error";
    try {
      throw;
    } catch (const std::exception& e) {
      text = e.what();
    } catch (...) {
    }
    // Also to stderr: the kError frame is lost exactly when the transport is
    // the thing that failed, and "exited abnormally" alone is undebuggable.
    std::fprintf(stderr, "[sidco worker %zu] %s\n", w, text.c_str());
    if (endpoint != nullptr) {
      try {
        endpoint->send(
            config.workers,
            {.kind = topo::kErrorKind,
             .from = w,
             .seq = 0,
             .payload = std::make_shared<const std::vector<std::uint8_t>>(
                 text.begin(), text.end())});
        endpoint->flush();  // the kError is useless stuck in the queue
      } catch (...) {
      }
    }
    ::_exit(1);
  }
}

}  // namespace

SessionResult run_session_processes(const SessionConfig& config) {
  dist::detail::validate_config(config);
  const std::size_t n = config.workers;
  const bool ps = config.topology == dist::Topology::kParameterServer;

  SessionResult result;
  result.config = config;

  // The session's one seeded model, built in the parent: its parameters pin
  // the gradient dimension, seed the PS server, and every forked child
  // builds its replica from them instead of drawing the model again.
  std::vector<float> init_params;
  {
    const nn::Model seeded = nn::make_model(config.benchmark, config.seed);
    const std::span<const float> init = seeded.parameters();
    init_params.assign(init.begin(), init.end());
  }
  const std::size_t dim = init_params.size();
  result.gradient_dimension = dim;

  SocketTransport transport(n + 1, config.channel_capacity,
                            family_from_env());
  // Chaos/robustness knobs land in the rendezvous before the first fork so
  // every child inherits them.
  if (const auto deadline = session_deadline(config)) {
    transport.set_deadline(*deadline);
  }
  if (reliable_enabled(config)) transport.set_link_recovery(true);
  if (config.fault.cut_from != dist::FaultInjectionConfig::kNone) {
    transport.set_link_cut(config.fault.cut_from, config.fault.cut_to,
                           config.fault.cut_after);
  }

  // Pool narrowed and stdio flushed before the first fork.
  SingleThreadScope single_thread;
  std::fflush(nullptr);

  util::Timer wall;
  std::vector<pid_t> children(n, -1);
  for (std::size_t w = 0; w < n; ++w) {
    const pid_t pid = ::fork();
    if (pid < 0) {
      transport.shutdown();
      for (std::size_t k = 0; k < w; ++k) ::kill(children[k], SIGKILL);
      for (std::size_t k = 0; k < w; ++k) {
        int status = 0;
        while (::waitpid(children[k], &status, 0) < 0 && errno == EINTR) {
        }
      }
      util::check_fail(std::string("sockets engine: fork failed: ") +
                       std::strerror(errno));
    }
    if (pid == 0) {
      run_child(config, transport, w, ps, init_params);  // never returns
    }
    children[w] = pid;
  }
  // Each child keeps only its own listener; with the parent dropping the
  // rest too, a child that dies closes the last fd of its listener and every
  // pending handshake against it fails fast instead of hanging.
  transport.forget_other_listeners(n);

  std::vector<topo::MeasuredSeconds> measured;
  std::exception_ptr error;
  bool aborted = false;
  const bool evict = config.on_worker_failure == dist::FailurePolicy::kEvict;
  DecoratedEndpoint chaos;
  try {
    chaos.wrap(config, n, transport.establish(n),
               /*deliver_peer_death=*/evict && ps);
    Endpoint& endpoint = chaos.get();
    if (ps) {
      topo::run_ps_server(config, init_params, dim, endpoint, result,
                          measured);
    } else {
      topo::run_collective_coordinator(config, dim, endpoint, result,
                                       measured);
    }
    endpoint.flush();  // reliable drain + bye fence, then queued tail frames
    result.fault_counters += endpoint.counters();
  } catch (const topo::AbortedError&) {
    aborted = true;
  } catch (...) {
    error = std::current_exception();
  }
  if (aborted || error) {
    // The session is already lost; reap deterministically rather than wait
    // on children that may be blocked mid-protocol.
    transport.shutdown();
    for (const pid_t pid : children) ::kill(pid, SIGKILL);
  } else {
    // The parent's obligations ended with the bye fence above; go EOF, not
    // merely quiet, before reaping.  A worker can still be draining
    // late-released tail frames at us (a fault schedule's held duplicate of
    // a large frame, say) — against a closed socket it gets EPIPE and
    // discards them, while a deaf-but-open parent socket would wedge that
    // worker's final flush until the watchdog deadline.
    transport.shutdown();
  }

  // An evicted worker's process is expected to die abnormally (that was the
  // fault being tested); make sure it actually terminates — it could be
  // wedged retransmitting into a partition — and exclude it from the
  // clean-exit audit below.
  std::vector<bool> evicted(n, false);
  for (const dist::Eviction& e : result.evictions) {
    if (e.worker < n) {
      evicted[e.worker] = true;
      ::kill(children[e.worker], SIGKILL);
    }
  }

  std::size_t first_bad_child = n;
  int first_bad_status = 0;
  for (std::size_t w = 0; w < n; ++w) {
    int status = 0;
    while (::waitpid(children[w], &status, 0) < 0 && errno == EINTR) {
    }
    if (evicted[w]) continue;
    const bool clean = WIFEXITED(status) && WEXITSTATUS(status) == 0;
    if (!clean && first_bad_child == n) {
      first_bad_child = w;
      first_bad_status = status;
    }
  }
  if (error) std::rethrow_exception(error);
  if (aborted) {
    util::check_fail(
        "sockets engine: transport closed before the session completed "
        "(worker process " +
        (first_bad_child < n ? std::to_string(first_bad_child)
                             : std::string("?")) +
        " exited abnormally)");
  }
  if (first_bad_child < n) {
    util::check_fail("sockets engine: worker process " +
                     std::to_string(first_bad_child) +
                     " exited abnormally (status " +
                     std::to_string(first_bad_status) + ")");
  }

  dist::detail::finalize_result(result);
  topo::fill_measured(result, wall, measured);
  return result;
}

}  // namespace sidco::runtime
