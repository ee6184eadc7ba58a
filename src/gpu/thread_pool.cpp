#include "gpu/thread_pool.h"

#include <pthread.h>

#include <cstdlib>
#include <new>

namespace gf::gpu {

namespace {
thread_local const thread_pool* tls_owner = nullptr;

// Bumped in the child of every fork().  Written only by the atfork child
// handler, while the child still has a single thread, so a plain integer
// is race-free (and the handler async-signal-safe).
unsigned process_generation = 0;

void on_fork_child() { ++process_generation; }
}  // namespace

thread_pool& thread_pool::instance() {
  static thread_pool pool(query_pool_size());
  return pool;
}

// Sizing hook kept out-of-line so tests can reason about it; honors
// GF_NUM_WORKERS for reproducible CI runs.
unsigned query_pool_size() {
  if (const char* env = std::getenv("GF_NUM_WORKERS")) {
    int v = std::atoi(env);
    if (v > 0) return static_cast<unsigned>(v);
  }
  unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

thread_pool::thread_pool(unsigned num_workers) {
  static const int atfork_registered =
      ::pthread_atfork(nullptr, nullptr, on_fork_child);
  (void)atfork_registered;
  fork_generation_ = process_generation;
  if (num_workers < 1) num_workers = 1;
  workers_.reserve(num_workers - 1);
  for (unsigned i = 1; i < num_workers; ++i)
    workers_.emplace_back([this, i] { worker_loop(i); });
}

thread_pool::~thread_pool() {
  if (forked()) {
    // The workers' threads do not exist in this process.  Joining them
    // would hang, and a joinable std::thread's destructor terminates; the
    // parent's parked workers still count as waiters on cv_start_, so
    // destroying it would wait for them forever; and a mutex may be held
    // by a thread that never returns.  Reuse the storage with fresh
    // objects so that member destruction calls into none of them.
    for (auto& t : workers_) new (&t) std::thread();
    new (&cv_start_) std::condition_variable();
    new (&cv_done_) std::condition_variable();
    new (&launch_mu_) std::mutex();
    new (&mu_) std::mutex();
    return;
  }
  {
    std::lock_guard lock(mu_);
    stop_ = true;
  }
  cv_start_.notify_all();
  for (auto& t : workers_) t.join();
}

bool thread_pool::in_worker() const { return tls_owner == this; }

bool thread_pool::forked() const {
  return fork_generation_ != process_generation;
}

void thread_pool::run_on_all(const std::function<void(unsigned)>& fn) {
  if (workers_.empty()) {
    fn(0);
    return;
  }
  // Top-level launches are exclusive: job_ / remaining_ / epoch_ describe
  // exactly one launch at a time.  Two independent non-worker threads (two
  // net::server event loops sharing the process pool, or a server plus a
  // caller-thread bulk build) used to double-book that state — workers from
  // both launches raced the same cursor, which is precisely what made
  // concurrent point-TCF slot placement schedule-dependent.  A contended
  // launch now degrades to inline serial execution of every worker id on
  // the caller (the same discipline nested launches already follow), so
  // exclusivity is never traded for a blocking wait that could stall an
  // event loop behind a long foreign launch.  A forked child takes the
  // same inline path without touching launch_mu_ at all: its workers are
  // gone, and the lock may be held by a thread that no longer exists.
  if (forked() || !launch_mu_.try_lock()) {
    const thread_pool* prev_inline = tls_owner;
    tls_owner = this;
    const unsigned p = size();
    for (unsigned w = 0; w < p; ++w) fn(w);
    tls_owner = prev_inline;
    return;
  }
  std::lock_guard launch_guard(launch_mu_, std::adopt_lock);
  {
    std::lock_guard lock(mu_);
    job_ = &fn;
    remaining_ = static_cast<unsigned>(workers_.size());
    ++epoch_;
  }
  cv_start_.notify_all();
  // The caller is worker 0 — mark it as such for the duration so that a
  // nested launch issued from inside fn executes inline, exactly like it
  // does on the spawned workers.  Without this, caller-side shard work
  // that launches (e.g. a per-shard bulk sort) would start a second
  // top-level launch while this one is in flight, double-booking job_ /
  // remaining_ (an unsigned underflow parks everyone forever).
  const thread_pool* prev = tls_owner;
  tls_owner = this;
  fn(0);
  tls_owner = prev;
  std::unique_lock lock(mu_);
  cv_done_.wait(lock, [&] { return remaining_ == 0; });
  job_ = nullptr;
}

void thread_pool::worker_loop(unsigned id) {
  tls_owner = this;
  uint64_t seen_epoch = 0;
  for (;;) {
    const std::function<void(unsigned)>* job = nullptr;
    {
      std::unique_lock lock(mu_);
      cv_start_.wait(lock, [&] { return stop_ || epoch_ != seen_epoch; });
      if (stop_) return;
      seen_epoch = epoch_;
      job = job_;
    }
    (*job)(id);
    {
      std::lock_guard lock(mu_);
      if (--remaining_ == 0) cv_done_.notify_all();
    }
  }
}

}  // namespace gf::gpu
