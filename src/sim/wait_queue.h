// Blocking primitives for simulated actors.
//
// WaitQueue: FIFO sleep queue — fibers Wait() on it, tasks `co_await` it,
// and both are woken in order by NotifyOne/NotifyAll (optionally after a
// simulated wake-up delay, to model scheduler wake-up costs as in the DiLOS
// reclaimer discussion, §3.3). A wake-up queues the waiter's resume event
// at the same point for either kind, so one queue can mix them.

#ifndef ADIOS_SRC_SIM_WAIT_QUEUE_H_
#define ADIOS_SRC_SIM_WAIT_QUEUE_H_

#include <coroutine>

#include "src/base/annotations.h"
#include "src/base/fifo.h"
#include "src/sim/engine.h"

namespace adios {

class WaitQueue {
 public:
  explicit WaitQueue(Engine* engine) : engine_(engine) {}

  WaitQueue(const WaitQueue&) = delete;
  WaitQueue& operator=(const WaitQueue&) = delete;

  // Suspends the calling fiber context until notified.
  ADIOS_MAY_SUSPEND void Wait() {
    waiters_.push_back(Waiter{engine_->current_context(), {}});
    engine_->SuspendCurrent();
  }

  // `co_await queue` suspends the calling task until notified.
  class [[nodiscard]] Awaiter {
   public:
    bool await_ready() const { return false; }
    void await_suspend(std::coroutine_handle<> task) const {
      queue_->waiters_.push_back(Waiter{nullptr, task});
    }
    void await_resume() const {}

   private:
    friend class WaitQueue;
    explicit Awaiter(WaitQueue* queue) : queue_(queue) {}

    WaitQueue* queue_;
  };
  Awaiter operator co_await() { return Awaiter(this); }

  // Wakes the oldest waiter after `wake_delay`; returns false if none waited.
  // Never suspends the caller: safe to call with raw page-table state live.
  ADIOS_NO_SUSPEND bool NotifyOne(SimDuration wake_delay = 0) {
    if (waiters_.empty()) {
      return false;
    }
    const Waiter w = waiters_.front();
    waiters_.pop_front();
    if (w.ctx != nullptr) {
      engine_->ResumeLater(w.ctx, wake_delay);
    } else {
      engine_->ResumeLater(w.task, wake_delay);
    }
    return true;
  }

  ADIOS_NO_SUSPEND void NotifyAll(SimDuration wake_delay = 0) {
    while (NotifyOne(wake_delay)) {
    }
  }

  size_t waiter_count() const { return waiters_.size(); }

 private:
  // A fiber context, or (ctx null) a task's handle.
  struct Waiter {
    UnithreadContext* ctx;
    std::coroutine_handle<> task;
  };

  Engine* engine_;
  Fifo<Waiter> waiters_;
};

}  // namespace adios

#endif  // ADIOS_SRC_SIM_WAIT_QUEUE_H_
