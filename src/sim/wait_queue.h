// Blocking primitives for simulated actors.
//
// WaitQueue: FIFO sleep queue — fibers Wait() on it and are woken in order
// by NotifyOne/NotifyAll (optionally after a simulated wake-up delay, to
// model scheduler wake-up costs as in the DiLOS reclaimer discussion, §3.3).

#ifndef ADIOS_SRC_SIM_WAIT_QUEUE_H_
#define ADIOS_SRC_SIM_WAIT_QUEUE_H_

#include "src/base/annotations.h"
#include "src/base/fifo.h"
#include "src/sim/engine.h"

namespace adios {

class WaitQueue {
 public:
  explicit WaitQueue(Engine* engine) : engine_(engine) {}

  WaitQueue(const WaitQueue&) = delete;
  WaitQueue& operator=(const WaitQueue&) = delete;

  // Suspends the calling context until notified.
  ADIOS_MAY_SUSPEND void Wait() {
    waiters_.push_back(engine_->current_context());
    engine_->SuspendCurrent();
  }

  // Wakes the oldest waiter after `wake_delay`; returns false if none waited.
  // Never suspends the caller: safe to call with raw page-table state live.
  ADIOS_NO_SUSPEND bool NotifyOne(SimDuration wake_delay = 0) {
    if (waiters_.empty()) {
      return false;
    }
    UnithreadContext* ctx = waiters_.front();
    waiters_.pop_front();
    engine_->ResumeLater(ctx, wake_delay);
    return true;
  }

  ADIOS_NO_SUSPEND void NotifyAll(SimDuration wake_delay = 0) {
    while (NotifyOne(wake_delay)) {
    }
  }

  size_t waiter_count() const { return waiters_.size(); }

 private:
  Engine* engine_;
  Fifo<UnithreadContext*> waiters_;
};

}  // namespace adios

#endif  // ADIOS_SRC_SIM_WAIT_QUEUE_H_
