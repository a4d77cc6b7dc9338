// A standalone cooperative run-queue scheduler over unithreads.
//
// This is the library-level entry point for using unithreads directly
// (outside the MD simulator): spawn closures as unithreads, Yield() between
// them, Run() until all complete. The MD scheduler in src/sched/ implements
// the paper's dispatcher/worker architecture on top of the same context
// primitives; this class exists for library users, tests, and examples.

#ifndef ADIOS_SRC_UNITHREAD_COOPERATIVE_SCHEDULER_H_
#define ADIOS_SRC_UNITHREAD_COOPERATIVE_SCHEDULER_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>

#include "src/unithread/context.h"
#include "src/unithread/universal_stack.h"

namespace adios {

class CooperativeScheduler {
 public:
  explicit CooperativeScheduler(UnithreadPool::Options pool_options = {});
  ~CooperativeScheduler();

  CooperativeScheduler(const CooperativeScheduler&) = delete;
  CooperativeScheduler& operator=(const CooperativeScheduler&) = delete;

  // Queues `fn` to run as a unithread. Must not be called while the pool is
  // exhausted (checked). Safe to call from inside a running unithread.
  void Spawn(std::function<void()> fn);

  // Runs queued unithreads until all have finished. Must be called from the
  // host (non-unithread) context.
  void Run();

  // Cooperatively yields the calling unithread back to the scheduler; it is
  // requeued at the tail of the run queue. Must be called from a unithread.
  static void Yield();

  // The scheduler driving the calling unithread, or nullptr outside one.
  static CooperativeScheduler* Current();

  size_t pending() const { return ready_.size(); }
  uint64_t total_switches() const { return total_switches_; }

 private:
  struct Task {
    UnithreadBuffer buffer;
    std::function<void()> fn;
  };

  static void TaskEntry(void* arg);

  UnithreadPool pool_;
  std::deque<Task*> ready_;
  UnithreadContext host_ctx_;  // Storage for the host (Run caller) context.
  Task* running_ = nullptr;
  uint64_t total_switches_ = 0;
};

}  // namespace adios

#endif  // ADIOS_SRC_UNITHREAD_COOPERATIVE_SCHEDULER_H_
