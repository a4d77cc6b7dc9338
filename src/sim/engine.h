// Discrete-event simulation engine with unithread-fiber integration.
//
// The engine owns a virtual clock (integer nanoseconds) and a deterministic
// event queue (ties broken by insertion order). Simulated actors — CPU core
// loops, the load generator, NIC engines — run as plain scheduled
// callbacks, as stackless *tasks* (C++20 coroutines), or as *fibers*: real
// unithread contexts that can suspend at a simulated time (`Wait`) or until
// another actor resumes them.
//
// Actor model: a stack is kept only for code that blocks in the middle of a
// computation it did not write as a coroutine. The workers are fibers: their
// stack is the parent each application unithread switches back to, and a
// fault handler deep inside application code Waits on the engine from its
// own unithread stack. The dispatcher and the reclaimer host no unithread,
// so they are SimTasks: each suspension (`co_await` on Engine::Sleep,
// CpuCore::Charge or a WaitQueue) queues a callback event that resumes the
// coroutine, at exactly the point where a fiber would queue its resume, so
// it takes the same sequence number and pops in the same place, but its
// wake-up costs a function call instead of a host stack switch.
//
// Event storage: every event lives in a slot of a chunked slab whose
// addresses never move, so a callback runs in place even when it schedules
// more events. A slot holds the callable in 48 bytes of inline storage (a
// larger capture falls back to the heap), or, for a *resume event*, just the
// UnithreadContext to switch to. Fired and cancelled slots return to a free
// list, so the slab stays as deep as the queue. An EventHandle names {slot,
// generation}; the generation moves on when the event fires or is
// cancelled, so a stale handle cannot touch a reused slot.
//
// The queue is a time wheel of 4096 one-nanosecond buckets covering
// [now, now + 4096). All events in a bucket share one instant, and each
// bucket is a FIFO chain threaded through the slots' `next_free` links, so
// push order is firing order within an instant. A 64-word occupancy bitmap
// plus one summary word finds the next non-empty bucket in O(1). Events 4096
// ns or more out wait in a small binary heap of 24-byte keys {when, seq,
// slot}, where `seq` is the insertion counter. The invariant that keeps the
// order exact: whenever the clock advances (an event pop, the RunUntil
// horizon exit, a next-in-line Wait), far events that entered the window
// move into their buckets in (when, seq) order *before* anything can push
// to those buckets directly. A far event is always older than any direct
// push to its instant, so each bucket stays in sequence order.
//
// Parked callables: Park() moves a callable into a slot without queueing
// it, and RunParked()/DropParked() later run or destroy it. FairLink parks
// each item's completion there, so its queues hold 16-byte PODs. When the
// item enters service, QueueParked() queues that same slot as the service
// event, with the link as its SlotOwner: the loop hands the popped slot to
// the owner, which runs it and starts the next item, so a link stage costs
// one slot. The engine owns every parked callable: its destructor drops
// those still parked, with the queued ones.
//
// Typed resumes: Wait(), ResumeLater() and a fiber's first run push a resume
// event that holds only the UnithreadContext to run, no callable. Popping it
// sets the context running and ends the loop's turn: the context that ran
// the loop switches to it (see Hand-off).
//
// Next-in-line fast path: a Wait(d) or a co_await Sleep(d) whose wake-up
// time is strictly earlier than every queued event, with no Stop() pending
// and inside the running RunUntil horizon, would be the very next event the
// loop pops. It returns without suspending: the clock advances, and the
// wake-up still takes a sequence number and counts in events_processed(),
// so event order and counts are exactly those of the suspended path. Both
// go through one helper, SkipToNextInLine().
//
// Hand-off: the event loop runs on whichever context yields. A Wait() or
// SuspendCurrent() that must block runs the loop itself, on its own stack:
// callbacks run in place until a resume event pops, and the yielding
// context switches straight to that resume's context, or just returns when
// the resume is its own, so each simulated wake-up costs one host switch.
// Main, where RunUntil() loops, is entered only when the loop ends (at the
// horizon, after Stop(), or on an empty queue) or when a fiber finishes.
// Because callbacks (and the tasks they resume) run on fiber and unithread
// stacks as well as main's, they must never block a stack: Wait(),
// SuspendCurrent() and the switch to main abort inside one. They also
// spend that stack's headroom, a 32 KiB unithread stack's included;
// InvariantChecker reports the deepest use (pool_stack_high_water).
//
// Context discipline: the engine tracks the currently executing context.
// Every switch site must go through RawSwitch() so the tracking stays
// correct; after any AdiosContextSwitch(from, to) returns, the code is
// executing as `from` again and current is restored to it. Application
// unithreads managed by the MD scheduler are entered from worker fibers with
// RawSwitch, so a fault handler deep inside application code can still
// Wait() on the engine and be resumed later.

#ifndef ADIOS_SRC_SIM_ENGINE_H_
#define ADIOS_SRC_SIM_ENGINE_H_

#include <algorithm>
#include <array>
#include <atomic>
#include <coroutine>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <new>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/base/annotations.h"
#include "src/base/check.h"
#include "src/base/time.h"
#include "src/check/stack_guard.h"
#include "src/unithread/context.h"

namespace adios {

class Engine;

// A simulated long-lived actor that needs its own real stack: a worker loop,
// the parent its application unithreads switch back to.
class Fiber {
 public:
  Fiber(Engine* engine, std::string name, std::function<void()> fn, size_t stack_bytes);

  Fiber(const Fiber&) = delete;
  Fiber& operator=(const Fiber&) = delete;

  UnithreadContext* ctx() { return &ctx_; }
  const std::string& name() const { return name_; }
  bool finished() const { return ctx_.finished(); }

 private:
  friend class Engine;
  static void Entry(void* arg);

  std::string name_;
  std::function<void()> fn_;
  GuardedStack stack_;  // Canary-guarded, 16-aligned, painted for HWM audits.
  UnithreadContext ctx_;
};

// A stackless simulated actor: a coroutine returning SimTask, which
// suspends only at `co_await` on Engine::Sleep, CpuCore::Charge or a
// WaitQueue. It is created suspended; Engine::Start queues its first run.
// SimTask owns the frame: destroying it frees the frame without resuming
// it, wherever the task is suspended (a WaitQueue or a queued event holds
// only the handle, and the engine never resumes a handle it drops).
class SimTask {
 public:
  struct promise_type {
    promise_type() { live_frames_.fetch_add(1, std::memory_order_relaxed); }
    ~promise_type() { live_frames_.fetch_sub(1, std::memory_order_relaxed); }

    SimTask get_return_object() {
      return SimTask(std::coroutine_handle<promise_type>::from_promise(*this));
    }
    std::suspend_always initial_suspend() noexcept { return {}; }
    std::suspend_always final_suspend() noexcept { return {}; }
    void return_void() {}
    void unhandled_exception() { std::terminate(); }
  };

  SimTask() = default;
  SimTask(SimTask&& other) noexcept : handle_(std::exchange(other.handle_, {})) {}
  SimTask& operator=(SimTask&& other) noexcept {
    if (this != &other) {
      Destroy();
      handle_ = std::exchange(other.handle_, {});
    }
    return *this;
  }
  ~SimTask() { Destroy(); }

  std::coroutine_handle<> handle() const { return handle_; }
  bool done() const { return handle_ && handle_.done(); }

  // Task frames alive in the process, for teardown audits.
  static size_t live_frames() { return live_frames_.load(std::memory_order_relaxed); }

 private:
  static inline std::atomic<size_t> live_frames_{0};

  explicit SimTask(std::coroutine_handle<promise_type> handle) : handle_(handle) {}
  void Destroy() {
    if (handle_) {
      handle_.destroy();
    }
  }

  std::coroutine_handle<promise_type> handle_;
};

// Receives a parked slot that QueueParked() queued, when it pops: the owner
// must run it with RunParked() (exactly once) and may queue more events.
class SlotOwner {
 public:
  virtual void RunSlot(uint32_t slot) = 0;

 protected:
  ~SlotOwner() = default;
};

class Engine {
 public:
  Engine();
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  SimTime now() const { return now_; }

  // --- Event API (usable from anywhere) ---
  //
  // `fn` is any callable invocable as fn(); it is moved (or copied) into the
  // event's slot and destroyed right after it runs.

  template <typename F>
  void Schedule(SimDuration delay, F&& fn) {
    ScheduleAt(now_ + delay, std::forward<F>(fn));
  }
  template <typename F>
  void ScheduleAt(SimTime when, F&& fn) {
    PushCallable(when, std::forward<F>(fn));
  }

  // Cancellable variant. Cancel() skips the event; once it fires or is
  // cancelled, pending() is false. Destroying (or overwriting) the handle
  // does not cancel anything: the event still fires. Cancel() and pending()
  // must not be called once the engine is destroyed.
  class EventHandle {
   public:
    EventHandle() = default;
    void Cancel() {
      if (pending()) {
        Slot& slot = engine_->SlotAt(slot_);
        slot.cancelled = true;
        ++slot.generation;
      }
    }
    bool pending() const {
      return engine_ != nullptr && engine_->SlotAt(slot_).generation == generation_;
    }

   private:
    friend class Engine;
    EventHandle(Engine* engine, uint32_t slot)
        : engine_(engine), slot_(slot), generation_(engine->SlotAt(slot).generation) {}

    Engine* engine_ = nullptr;
    uint32_t slot_ = 0;
    uint32_t generation_ = 0;
  };
  template <typename F>
  EventHandle ScheduleCancellable(SimDuration delay, F&& fn) {
    return EventHandle(this, PushCallable(now_ + delay, std::forward<F>(fn)));
  }

  // --- Parked callables ---
  //
  // Park() moves `fn` into an event slot without queueing it and returns the
  // slot. Exactly one RunParked() (runs it in place, then frees the slot) or
  // DropParked() (destroys it unrun) must follow, unless the engine is
  // destroyed first, which drops it. Parking takes no sequence number.
  template <typename F>
  uint32_t Park(F&& fn) {
    const uint32_t slot = AllocSlot();
    EmplaceCallable(SlotAt(slot), std::forward<F>(fn));
    return slot;
  }
  void RunParked(uint32_t slot) {
    Slot& s = SlotAt(slot);
    s.call(s);
    ReleaseSlot(slot);
  }
  void DropParked(uint32_t slot) {
    Slot& s = SlotAt(slot);
    if (s.drop != nullptr) {
      s.drop(s);
    }
    ReleaseSlot(slot);
  }

  // Queues parked `slot` to fire after `delay`; it takes the next sequence
  // number, like Schedule(). When it pops, the loop calls
  // owner->RunSlot(slot) instead of running the callable itself.
  void QueueParked(SimDuration delay, uint32_t slot, SlotOwner* owner) {
    SlotAt(slot).owner = owner;
    PushKey(now_ + delay, slot);
  }

  // True when a callable of type Fn fits a slot's inline storage, so
  // scheduling or parking it allocates nothing.
  static constexpr size_t kInlineBytes = 48;
  static constexpr size_t kInlineAlign = alignof(std::max_align_t);
  template <typename Fn>
  static constexpr bool kFitsInline = sizeof(Fn) <= kInlineBytes && alignof(Fn) <= kInlineAlign;

  // Runs events until the queue empties or Stop() is called.
  ADIOS_MAY_SUSPEND void Run();
  // Runs events with time <= until; leaves later events queued and sets
  // now() to `until` when the horizon is reached.
  ADIOS_MAY_SUSPEND void RunUntil(SimTime until);
  void Stop() { stopped_ = true; }

  // --- Task API ---

  // Queues `task`'s first run at the current time (the point where
  // SpawnFiber queues a fiber's first resume).
  void Start(SimTask& task) { ResumeLater(task.handle()); }

  // Queues a callback event that resumes `task` after `delay`: the event a
  // fiber's ResumeLater would queue, with the same sequence number. Must not
  // double-resume.
  ADIOS_NO_SUSPEND void ResumeLater(std::coroutine_handle<> task, SimDuration delay = 0) {
    PushTaskResume(now_ + delay, task);
  }

  // `co_await engine->Sleep(d)` suspends a task for `d` simulated time; it
  // does not suspend when the wake-up is next in line (see above).
  class [[nodiscard]] SleepAwaiter {
   public:
    bool await_ready() const { return engine_->SkipToNextInLine(when_); }
    void await_suspend(std::coroutine_handle<> task) const {
      engine_->PushTaskResume(when_, task);
    }
    void await_resume() const {}
    // The wake-up time. An awaiter that continues with more work before
    // resuming its task queues its own callback here instead of
    // await_suspend's resume; the push takes the same sequence number.
    SimTime when() const { return when_; }

   private:
    friend class Engine;
    SleepAwaiter(Engine* engine, SimTime when) : engine_(engine), when_(when) {}

    Engine* engine_;
    SimTime when_;
  };
  SleepAwaiter Sleep(SimDuration d) { return SleepAwaiter(this, now_ + d); }

  // --- Fiber API ---

  // Creates a fiber and schedules its first run at the current time.
  Fiber* SpawnFiber(std::string name, std::function<void()> fn,
                    size_t stack_bytes = kDefaultFiberStack);

  // From inside any engine-managed context: suspend for `d` simulated time.
  // Returns without switching when the wake-up is next in line (see above).
  ADIOS_MAY_SUSPEND void Wait(SimDuration d);

  // From inside any engine-managed context: suspend until resumed.
  ADIOS_MAY_SUSPEND void SuspendCurrent();

  // Schedules `ctx` to resume after `delay`. Must not double-resume. Never
  // suspends the *caller*: the switch happens when the resume event pops, on
  // whichever context is running the loop.
  ADIOS_NO_SUSPEND void ResumeLater(UnithreadContext* ctx, SimDuration delay = 0) {
    ADIOS_DCHECK(ctx != nullptr);
    PushResume(now_ + delay, ctx);
  }

  // Low-level switch that keeps current-context tracking coherent. `from`
  // must be the currently executing context.
  ADIOS_MAY_SUSPEND void RawSwitch(UnithreadContext* from, UnithreadContext* to) {
    ADIOS_DCHECK(from == current_);
    ++context_switches_;
    current_ = to;
    AdiosTrackedContextSwitch(from, to);
    current_ = from;
  }

  UnithreadContext* current_context() { return current_; }
  UnithreadContext* main_context() { return &main_ctx_; }
  bool on_main() const { return current_ == &main_ctx_; }

  // True for contexts participating in the engine's current-context
  // protocol: the main context and every fiber context. The switch-
  // discipline checker (src/check/) flags direct AdiosContextSwitch calls
  // on these. Linear in fiber count; audit-path only.
  bool IsTrackedContext(const UnithreadContext* ctx) const;

  // Canary + high-water-mark audit over all fiber stacks.
  struct StackAuditResult {
    size_t fibers = 0;
    size_t canary_violations = 0;
    size_t max_high_water = 0;  // Deepest stack usage seen, in bytes.
  };
  StackAuditResult AuditStacks() const;

  uint64_t events_processed() const { return events_processed_; }
  // Host context switches made through RawSwitch(), the engine's own
  // included; a fiber's finish returns to main outside this count.
  uint64_t context_switches() const { return context_switches_; }
  // Slots the event slab has ever allocated: a bound on the queue's
  // high-water depth, cancelled-but-unpopped events included.
  size_t slab_slots() const { return chunks_.size() << kChunkShift; }

  static constexpr size_t kDefaultFiberStack = 256 * 1024;

 private:
  // The loop body: pops events in order, running callbacks and dropping
  // cancelled slots in place, up to the first resume event, whose context
  // it returns set running. Null at the horizon, after Stop(), or on an
  // empty queue.
  UnithreadContext* RunToNextResume();
  // Gives up the CPU from `self`, already blocked: runs the loop on this
  // stack and switches to the next resume's context, to main when the loop
  // ends, or nowhere when the next resume is `self`'s own.
  ADIOS_MAY_SUSPEND void HandOff(UnithreadContext* self);
  // The next-in-line fast path shared by Wait() and Sleep(): when a wake-up
  // at `when` would be the very next event popped, advances the clock to
  // it, accounts for the skipped resume event (sequence number, event
  // count) and returns true.
  bool SkipToNextInLine(SimTime when) {
    if (!running_ || stopped_ || when > until_ || when >= NextWhen()) {
      return false;
    }
    ++next_seq_;
    AdvanceTo(when);
    ++events_processed_;
    return true;
  }
  // Tracked switch back to main (the RunUntil caller's context).
  ADIOS_MAY_SUSPEND void SwitchToMain() {
    ADIOS_CHECK(!in_callback_);
    ADIOS_CHECK(!on_main());
    RawSwitch(current_, &main_ctx_);
  }

  static constexpr uint32_t kNoSlot = ~0u;
  static constexpr uint32_t kChunkShift = 8;  // 256 slots per slab chunk.
  static constexpr uint32_t kChunkMask = (1u << kChunkShift) - 1;
  static constexpr uint32_t kWheelSlots = 4096;  // One-nanosecond buckets.
  static constexpr uint32_t kWheelMask = kWheelSlots - 1;
  static constexpr uint32_t kWheelWords = kWheelSlots / 64;
  static_assert(kWheelWords == 64, "one summary word covers the occupancy bitmap");

  // One event slot. A queued slot holds exactly one of `call` (a callback)
  // and `resume` (a typed resume); a parked slot holds a callback, and
  // `owner` when QueueParked() queued it.
  struct Slot {
    alignas(kInlineAlign) std::byte storage[kInlineBytes];
    void (*call)(Slot&);  // Runs the callable, then destroys it.
    void (*drop)(Slot&);  // Destroys it unrun; null for a no-op or a free slot.
    UnithreadContext* resume;
    SlotOwner* owner;
    uint32_t generation;
    uint32_t next_free;  // Free-list link, or the next slot in a wheel bucket.
    bool cancelled;
  };
  static_assert(sizeof(Slot) == 96, "`owner` fits the slot's padding");

  // A far-heap key; `seq` is the insertion counter that breaks time ties.
  struct FarKey {
    SimTime when;
    uint64_t seq;
    uint32_t slot;
  };
  static_assert(sizeof(FarKey) == 24, "far-heap keys stay 24-byte PODs");

  // The far heap is a std max-heap under this order, so its front is the
  // earliest key; keys are unique, so the pop order is fully determined.
  static bool Later(const FarKey& a, const FarKey& b) {
    return a.when != b.when ? a.when > b.when : a.seq > b.seq;
  }

  // A wheel bucket's FIFO chain; meaningful only while its occupancy bit is
  // set.
  struct Bucket {
    uint32_t head;
    uint32_t tail;
  };

  template <typename Fn>
  static Fn& Inline(Slot& s) {
    return *std::launder(reinterpret_cast<Fn*>(s.storage));
  }
  template <typename Fn>
  static Fn*& Boxed(Slot& s) {
    return *std::launder(reinterpret_cast<Fn**>(s.storage));
  }

  template <typename F>
  static void EmplaceCallable(Slot& s, F&& fn) {
    using Fn = std::decay_t<F>;
    static_assert(std::is_invocable_r_v<void, Fn&>, "events are invocable as fn()");
    if constexpr (kFitsInline<Fn>) {
      ::new (static_cast<void*>(s.storage)) Fn(std::forward<F>(fn));
      s.call = [](Slot& slot) {
        Fn& f = Inline<Fn>(slot);
        f();
        f.~Fn();
      };
      if constexpr (std::is_trivially_destructible_v<Fn>) {
        s.drop = nullptr;
      } else {
        s.drop = [](Slot& slot) { Inline<Fn>(slot).~Fn(); };
      }
    } else {
      ::new (static_cast<void*>(s.storage)) Fn*(new Fn(std::forward<F>(fn)));
      s.call = [](Slot& slot) {
        Fn* f = Boxed<Fn>(slot);
        (*f)();
        delete f;
      };
      s.drop = [](Slot& slot) { delete Boxed<Fn>(slot); };
    }
  }

  template <typename F>
  uint32_t PushCallable(SimTime when, F&& fn) {
    ADIOS_DCHECK(when >= now_);
    const uint32_t slot = AllocSlot();
    EmplaceCallable(SlotAt(slot), std::forward<F>(fn));
    PushKey(when, slot);
    return slot;
  }

  Slot& SlotAt(uint32_t slot) { return chunks_[slot >> kChunkShift][slot & kChunkMask]; }
  const Slot& SlotAt(uint32_t slot) const {
    return chunks_[slot >> kChunkShift][slot & kChunkMask];
  }

  // Takes a slot off the free list, growing the slab by a chunk when it is
  // empty.
  uint32_t AllocSlot() {
    if (free_head_ == kNoSlot) {
      GrowSlab();
    }
    const uint32_t slot = free_head_;
    Slot& s = SlotAt(slot);
    free_head_ = s.next_free;
    s.resume = nullptr;
    s.owner = nullptr;
    s.cancelled = false;
    return slot;
  }
  // A free slot's `drop` is null, so the destructor can sweep the slab.
  void ReleaseSlot(uint32_t slot) {
    Slot& s = SlotAt(slot);
    s.drop = nullptr;
    s.next_free = free_head_;
    free_head_ = slot;
  }
  void GrowSlab();

  // Queues `slot` at `when`; it takes the next sequence number.
  void PushKey(SimTime when, uint32_t slot) {
    const uint64_t seq = next_seq_++;
    if (when - now_ < kWheelSlots) {
      WheelAppend(static_cast<uint32_t>(when) & kWheelMask, slot);
    } else {
      far_.push_back(FarKey{when, seq, slot});
      std::push_heap(far_.begin(), far_.end(), Later);
    }
  }
  void PushTaskResume(SimTime when, std::coroutine_handle<> task) {
    PushCallable(when, [task] { task.resume(); });
  }
  void PushResume(SimTime when, UnithreadContext* ctx) {
    const uint32_t slot = AllocSlot();
    Slot& s = SlotAt(slot);
    s.call = nullptr;
    s.drop = nullptr;
    s.resume = ctx;
    PushKey(when, slot);
  }

  void WheelAppend(uint32_t bucket, uint32_t slot) {
    uint64_t& word = occupied_[bucket >> 6];
    const uint64_t bit = uint64_t{1} << (bucket & 63);
    Bucket& b = buckets_[bucket];
    if ((word & bit) != 0) {
      SlotAt(b.tail).next_free = slot;
      b.tail = slot;
    } else {
      b.head = slot;
      b.tail = slot;
      word |= bit;
      summary_ |= uint64_t{1} << (bucket >> 6);
    }
  }
  uint32_t WheelPop(uint32_t bucket) {
    Bucket& b = buckets_[bucket];
    const uint32_t slot = b.head;
    if (slot != b.tail) {
      b.head = SlotAt(slot).next_free;
      return slot;
    }
    uint64_t& word = occupied_[bucket >> 6];
    word &= ~(uint64_t{1} << (bucket & 63));
    if (word == 0) {
      summary_ &= ~(uint64_t{1} << (bucket >> 6));
    }
    return slot;
  }
  // The bucket of the earliest wheel event: the first occupied one at or
  // after now()'s, wrapping around. Requires a non-empty wheel.
  uint32_t NextBucket() const {
    const uint32_t start = static_cast<uint32_t>(now_) & kWheelMask;
    const uint32_t w = start >> 6;
    const uint64_t here = occupied_[w] & (~uint64_t{0} << (start & 63));
    if (here != 0) {
      return (w << 6) | static_cast<uint32_t>(__builtin_ctzll(here));
    }
    const uint64_t later = summary_ & (~uint64_t{1} << w);
    const auto nw = static_cast<uint32_t>(__builtin_ctzll(later != 0 ? later : summary_));
    return (nw << 6) | static_cast<uint32_t>(__builtin_ctzll(occupied_[nw]));
  }
  // Every wheel event lies in [now, now + kWheelSlots).
  SimTime BucketTime(uint32_t bucket) const {
    return now_ + ((bucket - static_cast<uint32_t>(now_)) & kWheelMask);
  }
  // Time of the earliest queued event, cancelled ones included; ~0 when the
  // queue is empty. Wheel events all precede far ones.
  SimTime NextWhen() const {
    if (summary_ != 0) {
      return BucketTime(NextBucket());
    }
    return far_.empty() ? ~SimTime{0} : far_.front().when;
  }
  // Moves the clock to `t`, then moves far events that entered the window
  // into their buckets in (when, seq) order: before anything else can push
  // to those buckets, so each bucket stays in sequence order.
  void AdvanceTo(SimTime t) {
    ADIOS_DCHECK(t >= now_);
    now_ = t;
    while (!far_.empty() && far_.front().when - t < kWheelSlots) {
      const FarKey key = far_.front();
      std::pop_heap(far_.begin(), far_.end(), Later);
      far_.pop_back();
      WheelAppend(static_cast<uint32_t>(key.when) & kWheelMask, key.slot);
    }
  }

  SimTime now_ = 0;
  uint64_t next_seq_ = 0;
  uint64_t events_processed_ = 0;
  uint64_t context_switches_ = 0;
  bool stopped_ = false;
  bool running_ = false;
  bool in_callback_ = false;  // A queued callback is running.
  SimTime until_ = 0;  // Horizon of the running RunUntil.
  std::vector<std::unique_ptr<Slot[]>> chunks_;
  uint64_t summary_ = 0;                          // Bit w: occupied_[w] != 0.
  std::array<uint64_t, kWheelWords> occupied_{};  // Bit b: bucket b is non-empty.
  std::array<Bucket, kWheelSlots> buckets_;
  std::vector<FarKey> far_;  // Heap on (when, seq), earliest first.
  uint32_t free_head_ = kNoSlot;
  UnithreadContext main_ctx_;
  UnithreadContext* current_ = &main_ctx_;
  std::vector<std::unique_ptr<Fiber>> fibers_;
};

}  // namespace adios

#endif  // ADIOS_SRC_SIM_ENGINE_H_
