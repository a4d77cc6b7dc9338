#include "src/sim/engine.h"

namespace adios {

Fiber::Fiber(Engine* engine, std::string name, std::function<void()> fn, size_t stack_bytes)
    : name_(std::move(name)),
      fn_(std::move(fn)),
      // Fibers are few and long-lived, so always paint for high-water marks.
      stack_((stack_bytes + 15) & ~static_cast<size_t>(15), /*paint=*/true) {
  ADIOS_CHECK_GE(stack_bytes, 4096u);
  ctx_.Reset(stack_.data(), stack_.size(), &Fiber::Entry, this, engine->main_context());
}

void Fiber::Entry(void* arg) {
  auto* fiber = static_cast<Fiber*>(arg);
  fiber->fn_();
}

Engine::Engine() = default;

// Queued and parked callables own their captures (a heap-fallback capture
// owns heap memory), so every live slot is dropped here, cancelled ones
// included; a free slot's `drop` is null.
Engine::~Engine() {
  for (const auto& chunk : chunks_) {
    for (uint32_t i = 0; i <= kChunkMask; ++i) {
      Slot& s = chunk[i];
      if (s.drop != nullptr) {
        s.drop(s);
      }
    }
  }
}

void Engine::GrowSlab() {
  const auto base = static_cast<uint32_t>(slab_slots());
  const uint32_t n = kChunkMask + 1;
  chunks_.push_back(std::make_unique_for_overwrite<Slot[]>(n));
  Slot* chunk = chunks_.back().get();
  for (uint32_t i = 0; i < n; ++i) {
    chunk[i].drop = nullptr;
    chunk[i].generation = 0;
    chunk[i].next_free = i + 1 < n ? base + i + 1 : kNoSlot;
  }
  free_head_ = base;
}

void Engine::Run() { RunUntil(~0ull); }

void Engine::RunUntil(SimTime until) {
  ADIOS_CHECK(on_main());
  ADIOS_CHECK(!running_);
  running_ = true;
  stopped_ = false;
  until_ = until;
  while (UnithreadContext* ctx = RunToNextResume()) {
    RawSwitch(&main_ctx_, ctx);
  }
  // A bounded run ends with the clock at the horizon, but never past a
  // queued event (a Stop() can leave some before the horizon).
  if (until != ~0ull) {
    const SimTime next = NextWhen();
    const SimTime end = next < until ? next : until;
    if (end > now_) {
      AdvanceTo(end);
    }
  }
  running_ = false;
}

UnithreadContext* Engine::RunToNextResume() {
  while (!stopped_) {
    SimTime when = 0;
    if (summary_ != 0) {
      when = BucketTime(NextBucket());
    } else if (!far_.empty()) {
      when = far_.front().when;  // AdvanceTo below moves it into its bucket.
    } else {
      return nullptr;
    }
    if (when > until_) {
      return nullptr;
    }
    AdvanceTo(when);
    const uint32_t slot = WheelPop(static_cast<uint32_t>(when) & kWheelMask);
    Slot& s = SlotAt(slot);
    if (s.cancelled) {
      if (s.drop != nullptr) {
        s.drop(s);
      }
      ReleaseSlot(slot);
      continue;
    }
    ++s.generation;  // Fired events are no longer pending.
    ++events_processed_;
    if (UnithreadContext* ctx = s.resume) {
      ReleaseSlot(slot);
      ctx->state = ContextState::kRunning;
      return ctx;
    }
    // The slot stays taken while the callable runs in place; it may
    // schedule more events, which only ever take other slots.
    in_callback_ = true;
    if (SlotOwner* owner = s.owner) {
      owner->RunSlot(slot);  // Runs and releases the slot.
    } else {
      s.call(s);
      ReleaseSlot(slot);
    }
    in_callback_ = false;
  }
  return nullptr;
}

void Engine::HandOff(UnithreadContext* self) {
  UnithreadContext* next = running_ ? RunToNextResume() : nullptr;
  if (next == self) {
    return;  // Our own resume came first: nothing to switch to.
  }
  if (next != nullptr) {
    RawSwitch(self, next);
  } else {
    SwitchToMain();
  }
}

Fiber* Engine::SpawnFiber(std::string name, std::function<void()> fn, size_t stack_bytes) {
  fibers_.push_back(std::make_unique<Fiber>(this, std::move(name), std::move(fn), stack_bytes));
  Fiber* fiber = fibers_.back().get();
  PushResume(now_, fiber->ctx());
  return fiber;
}

void Engine::Wait(SimDuration d) {
  ADIOS_CHECK(!in_callback_);
  ADIOS_CHECK(!on_main());
  const SimTime when = now_ + d;
  if (SkipToNextInLine(when)) {
    return;  // The resume would pop right away: skip the round trip.
  }
  UnithreadContext* self = current_;
  self->state = ContextState::kBlocked;
  PushResume(when, self);
  HandOff(self);
}

void Engine::SuspendCurrent() {
  ADIOS_CHECK(!in_callback_);
  ADIOS_CHECK(!on_main());
  UnithreadContext* self = current_;
  self->state = ContextState::kBlocked;
  HandOff(self);
}

bool Engine::IsTrackedContext(const UnithreadContext* ctx) const {
  if (ctx == &main_ctx_) {
    return true;
  }
  for (const auto& fiber : fibers_) {
    if (&fiber->ctx_ == ctx) {
      return true;
    }
  }
  return false;
}

Engine::StackAuditResult Engine::AuditStacks() const {
  StackAuditResult result;
  for (const auto& fiber : fibers_) {
    ++result.fibers;
    if (!fiber->stack_.CanaryIntact()) {
      ++result.canary_violations;
    }
    const size_t hwm = fiber->stack_.HighWaterMark();
    if (hwm > result.max_high_water) {
      result.max_high_water = hwm;
    }
  }
  return result;
}

}  // namespace adios
