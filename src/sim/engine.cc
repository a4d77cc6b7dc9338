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

// Pending callables own their captures (a heap-fallback capture owns heap
// memory), so every queued slot is dropped here, cancelled ones included.
Engine::~Engine() {
  for (const HeapKey& key : heap_) {
    Slot& s = SlotAt(key.slot);
    if (s.drop != nullptr) {
      s.drop(s);
    }
  }
}

void Engine::GrowSlab() {
  const auto base = static_cast<uint32_t>(slab_slots());
  const uint32_t n = kChunkMask + 1;
  chunks_.push_back(std::make_unique_for_overwrite<Slot[]>(n));
  Slot* chunk = chunks_.back().get();
  for (uint32_t i = 0; i < n; ++i) {
    chunk[i].generation = 0;
    chunk[i].next_free = i + 1 < n ? base + i + 1 : kNoSlot;
  }
  free_head_ = base;
}

// Sift-down from the root with the last key as the filler.
void Engine::PopKey() {
  const HeapKey last = heap_.back();
  heap_.pop_back();
  const size_t n = heap_.size();
  if (n == 0) {
    return;
  }
  size_t hole = 0;
  for (;;) {
    size_t child = 2 * hole + 1;
    if (child >= n) {
      break;
    }
    if (child + 1 < n && Earlier(heap_[child + 1], heap_[child])) {
      ++child;
    }
    if (!Earlier(heap_[child], last)) {
      break;
    }
    heap_[hole] = heap_[child];
    hole = child;
  }
  heap_[hole] = last;
}

void Engine::Run() { RunUntil(~0ull); }

void Engine::RunUntil(SimTime until) {
  ADIOS_CHECK(on_main());
  ADIOS_CHECK(!running_);
  running_ = true;
  stopped_ = false;
  until_ = until;
  while (!heap_.empty() && !stopped_) {
    const HeapKey top = heap_.front();
    if (top.when > until) {
      now_ = until;
      running_ = false;
      return;
    }
    PopKey();
    ADIOS_DCHECK(top.when >= now_);
    now_ = top.when;
    Slot& s = SlotAt(top.slot);
    if (s.cancelled) {
      if (s.drop != nullptr) {
        s.drop(s);
      }
      ReleaseSlot(top.slot);
      continue;
    }
    ++s.generation;  // Fired events are no longer pending.
    ++events_processed_;
    if (UnithreadContext* ctx = s.resume) {
      ReleaseSlot(top.slot);
      ctx->state = ContextState::kRunning;
      RawSwitch(current_, ctx);
    } else {
      // The slot stays taken while the callable runs in place; it may
      // schedule more events, which only ever take other slots.
      s.call(s);
      ReleaseSlot(top.slot);
    }
  }
  if (until != ~0ull && now_ < until) {
    now_ = until;
  }
  running_ = false;
}

Fiber* Engine::SpawnFiber(std::string name, std::function<void()> fn, size_t stack_bytes) {
  fibers_.push_back(std::make_unique<Fiber>(this, std::move(name), std::move(fn), stack_bytes));
  Fiber* fiber = fibers_.back().get();
  PushResume(now_, fiber->ctx());
  return fiber;
}

void Engine::Wait(SimDuration d) {
  ADIOS_CHECK(!on_main());
  const SimTime when = now_ + d;
  if (running_ && !stopped_ && when <= until_ &&
      (heap_.empty() || when < heap_.front().when)) {
    // Next in line: the resume event would be popped right away, so account
    // for it (sequence number, event count) and skip the round trip.
    now_ = when;
    ++next_seq_;
    ++events_processed_;
    return;
  }
  UnithreadContext* self = current_;
  self->state = ContextState::kBlocked;
  PushResume(when, self);
  SwitchToMain();
}

void Engine::SuspendCurrent() {
  ADIOS_CHECK(!on_main());
  UnithreadContext* self = current_;
  self->state = ContextState::kBlocked;
  SwitchToMain();
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
