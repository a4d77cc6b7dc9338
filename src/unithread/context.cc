#include "src/unithread/context.h"

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "src/base/check.h"

// AddressSanitizer fiber annotations. Without them ASan's shadow-stack
// bookkeeping is destroyed the first time AdiosContextSwitchAsm moves rsp to
// a heap-allocated stack; with them the full test suite runs clean under
// -DADIOS_SANITIZE=address (docs/SANITIZERS.md).
#if defined(__SANITIZE_ADDRESS__)
#define ADIOS_ASAN_FIBERS 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define ADIOS_ASAN_FIBERS 1
#endif
#endif

#if defined(ADIOS_ASAN_FIBERS)
#include <sanitizer/common_interface_defs.h>

#include <unordered_map>
#endif

// ThreadSanitizer fiber annotations, mirroring the ASan wiring at the same
// stack-switch sites. Without __tsan_switch_to_fiber TSan attributes one
// thread's many fiber stacks to a single shadow state and both misses real
// races and fabricates impossible ones. ASan and TSan are mutually
// exclusive (CMake rejects combining them), so at most one gate is set.
#if defined(__SANITIZE_THREAD__)
#define ADIOS_TSAN_FIBERS 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define ADIOS_TSAN_FIBERS 1
#endif
#endif

#if defined(ADIOS_TSAN_FIBERS)
#include <sanitizer/tsan_interface.h>

#include <unordered_map>
#endif

namespace adios {
namespace {

constexpr uint32_t kDefaultMxcsr = 0x1f80;  // All exceptions masked.
constexpr uint16_t kDefaultFpucw = 0x037f;  // x87 default control word.

// Offsets inside the fxsave64 image.
constexpr size_t kFxsaveFcwOffset = 0;
constexpr size_t kFxsaveMxcsrOffset = 24;
constexpr size_t kFxsaveMxcsrMaskOffset = 28;

// Switch observer (invariant checker hook) and the tracked-switch flag set
// by AdiosTrackedContextSwitch for exactly one switch. All switching is
// per-thread (the engine and the cooperative scheduler are single-threaded),
// so the bookkeeping is thread_local.
thread_local ContextSwitchObserver g_observer = nullptr;
thread_local void* g_observer_user = nullptr;
thread_local bool g_tracked_switch = false;

#if defined(ADIOS_ASAN_FIBERS)

// Per-context sanitizer state, keyed by the context's address. Contexts with
// stacks prepared by Reset() get their bounds recorded there; "host" save
// slots (the engine's main context, a test's parent slot) run on the thread
// stack and have their bounds learned from the out-parameters of the first
// __sanitizer_finish_switch_fiber executed on a fiber they entered.
struct FiberSanState {
  void* fake_stack = nullptr;  // ASan fake-stack save slot while suspended.
  const void* bottom = nullptr;
  size_t size = 0;
};

thread_local std::unordered_map<const void*, FiberSanState>* g_san_states = nullptr;
// The context that most recently suspended on this thread; the resumed side
// attributes finish_switch_fiber's old-stack bounds to it (only host save
// slots still need them).
thread_local const void* g_switch_source = nullptr;

FiberSanState& SanState(const void* key) {
  if (g_san_states == nullptr) {
    g_san_states = new std::unordered_map<const void*, FiberSanState>();
  }
  return (*g_san_states)[key];
}

void SanNoteStack(const void* key, const void* low, size_t size) {
  FiberSanState& s = SanState(key);
  s.fake_stack = nullptr;
  s.bottom = low;
  s.size = size;
}

void SanStartSwitch(const void* from_key, bool from_dying, const void* to_key) {
  FiberSanState& from = SanState(from_key);
  FiberSanState& to = SanState(to_key);
  g_switch_source = from_key;
  // A dying context passes nullptr so ASan frees its fake stack.
  __sanitizer_start_switch_fiber(from_dying ? nullptr : &from.fake_stack, to.bottom, to.size);
}

void SanFinishSwitch(const void* self_key) {
  FiberSanState& self = SanState(self_key);
  const void* old_bottom = nullptr;
  size_t old_size = 0;
  __sanitizer_finish_switch_fiber(self.fake_stack, &old_bottom, &old_size);
  self.fake_stack = nullptr;
  if (g_switch_source != nullptr && g_switch_source != self_key) {
    FiberSanState& source = SanState(g_switch_source);
    if (source.bottom == nullptr) {
      source.bottom = old_bottom;
      source.size = old_size;
    }
  }
}

#elif defined(ADIOS_TSAN_FIBERS)

// TSan fiber handles, keyed by the context's address (same keying as the
// ASan side table). Contexts prepared by Reset() get a fresh fiber there;
// "host" save slots (the engine's main context, a test's parent slot) have
// no Reset — their handle is captured from __tsan_get_current_fiber the
// first time execution switches away from them. `created` tells the two
// apart: only handles we __tsan_create_fiber'd may be destroyed — a
// captured handle is the OS thread's own fiber state, and keys are stack
// addresses that later objects can legitimately reuse.
struct TsanFiber {
  void* handle;
  bool created;
};
thread_local std::unordered_map<const void*, TsanFiber>* g_tsan_fibers = nullptr;
// A dying context's fiber cannot be destroyed while still running on it;
// it is stashed here and destroyed on the destination side after landing.
thread_local void* g_tsan_pending_destroy = nullptr;

std::unordered_map<const void*, TsanFiber>& TsanFibers() {
  if (g_tsan_fibers == nullptr) {
    g_tsan_fibers = new std::unordered_map<const void*, TsanFiber>();
  }
  return *g_tsan_fibers;
}

// Reset() reuses context slots: every Reset is a new logical fiber, so a
// stale handle for the key (a recycled, suspended-and-abandoned context)
// is destroyed before the replacement is created. A stale *captured* entry
// just means the key's address was recycled for a new context; the host
// handle it held is not ours to destroy.
void SanNoteStack(const void* key, const void*, size_t) {
  auto& fibers = TsanFibers();
  auto it = fibers.find(key);
  if (it != fibers.end()) {
    if (it->second.created) {
      __tsan_destroy_fiber(it->second.handle);
    }
    it->second = {__tsan_create_fiber(0), true};
  } else {
    fibers.emplace(key, TsanFiber{__tsan_create_fiber(0), true});
  }
}

// Immediately before the asm switch (TSan's documented contract).
void TsanStartSwitch(const void* from_key, bool from_dying, const void* to_key) {
  auto& fibers = TsanFibers();
  auto from = fibers.find(from_key);
  if (from == fibers.end()) {
    // Host save slot: the fiber currently executing is its identity.
    from = fibers.emplace(from_key,
                          TsanFiber{__tsan_get_current_fiber(), false}).first;
  } else if (!from->second.created) {
    // Re-capture on every switch-away: host keys are stack addresses that a
    // later, different host slot can reuse, and its identity is always
    // whatever fiber is executing right now.
    from->second.handle = __tsan_get_current_fiber();
  }
  if (from_dying) {
    // Only Reset() contexts die, so the handle is always ours to destroy.
    // The entry stays, holding no handle: pooled contexts are Reset() again
    // under the same key, so a warm run adds no map node per unithread.
    ADIOS_CHECK(from->second.created);
    g_tsan_pending_destroy = from->second.handle;
    from->second = TsanFiber{nullptr, false};
  }
  auto to = fibers.find(to_key);
  // Every switch target was either Reset() (fresh fiber) or previously
  // switched away from (handle captured above).
  ADIOS_CHECK(to != fibers.end());
  // flags=0: keep the happens-before edge — cooperative switches really do
  // order memory accesses between fibers.
  __tsan_switch_to_fiber(to->second.handle, 0);
}

// On the destination side after the stacks swapped: complete a dying
// context's teardown now that nothing runs on its stack.
void TsanFinishSwitch() {
  if (g_tsan_pending_destroy != nullptr) {
    __tsan_destroy_fiber(g_tsan_pending_destroy);
    g_tsan_pending_destroy = nullptr;
  }
}

#else  // !ADIOS_ASAN_FIBERS && !ADIOS_TSAN_FIBERS

inline void SanNoteStack(const void*, const void*, size_t) {}

#endif  // ADIOS_ASAN_FIBERS

}  // namespace

extern "C" void AdiosContextEntryThunk();
extern "C" void AdiosHeavyEntryThunk();

// Called (via the asm thunk) the first time a fresh context runs.
extern "C" [[noreturn]] void AdiosUnithreadTrampoline(UnithreadContext* ctx) {
#if defined(ADIOS_ASAN_FIBERS)
  SanFinishSwitch(ctx);  // First instruction on the new stack: land the switch.
#elif defined(ADIOS_TSAN_FIBERS)
  TsanFinishSwitch();
#endif
  ADIOS_CHECK(ctx != nullptr);
  ADIOS_CHECK(ctx->entry != nullptr);
  ctx->state = ContextState::kRunning;
  ctx->entry(ctx->arg);
  ctx->state = ContextState::kFinished;
  ADIOS_CHECK(ctx->parent != nullptr);
  // One-way switch: the dying context's rsp slot is reused as scratch. This
  // is part of the engine's tracked protocol (the resume that ran entry() to
  // completion returns through here), so it announces itself as tracked.
  AdiosTrackedContextSwitch(ctx, ctx->parent);
  std::fprintf(stderr, "adios: finished unithread context was resumed\n");
  std::abort();
}

extern "C" [[noreturn]] void AdiosHeavyEntryTrampoline(ContextEntry entry, void* arg,
                                                       [[maybe_unused]] HeavyContext* self) {
#if defined(ADIOS_ASAN_FIBERS)
  SanFinishSwitch(self);
#elif defined(ADIOS_TSAN_FIBERS)
  TsanFinishSwitch();
#endif
  ADIOS_CHECK(entry != nullptr);
  entry(arg);
  std::fprintf(stderr, "adios: heavy context entry returned (unsupported)\n");
  std::abort();
}

void AdiosContextSwitch(UnithreadContext* from, UnithreadContext* to) {
  const bool tracked = g_tracked_switch;
  g_tracked_switch = false;
  // Double-finish detection: a finished context's saved rsp points into the
  // trampoline's dead frame; resuming it would corrupt whatever now occupies
  // that stack. Fail deterministically instead.
  ADIOS_CHECK(!to->finished());
  if (g_observer != nullptr) {
    g_observer(g_observer_user, from, to, tracked);
  }
#if defined(ADIOS_ASAN_FIBERS)
  SanStartSwitch(from, from->finished(), to);
  AdiosContextSwitchAsm(from, to);
  SanFinishSwitch(from);
#elif defined(ADIOS_TSAN_FIBERS)
  TsanStartSwitch(from, from->finished(), to);
  AdiosContextSwitchAsm(from, to);
  TsanFinishSwitch();
#else
  AdiosContextSwitchAsm(from, to);
#endif
}

void AdiosTrackedContextSwitch(UnithreadContext* from, UnithreadContext* to) {
  g_tracked_switch = true;
  AdiosContextSwitch(from, to);
}

void SetContextSwitchObserver(ContextSwitchObserver observer, void* user) {
  g_observer = observer;
  g_observer_user = user;
}

bool ContextSwitchesAreSanitized() {
#if defined(ADIOS_ASAN_FIBERS) || defined(ADIOS_TSAN_FIBERS)
  return true;
#else
  return false;
#endif
}

void AdiosHeavyContextSwitch(HeavyContext* from, HeavyContext* to) {
#if defined(ADIOS_ASAN_FIBERS)
  SanStartSwitch(from, /*from_dying=*/false, to);
  AdiosHeavyContextSwitchAsm(from, to);
  SanFinishSwitch(from);
#elif defined(ADIOS_TSAN_FIBERS)
  TsanStartSwitch(from, /*from_dying=*/false, to);
  AdiosHeavyContextSwitchAsm(from, to);
  TsanFinishSwitch();
#else
  AdiosHeavyContextSwitchAsm(from, to);
#endif
}

void UnithreadContext::Reset(void* stack_low_addr, size_t size, ContextEntry entry_fn,
                             void* entry_arg, UnithreadContext* parent_ctx) {
  ADIOS_CHECK(stack_low_addr != nullptr);
  ADIOS_CHECK_GE(size, 512u);
  ADIOS_CHECK(entry_fn != nullptr);

  stack_low = stack_low_addr;
  stack_size = size;
  entry = entry_fn;
  arg = entry_arg;
  parent = parent_ctx;
  state = ContextState::kRunnable;
  switch_count = 0;
  SanNoteStack(this, stack_low_addr, size);

  // 16-align the stack top; the thunk runs with rsp == top (ABI-conformant
  // "before call" alignment).
  uintptr_t top = reinterpret_cast<uintptr_t>(stack_low_addr) + size;
  top &= ~static_cast<uintptr_t>(0xf);

  // Fabricate the frame AdiosContextSwitchAsm's restore path expects.
  auto slot = [top](int i) { return reinterpret_cast<uint64_t*>(top - 8 * i); };
  *slot(1) = reinterpret_cast<uint64_t>(&AdiosContextEntryThunk);  // ret target
  *slot(2) = 0;                                                    // rbp
  *slot(3) = 0;                                                    // rbx
  *slot(4) = reinterpret_cast<uint64_t>(this);                     // r12 -> ctx
  *slot(5) = 0;                                                    // r13
  *slot(6) = 0;                                                    // r14
  *slot(7) = 0;                                                    // r15
  *reinterpret_cast<uint32_t*>(top - 64) = kDefaultMxcsr;
  *reinterpret_cast<uint16_t*>(top - 60) = kDefaultFpucw;
  *reinterpret_cast<uint16_t*>(top - 58) = 0;

  rsp = reinterpret_cast<void*>(top - 64);
}

void HeavyContext::Reset(void* stack_low_addr, size_t size, ContextEntry entry_fn,
                         void* entry_arg) {
  ADIOS_CHECK(stack_low_addr != nullptr);
  ADIOS_CHECK_GE(size, 512u);
  ADIOS_CHECK(entry_fn != nullptr);

  std::memset(this, 0, sizeof(*this));
  SanNoteStack(this, stack_low_addr, size);

  uintptr_t top = reinterpret_cast<uintptr_t>(stack_low_addr) + size;
  top &= ~static_cast<uintptr_t>(0xf);

  gregs[6] = reinterpret_cast<uint64_t>(entry_fn);  // r12
  gregs[7] = reinterpret_cast<uint64_t>(entry_arg);  // r13
  gregs[8] = reinterpret_cast<uint64_t>(this);       // r14 -> ctx (thunk -> trampoline)
  gregs[15] = top;                                   // rsp
  gregs[16] = reinterpret_cast<uint64_t>(&AdiosHeavyEntryThunk);  // rip
  // mxcsr/fpucw slot (gregs[17]) holds {mxcsr:u32, fpucw:u16}.
  gregs[17] = static_cast<uint64_t>(kDefaultMxcsr) |
              (static_cast<uint64_t>(kDefaultFpucw) << 32);

  // A minimal valid fxsave image: default FCW/MXCSR, permissive MXCSR mask.
  std::memcpy(fxsave_area + kFxsaveFcwOffset, &kDefaultFpucw, sizeof(kDefaultFpucw));
  std::memcpy(fxsave_area + kFxsaveMxcsrOffset, &kDefaultMxcsr, sizeof(kDefaultMxcsr));
  const uint32_t mxcsr_mask = 0xffff;
  std::memcpy(fxsave_area + kFxsaveMxcsrMaskOffset, &mxcsr_mask, sizeof(mxcsr_mask));
}

static_assert(offsetof(HeavyContext, fxsave_area) == 352,
              "asm offset HFX in context_switch_x86_64.S must match");
static_assert(offsetof(HeavyContext, gregs) == 0, "asm offsets must match");

}  // namespace adios
