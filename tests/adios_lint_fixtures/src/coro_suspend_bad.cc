// adios-lint fixture: in a task coroutine, `co_await` is a suspension point.
// A raw page reference or victim index held across it is stale, as across
// a call into a may-suspend function. Never compiled; lexed by
// tests/adios_lint_test.py. `// expect: <rule>` marks required findings.

struct PageEntry {
  int state;
  int pins;
};

struct PageTable {
  PageEntry& entry(unsigned long vpage);
};

struct WaitQueue {};
struct SimTask {};

struct CpuCore {
  struct Awaiter {};
  Awaiter Charge(unsigned long cycles);
};

unsigned long SelectVictim();
void Use(unsigned long frame);

SimTask BadAwaitQueue(PageTable& pt, WaitQueue& q) {
  PageEntry& e = pt.entry(42);
  co_await q;
  e.pins++;  // expect: suspend-safety
}

SimTask BadChargeVictim(CpuCore* core) {
  unsigned long victim = SelectVictim();
  co_await core->Charge(250);
  Use(victim);  // expect: suspend-safety
}

// Page-state-word ownership must be resolved before the task suspends.
struct PageStateWord {
  bool TryMarkEvict();
  bool FinishEvict();
};

SimTask BadEvictClaimHeldAcrossAwait(PageStateWord& w, WaitQueue& q) {
  if (w.TryMarkEvict()) {
    co_await q;  // expect: suspend-safety
    w.FinishEvict();
  }
}

// A coroutine cannot claim never to suspend.
ADIOS_NO_SUSPEND SimTask BadNoSuspendTask(WaitQueue& q) {  // expect: suspend-safety
  co_await q;
}
