// adios-lint fixture: suspend-safety must stay quiet on a task coroutine
// that re-fetches after each `co_await`, that uses hazards only inside the
// awaited operand (evaluated before the task suspends), and on the callers
// of a coroutine, which only create its frame.

struct PageEntry {
  int state;
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
unsigned long CostOf(unsigned long frame);
ADIOS_NO_SUSPEND void Note(unsigned long frame);

SimTask GoodRefetchAfterAwait(PageTable& pt, WaitQueue& q) {
  PageEntry& e = pt.entry(1);
  int s = e.state;
  co_await q;
  PageEntry& e2 = pt.entry(1);
  s = e2.state;
  (void)s;
}

SimTask GoodUseInsideOperand(CpuCore* core) {
  unsigned long victim = SelectVictim();
  co_await core->Charge(CostOf(victim));
  victim = SelectVictim();
  Note(victim);
}

// Creating a task does not suspend: a NO_SUSPEND caller stays clean.
ADIOS_NO_SUSPEND void GoodStartTask(PageTable& pt, WaitQueue& q) {
  SimTask task = GoodRefetchAfterAwait(pt, q);
  (void)task;
}
