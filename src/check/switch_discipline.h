// Context-switch-discipline checker.
//
// The engine keeps a current-context pointer that every scheduling decision
// reads (Engine::current_context, on_main). The pointer stays correct only
// if every switch involving an engine-tracked context (the main context or
// any fiber context) goes through the tracked path: Engine::RawSwitch (the
// engine's own hand-offs and returns to main included) or the unithread
// finish trampoline. A direct AdiosContextSwitch call on a tracked context
// desynchronizes the engine — a bug class that otherwise surfaces as
// impossible scheduling states far from the offending call.
//
// This checker installs the thread's context-switch observer
// (SetContextSwitchObserver) and flags any untracked switch that touches a
// tracked context. Cooperative-scheduler contexts are not engine-tracked,
// so standalone unithread code is unaffected.

#ifndef ADIOS_SRC_CHECK_SWITCH_DISCIPLINE_H_
#define ADIOS_SRC_CHECK_SWITCH_DISCIPLINE_H_

#include <cstdint>

#include "src/sim/engine.h"
#include "src/unithread/context.h"

namespace adios {

class SwitchDisciplineChecker {
 public:
  // Installs the observer on construction; uninstalls on destruction. At
  // most one checker may be live per thread.
  explicit SwitchDisciplineChecker(Engine* engine, bool fatal = true);
  ~SwitchDisciplineChecker();

  SwitchDisciplineChecker(const SwitchDisciplineChecker&) = delete;
  SwitchDisciplineChecker& operator=(const SwitchDisciplineChecker&) = delete;

  uint64_t switches_observed() const { return observed_; }
  uint64_t tracked_switches() const { return tracked_; }
  // Only advances past zero when fatal == false.
  uint64_t violations() const { return violations_; }

 private:
  static void Observe(void* user, UnithreadContext* from, UnithreadContext* to, bool tracked);

  Engine* engine_;
  bool fatal_;
  uint64_t observed_ = 0;
  uint64_t tracked_ = 0;
  uint64_t violations_ = 0;
};

}  // namespace adios

#endif  // ADIOS_SRC_CHECK_SWITCH_DISCIPLINE_H_
