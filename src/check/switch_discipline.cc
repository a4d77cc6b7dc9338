#include "src/check/switch_discipline.h"

#include <sstream>

#include "src/base/check.h"

namespace adios {

SwitchDisciplineChecker::SwitchDisciplineChecker(Engine* engine, bool fatal)
    : engine_(engine), fatal_(fatal) {
  ADIOS_CHECK(engine != nullptr);
  SetContextSwitchObserver(&SwitchDisciplineChecker::Observe, this);
}

SwitchDisciplineChecker::~SwitchDisciplineChecker() { SetContextSwitchObserver(nullptr, nullptr); }

void SwitchDisciplineChecker::Observe(void* user, UnithreadContext* from, UnithreadContext* to,
                                      bool tracked) {
  auto* self = static_cast<SwitchDisciplineChecker*>(user);
  ++self->observed_;
  if (tracked) {
    ++self->tracked_;
    return;
  }
  if (!self->engine_->IsTrackedContext(from) && !self->engine_->IsTrackedContext(to)) {
    return;  // Cooperative-scheduler or test-local contexts; not our problem.
  }
  ++self->violations_;
  if (self->fatal_) {
    std::ostringstream os;
    os << "from = " << static_cast<const void*>(from) << " (id " << from->id
       << "), to = " << static_cast<const void*>(to) << " (id " << to->id
       << "); engine-tracked contexts must switch via Engine::RawSwitch";
    CheckFailed("context switch bypassed the engine's tracked path", __FILE__, __LINE__,
                os.str().c_str());
  }
}

}  // namespace adios
