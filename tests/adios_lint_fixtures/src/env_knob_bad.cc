// adios-lint fixture: env-knob fires on an environment read of any name
// but the three the program owns, through getenv or an Env* helper.

#include <cstdlib>

unsigned long Entries() {
  return std::strtoul(std::getenv("ADIOS_BENCH_ENTRIES"), nullptr, 0);  // expect: env-knob
}

double Load() { return EnvDouble("ADIOS_BENCH_LOAD", 1e6); }  // expect: env-knob
