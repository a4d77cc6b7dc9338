// adios-lint fixture: env-knob stays quiet on the three names the program
// owns, on a read of a non-literal name, and on a reasoned suppression.

#include <cstdlib>

bool Checks() { return std::getenv("ADIOS_CHECKS") != nullptr; }
bool Quick() { return std::getenv("ADIOS_BENCH_QUICK") != nullptr; }
const char* CsvDir() { return std::getenv("ADIOS_BENCH_CSV_DIR"); }

const char* ByName(const char* name) { return std::getenv(name); }

// adios-lint: ignore(env-knob) -- a reasoned suppression silences the read.
const char* Home() { return std::getenv("HOME"); }
