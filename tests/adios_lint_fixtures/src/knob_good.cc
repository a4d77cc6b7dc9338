// adios-lint fixture: default-off-knob stays quiet when knobs are
// defaulted and documented, every GoodConfig row in docs/KNOBS.md names a
// field, skips non-scalar members' initializer check
// (their own defaults apply), and ignores non-config structs entirely.

struct Nested {
  int inner = 0;
};

struct GoodConfig {
  int good_knob = 1;
  long separated_knob = 100'000;  // The separator must not open a char literal.
  int after_separator = 2;
  Nested nested;
};

struct NotTunable {
  int whatever;
};
