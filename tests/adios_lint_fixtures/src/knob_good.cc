// adios-lint fixture: default-off-knob stays quiet when knobs are
// defaulted, documented and assigned somewhere, every GoodConfig row in
// docs/KNOBS.md names a field, skips non-scalar members (their own
// defaults apply), and ignores non-config structs entirely.

struct Nested {
  int inner = 0;
};

struct SubOptions {
  int level = 1;
};

struct GoodConfig {
  int good_knob = 1;
  long separated_knob = 100'000;  // The separator must not open a char literal.
  int after_separator = 2;
  int swept_knob = 3;  // Assigned only by a test sweep: still a knob.
  // adios-lint: ignore(default-off-knob) -- a reasoned suppression still
  // silences the never-assigned finding.
  int pinned_knob = 4;
  Nested nested;
  SubOptions sub;  // A config-struct member: its own fields are checked.
};

struct NotTunable {
  int whatever;
};

// A preset: assignments here make a field a knob.
inline GoodConfig Preset() {
  GoodConfig c;
  c.good_knob = 2;
  c.separated_knob += 1;
  c.sub.level = 3;
  return c;
}
