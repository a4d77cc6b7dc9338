// adios-lint fixture: every field of WholeConfig, the sub-config member
// included, has a row in its docs/KNOBS.md section: clean.

struct WholeOptions {
  int depth = 2;
};

struct WholeConfig {
  int first_knob = 1;
  double second_knob = 0.5;
  WholeOptions whole;
};

inline WholeConfig WholePreset() {
  WholeConfig c;
  c.first_knob = 3;
  c.second_knob = 0.25;
  c.whole.depth = 4;
  return c;
}
