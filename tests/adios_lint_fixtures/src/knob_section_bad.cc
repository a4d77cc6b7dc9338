// adios-lint fixture: a config struct with a docs/KNOBS.md section of its
// own needs a row there for every field. `elsewhere_knob` is backticked in
// the catalog's first table, which names no struct, so it counts as
// documented; its own section still lacks the row.

struct SplitConfig {
  int listed_knob = 1;
  int elsewhere_knob = 2;  // expect: default-off-knob
};

inline SplitConfig SplitPreset() {
  SplitConfig c;
  c.listed_knob = 3;
  c.elsewhere_knob = 4;
  return c;
}
