// adios-lint fixture: default-off-knob requires every config-struct scalar
// field to carry a default initializer and appear (backticked) in the docs
// knob table (this fixture tree's docs/KNOBS.md), and every row of the
// TuneConfig table there to name a field (its `deleted_knob` row is stale).

struct TuneConfig {
  int documented_knob = 4;
  int undocumented_knob = 2;   // expect: default-off-knob
  double uninitialized_knob;   // expect: default-off-knob
};
