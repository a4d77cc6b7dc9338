// adios-lint fixture: default-off-knob requires every config-struct scalar
// field to carry a default initializer, appear (backticked) in the docs
// knob table (this fixture tree's docs/KNOBS.md) and be assigned somewhere,
// every row of the TuneConfig table there to name a field (its
// `deleted_knob` row is stale), and that table to list every field (it
// lacks `undocumented_knob` and `uninitialized_knob`, flagged again on the
// lines already marked).

struct TuneConfig {
  int documented_knob = 4;
  int undocumented_knob = 2;   // expect: default-off-knob
  double uninitialized_knob;   // expect: default-off-knob
  int unset_knob = 7;          // expect: default-off-knob
};

// Its own default initializer and a read do not make `unset_knob` a knob.
inline int Charge(const TuneConfig& c) { return c.unset_knob == 7 ? c.unset_knob : 0; }

inline TuneConfig Tuned() {
  TuneConfig c;
  c.documented_knob = 1;
  c.undocumented_knob = 1;
  c.uninitialized_knob = 0.5;
  return c;
}
