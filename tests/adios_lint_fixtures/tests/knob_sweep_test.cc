// adios-lint fixture: a test that sweeps a knob no preset sets, through a
// designated initializer. Test sweeps count: the field stays a knob.

GoodConfig Swept(int v) { return GoodConfig{.swept_knob = v}; }
