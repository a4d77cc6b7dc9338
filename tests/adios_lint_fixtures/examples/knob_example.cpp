// adios-lint fixture: an example (.cpp) that sets a knob through a pointer.

void Tune(GoodConfig* c) { c->after_separator = 5; }
