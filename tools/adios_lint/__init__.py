"""adios-lint: fiber-aware static analysis for the Adios codebase.

A stdlib-only analyzer (same zero-dependency discipline as
tools/check_links.py) built from four layers:

  lexer.py      -- a lightweight C++ lexer (tokens, comments, preprocessor
                   lines) that is deliberately ignorant of templates and
                   overload resolution;
  cpp_index.py  -- a per-translation-unit index of function definitions,
                   annotated prototypes, enums, and config structs;
  callgraph.py  -- a name-matched call graph with transitive `may_suspend`
                   propagation seeded from the engine API and from
                   ADIOS_MAY_SUSPEND annotations;
  rules.py      -- the rule catalog (suspend-safety, trace-pairing,
                   sim-time-hygiene, default-off-knob, env-knob), each a
                   static complement to one of the runtime invariant
                   checks in src/check/ or to the config discipline.

Run as `python3 tools/adios_lint [paths...]`; see docs/STATIC_ANALYSIS.md
for the rule catalog, the annotation macros (src/base/annotations.h), and
the suppression syntax (`// adios-lint: ignore(rule) -- reason`).
"""

__all__ = ["lexer", "cpp_index", "callgraph", "rules", "cli"]
