"""Command-line driver for adios-lint.

    python3 tools/adios_lint [paths...] [--root DIR] [--rules r1,r2]
                             [--list] [--stats]

Paths default to `src` under the root (which defaults to the current
directory). Exit status is 1 when any unsuppressed finding remains, 0
otherwise -- CI runs `python3 tools/adios_lint src`.
"""

import os
import sys

from . import callgraph, cpp_index, lexer, rules

# The docs corpus the default-off-knob rule searches for backticked knob
# names, relative to --root.
_DOC_SOURCES = ("README.md", "DESIGN.md", "EXPERIMENTS.md")


def _collect_files(paths):
    out = []
    for p in paths:
        if os.path.isfile(p):
            out.append(p)
            continue
        for dirpath, dirnames, filenames in os.walk(p):
            dirnames.sort()
            for fname in sorted(filenames):
                if fname.endswith(rules.CPP_EXTS):
                    out.append(os.path.join(dirpath, fname))
    return out


def _docs_corpus(root):
    chunks = []
    for name in _DOC_SOURCES:
        path = os.path.join(root, name)
        if os.path.isfile(path):
            with open(path, "r", encoding="utf-8", errors="replace") as f:
                chunks.append(f.read())
    docs_dir = os.path.join(root, "docs")
    if os.path.isdir(docs_dir):
        for fname in sorted(os.listdir(docs_dir)):
            if fname.endswith(".md"):
                with open(os.path.join(docs_dir, fname), "r",
                          encoding="utf-8", errors="replace") as f:
                    chunks.append(f.read())
    return "\n".join(chunks)


def main(argv):
    root = os.getcwd()
    paths = []
    enabled = None
    show_stats = False
    i = 0
    while i < len(argv):
        a = argv[i]
        if a == "--list":
            for r in rules.ALL_RULES:
                print(r)
            return 0
        if a == "--stats":
            show_stats = True
        elif a.startswith("--root="):
            root = a.split("=", 1)[1]
        elif a == "--root":
            i += 1
            root = argv[i]
        elif a.startswith("--rules="):
            enabled = [r.strip() for r in a.split("=", 1)[1].split(",")]
        elif a == "--rules":
            i += 1
            enabled = [r.strip() for r in argv[i].split(",")]
        elif a in ("-h", "--help"):
            print(__doc__.strip())
            return 0
        else:
            paths.append(a)
        i += 1

    if enabled is not None:
        unknown = [r for r in enabled if r not in rules.ALL_RULES]
        if unknown:
            print(f"adios-lint: unknown rule(s): {', '.join(unknown)}",
                  file=sys.stderr)
            return 2

    if not paths:
        paths = [os.path.join(root, "src")]
    files = _collect_files(paths)
    if not files:
        print("adios-lint: no input files", file=sys.stderr)
        return 2

    indexes = []
    for path in files:
        indexes.append(cpp_index.index_file(lexer.lex(path)))
    graph = callgraph.CallGraph(indexes)
    docs_text = _docs_corpus(root)
    findings = rules.run_rules(indexes, graph, root, docs_text, enabled)

    for f in findings:
        print(f.render())
    if show_stats:
        n_fns = sum(len(idx.functions) for idx in indexes)
        n_susp = sum(1 for idx in indexes for fn in idx.functions
                     if fn.may_suspend)
        n_knobs = sum(len(sd.fields) for idx in indexes for sd in idx.structs
                      if rules.is_config_struct(sd))
        n_test_only = len(rules.test_only_fields(indexes, root))
        print(f"-- {len(files)} files, {n_fns} functions indexed, "
              f"{n_susp} may-suspend, {n_knobs} config fields, "
              f"{n_test_only} assigned only by tests/, "
              f"{len(findings)} finding(s)",
              file=sys.stderr)
    return 1 if findings else 0
