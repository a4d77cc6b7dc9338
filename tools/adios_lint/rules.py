"""The adios-lint rule catalog.

Each rule is a static complement to one of the runtime invariant checks:

  suspend-safety    <- InvariantChecker's page-state machine (src/check/):
                       raw PageEntry pointers / frame indices held live
                       across a call into a may-suspend function, or a
                       task's `co_await`, are stale.
  trace-pairing     <- Tracer stall accounting: every paired TraceEvent
                       (kX / kXDone) must be closed on every function exit.
  sim-time-hygiene  <- the SimTime discipline: wall-clock sources live only
                       in src/base/; SimTime arithmetic never mixes them in.
  default-off-knob  <- SystemConfig presets: every config knob carries an
                       explicit default initializer, appears in a docs
                       knob table, and is assigned somewhere (a preset,
                       src/, bench/, examples/, perfbench/ or tests/; a
                       value nothing sets is a constant, not a knob), and
                       a docs/KNOBS.md table headed by a config struct
                       has a row for each of its fields and none other.
  env-knob          <- the same discipline for the environment: code under
                       src/, bench/ and examples/ reads no environment
                       name but ADIOS_CHECKS, ADIOS_BENCH_QUICK and
                       ADIOS_BENCH_CSV_DIR; any other is a knob outside
                       SystemConfig that nothing sets.

Suppression: `// adios-lint: ignore(rule[,rule]) -- reason` on the finding
line or the line above; `ignore(all)` silences every rule for that line.
"""

import os
import re

from . import cpp_index, lexer

RULE_SUSPEND = "suspend-safety"
RULE_TRACE = "trace-pairing"
RULE_SIMTIME = "sim-time-hygiene"
RULE_KNOB = "default-off-knob"
RULE_ENV = "env-knob"

ALL_RULES = (RULE_SUSPEND, RULE_TRACE, RULE_SIMTIME, RULE_KNOB, RULE_ENV)

_SUPPRESS_RE = re.compile(r"adios-lint:\s*ignore\(([^)]*)\)")


class Finding:
    __slots__ = ("path", "line", "rule", "message")

    def __init__(self, path, line, rule, message):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def render(self):
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def is_suppressed(lexed, line, rule):
    """True if the finding line, or the contiguous comment block directly
    above it, carries a matching `adios-lint: ignore(...)`."""
    probes = [line]
    p = line - 1
    while p in lexed.comments and len(probes) < 8:
        probes.append(p)
        p -= 1
    for probe in probes:
        comment = lexed.comments.get(probe)
        if not comment:
            continue
        m = _SUPPRESS_RE.search(comment)
        if not m:
            continue
        rules = {r.strip() for r in m.group(1).split(",")}
        if rule in rules or "all" in rules:
            return True
    return False


# ---------------------------------------------------------------------------
# suspend-safety
# ---------------------------------------------------------------------------

# Types whose raw references/pointers go stale across a suspension: the page
# table can be remapped, the frame reused, the entry rewritten.
HAZARD_TYPES = {"PageEntry"}

# Calls whose *return value* is a hazard: a page-table entry reference or a
# victim frame index that a concurrent evictor/fetcher may invalidate.
HAZARD_PRODUCERS = {"entry": "page-table entry",
                    "SelectVictim": "victim frame index"}


def _match_paren_forward(tokens, open_idx, end):
    depth = 0
    i = open_idx
    while i <= end:
        t = tokens[i].text
        if t == "(":
            depth += 1
        elif t == ")":
            depth -= 1
            if depth == 0:
                return i
        i += 1
    return end


def _co_await_end(tokens, i, end):
    """Index just past the operand of the `co_await` at tokens[i]: the end
    of its full-expression, at the first `;` or unmatched closing bracket."""
    depth = 0
    j = i + 1
    while j < end:
        t = tokens[j].text
        if t in ("(", "[", "{"):
            depth += 1
        elif t in (")", "]", "}"):
            if depth == 0:
                return j
            depth -= 1
        elif t in (";", ",") and depth == 0:
            return j
        j += 1
    return end


def _suspension_at(tokens, i, end, graph):
    """If tokens[i] starts a suspension point, returns (name, index past the
    point) -- a `co_await` suspends after its operand is evaluated, a call
    into a may-suspend function after its arguments are -- else None."""
    t = tokens[i]
    if t.text == "co_await":
        return t.text, _co_await_end(tokens, i, end)
    nxt = tokens[i + 1].text if i + 1 < end else ""
    if nxt == "(" and t.text not in cpp_index.CONTROL_KEYWORDS and \
            graph.is_suspending_name(t.text):
        return t.text, _match_paren_forward(tokens, i + 1, end) + 1
    return None


def _check_suspend_safety(fn, graph, findings):
    tokens = fn.file.tokens
    path = fn.file.path
    # var name -> {"kind": description, "state": "live" | "suspended",
    #              "by": (callee, line), "reported": bool}
    hazards = {}
    i = fn.body_start + 1
    end = fn.body_end
    while i < end:
        t = tokens[i]
        if t.kind != "id":
            i += 1
            continue
        nxt = tokens[i + 1].text if i + 1 < end else ""

        # Declaration of a hazard-typed local: `PageEntry* e`, `const
        # PageEntry& e`.  Scan forward over cv/ref tokens to the name.
        if t.text in HAZARD_TYPES and nxt in ("*", "&"):
            j = i + 1
            while j < end and tokens[j].text in ("*", "&", "const"):
                j += 1
            if j < end and tokens[j].kind == "id":
                hazards[tokens[j].text] = {
                    "kind": f"raw {t.text} reference", "state": "live",
                    "by": None, "reported": False}
                i = j + 1
                continue

        # Binding from a hazard producer: `auto& e = entry(v)`,
        # `uint64_t victim = mm_->SelectVictim()`.
        if t.text in HAZARD_PRODUCERS and nxt == "(":
            # Look left for `target =`.
            k = i - 1
            while k > fn.body_start and tokens[k].text in ("::", ".", "->") :
                k -= 2  # Skip `mm_->` / `pt_.` receiver chains.
            if k > fn.body_start and tokens[k].text == "&":
                k -= 1  # Address-of: `e = &pt.entry(v)`.
            if k > fn.body_start and tokens[k].text == "=" and \
                    tokens[k - 1].kind == "id":
                hazards[tokens[k - 1].text] = {
                    "kind": HAZARD_PRODUCERS[t.text], "state": "live",
                    "by": None, "reported": False}
            i += 1  # Keep walking into the args: they may use stale hazards.
            continue

        # A suspension point (`co_await`, or a call into a may-suspend
        # function): everything held live is now stale.  Uses inside the
        # awaited operand or the call's argument list happen before the
        # suspension, so skip past them first.
        point = _suspension_at(tokens, i, end, graph)
        if point is not None:
            for h in hazards.values():
                if h["state"] == "live":
                    h["state"] = "suspended"
                    h["by"] = (t.text, t.line)
            i = point[1]
            continue

        # Use of a hazard variable.
        h = hazards.get(t.text)
        if h is not None:
            if nxt == "=" and tokens[i - 1].text not in ("*", ".", "->"):
                # Plain reassignment: the old binding dies here.  If the RHS
                # is a hazard producer, its branch re-binds the name; a store
                # through the pointer (`*e = ...`) is still a use.
                del hazards[t.text]
                i += 1
                continue
            if h["state"] == "suspended" and not h["reported"]:
                callee, cline = h["by"]
                if not is_suppressed(fn.file, t.line, RULE_SUSPEND):
                    findings.append(Finding(
                        path, t.line, RULE_SUSPEND,
                        f"'{t.text}' ({h['kind']}) used after possible "
                        f"suspension in '{callee}' (line {cline}); re-fetch "
                        f"it after the call or annotate the callee "
                        f"ADIOS_NO_SUSPEND"))
                h["reported"] = True
        i += 1


# Page-state-word lock discipline (src/mem/page_state.h): a successful
# TryLockForFetch / TryMarkEvict / TryClaimEvict makes the caller the
# exclusive owner of that page's Fetching/Evicting transition. Ownership must
# be resolved (mapped, aborted, finished, or cancelled) before the function
# reaches a suspension point — an owner parked on a fiber wedges every other
# actor that CASes on the page. The runtime complement is the checker's
# "evict claim held across a suspension point" audit; this is the static
# half, so the bug is a lint finding before it is a sim hang.
LOCK_ACQUIRERS = {
    "TryLockForFetch": "Fetching",
    "TryMarkEvict": "Evicting",
    "TryClaimEvict": "Evicting",
}

# Calls that resolve the held transition: the word-level exits plus the
# page-table/memory-manager wrappers that complete or unwind them.
LOCK_RELEASERS = {
    "TryMapPresent", "TryAbortFetch", "FinishEvict", "CancelEvict",
    "MarkPresent", "MarkFetchAborted", "MarkRemote",
    "CompleteFetch", "AbortFetch", "EvictPage",
}


def _check_lock_hold(fn, graph, findings):
    tokens = fn.file.tokens
    held = None  # (state-name, acquirer, acquire-line)
    i = fn.body_start + 1
    end = fn.body_end
    while i < end:
        t = tokens[i]
        nxt = tokens[i + 1].text if i + 1 < end else ""
        if t.kind != "id" or (nxt != "(" and t.text != "co_await"):
            i += 1
            continue
        if t.text in LOCK_ACQUIRERS:
            held = (LOCK_ACQUIRERS[t.text], t.text, t.line)
        elif t.text in LOCK_RELEASERS:
            held = None
        elif _suspension_at(tokens, i, end, graph) is not None:
            if held is not None:
                state, acq, aline = held
                if not is_suppressed(fn.file, t.line, RULE_SUSPEND):
                    findings.append(Finding(
                        fn.file.path, t.line, RULE_SUSPEND,
                        f"page-state {state} ownership taken by '{acq}' "
                        f"(line {aline}) is held across may-suspend call "
                        f"'{t.text}': complete or abort the transition "
                        f"before suspending"))
                held = None  # One report per acquisition.
        i += 1


def _check_no_suspend_annotations(graph, findings):
    for fn in graph.no_suspend_violations():
        callee, line = fn.taint_path
        if not is_suppressed(fn.file, fn.line, RULE_SUSPEND):
            findings.append(Finding(
                fn.file.path, fn.line, RULE_SUSPEND,
                f"'{fn.qualname}' is annotated ADIOS_NO_SUSPEND but may "
                f"reach a suspension point via '{callee}' (line {line})"))


# ---------------------------------------------------------------------------
# trace-pairing
# ---------------------------------------------------------------------------

def _trace_pairs(indexes):
    """{opener: closer} derived from any enum named TraceEvent: member kX is
    paired when kXDone exists."""
    pairs = {}
    for idx in indexes:
        members = idx.enums.get("TraceEvent")
        if not members:
            continue
        mset = set(members)
        for m in members:
            if m + "Done" in mset:
                pairs[m] = m + "Done"
    return pairs


def _check_trace_pairing(fn, pairs, findings):
    if not pairs:
        return
    closers = {v: k for k, v in pairs.items()}
    tokens = fn.file.tokens
    open_counts = {}
    i = fn.body_start + 1
    end = fn.body_end

    def report(line):
        pending = sorted(k for k, v in open_counts.items() if v > 0)
        if pending and not is_suppressed(fn.file, line, RULE_TRACE):
            findings.append(Finding(
                fn.file.path, line, RULE_TRACE,
                f"'{fn.qualname}' exits with unclosed trace event(s) "
                f"{', '.join(pending)}: record the matching *Done before "
                f"every return"))

    while i < end:
        t = tokens[i]
        if t.kind == "id" and t.text == "Record" and i + 1 < end and \
                tokens[i + 1].text == "(":
            close = _match_paren_forward(tokens, i + 1, end)
            for j in range(i + 2, close):
                tj = tokens[j]
                if tj.kind != "id":
                    continue
                if tj.text in pairs:
                    open_counts[tj.text] = open_counts.get(tj.text, 0) + 1
                elif tj.text in closers:
                    base = closers[tj.text]
                    open_counts[base] = max(0, open_counts.get(base, 0) - 1)
            i = close + 1
            continue
        if t.kind == "id" and t.text == "return":
            report(t.line)
            # Reset so one unbalanced path reports once, not at every
            # later return too.
            open_counts = {k: 0 for k in open_counts}
        i += 1
    report(fn.file.tokens[end].line)


# ---------------------------------------------------------------------------
# sim-time-hygiene
# ---------------------------------------------------------------------------

WALL_CLOCK_IDS = {
    "chrono", "steady_clock", "system_clock", "high_resolution_clock",
    "gettimeofday", "clock_gettime", "timespec", "timeval",
    "__rdtsc", "__rdtscp", "rdtsc", "rdtscp",
    "Tsc", "TscFenced", "MeasureTscGhz",
}

WALL_CLOCK_INCLUDES = ("<chrono>", "<ctime>", "<sys/time.h>",
                       "<x86intrin.h>", "<time.h>")

SIMTIME_TYPES = {"SimTime", "SimDuration"}
_ARITH_OPS = {"+", "-", "*", "/", "+=", "-="}


def _in_base(path, root):
    rel = os.path.relpath(os.path.abspath(path), os.path.abspath(root))
    parts = rel.replace(os.sep, "/").split("/")
    return parts[:2] == ["src", "base"]


def _check_sim_time(lexed, root, findings):
    exempt = _in_base(lexed.path, root)
    if not exempt:
        for line, text in lexed.pp_lines:
            if "include" not in text:
                continue
            for inc in WALL_CLOCK_INCLUDES:
                if inc in text:
                    if not is_suppressed(lexed, line, RULE_SIMTIME):
                        findings.append(Finding(
                            lexed.path, line, RULE_SIMTIME,
                            f"wall-clock include {inc} outside src/base/: "
                            f"simulation code must use SimTime (src/base/"
                            f"time.h); wall-clock sources live in src/base/ "
                            f"only"))
                    break
        seen_lines = set()
        for t in lexed.tokens:
            if t.kind == "id" and t.text in WALL_CLOCK_IDS and \
                    t.line not in seen_lines:
                seen_lines.add(t.line)
                if not is_suppressed(lexed, t.line, RULE_SIMTIME):
                    findings.append(Finding(
                        lexed.path, t.line, RULE_SIMTIME,
                        f"wall-clock identifier '{t.text}' outside "
                        f"src/base/: derive time from the Engine clock "
                        f"(SimTime), not the host"))

    # Everywhere (src/base included): no statement may mix SimTime
    # arithmetic with a wall-clock value.
    stmt = []
    for t in lexed.tokens:
        if t.text in (";", "{", "}"):
            _check_mix_stmt(lexed, stmt, findings)
            stmt = []
        else:
            stmt.append(t)
    _check_mix_stmt(lexed, stmt, findings)


def _check_mix_stmt(lexed, stmt, findings):
    has_sim = any(t.kind == "id" and t.text in SIMTIME_TYPES for t in stmt)
    if not has_sim:
        return
    wall = next((t for t in stmt
                 if t.kind == "id" and t.text in WALL_CLOCK_IDS), None)
    if wall is None:
        return
    if not any(t.text in _ARITH_OPS for t in stmt):
        return
    if not is_suppressed(lexed, wall.line, RULE_SIMTIME):
        findings.append(Finding(
            lexed.path, wall.line, RULE_SIMTIME,
            f"statement mixes SimTime arithmetic with wall-clock value "
            f"'{wall.text}': convert explicitly at the src/base boundary"))


# ---------------------------------------------------------------------------
# default-off-knob
# ---------------------------------------------------------------------------

_CONFIG_SUFFIXES = ("Config", "Options", "Params", "Policy")

_SCALAR_TYPES = {
    "bool", "char", "short", "int", "long", "unsigned", "signed",
    "float", "double", "size_t", "ssize_t", "uintptr_t", "intptr_t",
    "int8_t", "int16_t", "int32_t", "int64_t",
    "uint8_t", "uint16_t", "uint32_t", "uint64_t",
    "SimTime", "SimDuration", "RemoteAddr",
}


def is_config_struct(sd):
    return sd.name == "SystemConfig" or sd.name.endswith(_CONFIG_SUFFIXES)


def _is_scalar_field(field, enum_names):
    tt = field.type_tokens
    if "*" in tt:
        return True
    return any(x in _SCALAR_TYPES or x in enum_names for x in tt)


# Where a knob may be set: a field that no file under these directories
# assigns is a calibration constant wearing a config field's clothes.
_ASSIGN_DIRS = ("src", "bench", "examples", "perfbench", "tests")
CPP_EXTS = (".h", ".hpp", ".cc", ".cpp")
_ASSIGN_OPS = {"=", "+=", "-=", "*=", "/=", "++", "--"}


# Lexed files by path: the knob and env rules and --stats walk the same trees.
_LEXED = {}


def _lex_tree(root, sub):
    """The lexed C++ files under root/sub, in a stable order."""
    out = []
    for dirpath, dirnames, filenames in os.walk(os.path.join(root, sub)):
        dirnames.sort()
        for fname in sorted(filenames):
            if fname.endswith(CPP_EXTS):
                path = os.path.join(dirpath, fname)
                if path not in _LEXED:
                    _LEXED[path] = lexer.lex(path)
                out.append(_LEXED[path])
    return out


def _assigned_member_names(root, subdirs=_ASSIGN_DIRS):
    """Names written through a member access (`x.name = ...`, `p->name += ...`,
    `{.name = ...}`) anywhere under the root's `subdirs`. A field's own
    default initializer (`T name = v;` in its struct) has no `.`/`->`
    before it, so it never counts. Names, not qualified fields: two structs
    sharing a field name share its assignments."""
    names = set()
    for sub in subdirs:
        for lexed in _lex_tree(root, sub):
            toks = lexed.tokens
            for k in range(1, len(toks) - 1):
                if (toks[k].kind == lexer.KIND_ID and
                        toks[k - 1].text in (".", "->") and
                        toks[k + 1].text in _ASSIGN_OPS):
                    names.add(toks[k].text)
    return names


def test_only_fields(indexes, root):
    """Config fields that only files under tests/ assign: each is a knob
    only if the test's value turns on a behaviour the test pins
    (docs/KNOBS.md)."""
    elsewhere = _assigned_member_names(
        root, [d for d in _ASSIGN_DIRS if d != "tests"])
    in_tests = _assigned_member_names(root, ["tests"])
    return [f"{sd.qualname}::{f.name}" for idx in indexes for sd in idx.structs
            if is_config_struct(sd) for f in sd.fields
            if f.name in in_tests and f.name not in elsewhere]


def _check_knobs(indexes, docs_text, assigned, findings):
    enum_names = set()
    for idx in indexes:
        enum_names.update(idx.enums.keys())
    for idx in indexes:
        for sd in idx.structs:
            if not is_config_struct(sd):
                continue
            # A suppression on the struct declaration line covers every
            # field (for *Params records that are data, not tunables).
            if is_suppressed(idx.lexed, sd.line, RULE_KNOB):
                continue
            for f in sd.fields:
                scalar = _is_scalar_field(f, enum_names)
                if scalar and not f.initialized:
                    if not is_suppressed(idx.lexed, f.line, RULE_KNOB):
                        findings.append(Finding(
                            idx.lexed.path, f.line, RULE_KNOB,
                            f"config knob '{sd.qualname}::{f.name}' has no "
                            f"default initializer: every knob must be "
                            f"default-off / explicitly defaulted"))
                if scalar and f.name not in assigned:
                    if not is_suppressed(idx.lexed, f.line, RULE_KNOB):
                        findings.append(Finding(
                            idx.lexed.path, f.line, RULE_KNOB,
                            f"config knob '{sd.qualname}::{f.name}' is never "
                            f"assigned (no preset, src/, bench/, examples/, "
                            f"perfbench/ or tests/ sets it): make it a "
                            f"sourced constant beside the code that uses it"))
                if docs_text is not None and f"`{f.name}`" not in docs_text:
                    if not is_suppressed(idx.lexed, f.line, RULE_KNOB):
                        findings.append(Finding(
                            idx.lexed.path, f.line, RULE_KNOB,
                            f"config knob '{sd.qualname}::{f.name}' is not "
                            f"documented: add it (backticked) to the knob "
                            f"table (docs/KNOBS.md)"))


_MD_HEADER_RE = re.compile(r"^#+\s")
_MD_CODE_RE = re.compile(r"`([A-Za-z_][\w:]*)`")
_MD_ROW_RE = re.compile(r"^\|\s*`([A-Za-z_]\w*)`\s*\|")


def _check_knob_rows(indexes, root, findings):
    """Keeps each docs/KNOBS.md struct section and its struct in step.

    A section whose header names an indexed config struct (`SystemConfig`,
    `Reclaimer::Options`, ...) is that struct's table: each backticked
    first-column name must still be one of its fields (a deleted knob takes
    its row along), and each of its fields must have a row there (a mention
    elsewhere in docs/ does not document a field of this struct). Sections
    naming no indexed struct (a subset run, prose sections) are skipped.
    """
    path = os.path.join(root, "docs", "KNOBS.md")
    if not os.path.isfile(path):
        return
    structs = {sd.qualname: sd for idx in indexes for sd in idx.structs
               if is_config_struct(sd)}
    files = {id(sd): idx.lexed for idx in indexes for sd in idx.structs}
    section = None
    rows = set()

    def close_section():
        if section is None:
            return
        lexed = files[id(section)]
        for fd in section.fields:
            if (fd.name not in rows and
                    not is_suppressed(lexed, fd.line, RULE_KNOB)):
                findings.append(Finding(
                    lexed.path, fd.line, RULE_KNOB,
                    f"config knob '{section.qualname}::{fd.name}' has no "
                    f"row in its docs/KNOBS.md section: add one"))

    with open(path, "r", encoding="utf-8", errors="replace") as f:
        for lineno, line in enumerate(f, start=1):
            if _MD_HEADER_RE.match(line):
                close_section()
                names = [n for n in _MD_CODE_RE.findall(line) if n in structs]
                section = structs[names[0]] if names else None
                rows = set()
                continue
            m = _MD_ROW_RE.match(line)
            if section is None or m is None:
                continue
            rows.add(m.group(1))
            if m.group(1) not in {fd.name for fd in section.fields}:
                findings.append(Finding(
                    path, lineno, RULE_KNOB,
                    f"knob row '{m.group(1)}' names no field of "
                    f"'{section.qualname}': delete the stale row"))
    close_section()


# ---------------------------------------------------------------------------
# env-knob
# ---------------------------------------------------------------------------

# The environment names the program may read: the invariant checker's
# switch, the benches' quick mode, and the benches' CSV output directory.
ENV_ALLOWED = {"ADIOS_CHECKS", "ADIOS_BENCH_QUICK", "ADIOS_BENCH_CSV_DIR"}
_ENV_DIRS = ("src", "bench", "examples")
# `getenv` and the `Env*` helper family (EnvU64, EnvDouble, ...).
_ENV_READ_RE = re.compile(r"^(?:getenv|Env[A-Z]\w*)$")


def _check_env_reads(root, findings):
    for sub in _ENV_DIRS:
        for lexed in _lex_tree(root, sub):
            toks = lexed.tokens
            for k in range(len(toks) - 2):
                if (toks[k].kind != lexer.KIND_ID or
                        not _ENV_READ_RE.match(toks[k].text) or
                        toks[k + 1].text != "(" or
                        toks[k + 2].kind != lexer.KIND_STR):
                    continue
                name = toks[k + 2].text.strip('"')
                if name in ENV_ALLOWED or \
                        is_suppressed(lexed, toks[k].line, RULE_ENV):
                    continue
                findings.append(Finding(
                    lexed.path, toks[k].line, RULE_ENV,
                    f"environment read of '{name}': a value only the "
                    f"environment sets is a knob outside SystemConfig; make "
                    f"it a named constant (allowed: "
                    f"{', '.join(sorted(ENV_ALLOWED))})"))


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def run_rules(indexes, graph, root, docs_text, enabled=None):
    enabled = set(enabled) if enabled else set(ALL_RULES)
    findings = []
    pairs = _trace_pairs(indexes)
    for idx in indexes:
        if RULE_SIMTIME in enabled:
            _check_sim_time(idx.lexed, root, findings)
        for fn in idx.functions:
            if fn.decl_only:
                continue
            if RULE_SUSPEND in enabled:
                _check_suspend_safety(fn, graph, findings)
                _check_lock_hold(fn, graph, findings)
            if RULE_TRACE in enabled:
                _check_trace_pairing(fn, pairs, findings)
    if RULE_SUSPEND in enabled:
        _check_no_suspend_annotations(graph, findings)
    if RULE_KNOB in enabled:
        _check_knobs(indexes, docs_text, _assigned_member_names(root), findings)
        _check_knob_rows(indexes, root, findings)
    if RULE_ENV in enabled:
        _check_env_reads(root, findings)
    findings.sort(key=lambda f: (f.path, f.line, f.rule))
    return findings
