"""Name-matched call graph with transitive `may_suspend` propagation.

Resolution is deliberately conservative: a call site `x->Wait(...)` taints
the caller if *any* indexed function named `Wait` may suspend. Overloads
and receiver types are not resolved -- under-resolution would miss real
hazards, over-resolution only costs an `ADIOS_NO_SUSPEND` annotation or a
suppression comment at the (rare) colliding site.

Seeds are the engine's suspension primitives, the task awaiters
(Engine::Sleep, CpuCore::Charge/ChargeNs), anything annotated
ADIOS_MAY_SUSPEND, and every coroutine: a body that contains `co_await`
suspends there. A coroutine's *callers* are not tainted through it:
calling a SimTask coroutine only creates its frame, which runs later from
the event loop. Functions annotated ADIOS_NO_SUSPEND never propagate
taint to their callers; instead, if the analysis shows such a function
transitively reaching a suspension point, that contradiction is reported
as a suspend-safety finding.

Known soundness hole (documented in docs/STATIC_ANALYSIS.md): calls made
through std::function / function pointers are invisible to the graph.
"""

from . import cpp_index
from .cpp_index import CONTROL_KEYWORDS

# Engine-API suspension points: qualified methods...
SEED_QUALNAMES = {
    "Engine::Wait",
    "Engine::SuspendCurrent",
    "Engine::RawSwitch",
    "Engine::SwitchToMain",
    "Engine::Run",
    "Engine::RunUntil",
    "WaitQueue::Wait",
    # Task awaiters: `co_await engine->Sleep(d)`, `co_await core->Charge(c)`.
    "Engine::Sleep",
    "CpuCore::Charge",
    "CpuCore::ChargeNs",
}

# The coroutine keyword that suspends a task in place.
CO_AWAIT = "co_await"

# ... and the free-function context-switch layer underneath them.
SEED_BARE = {
    "AdiosContextSwitch",
    "AdiosTrackedContextSwitch",
    "AdiosHeavyContextSwitch",
    "AdiosContextSwitchAsm",
    "AdiosHeavyContextSwitchAsm",
}


def first_co_await(fn):
    """Line of the first `co_await` in fn's body, or None."""
    tokens = fn.file.tokens
    for i in range(fn.body_start + 1, fn.body_end):
        if tokens[i].text == CO_AWAIT:
            return tokens[i].line
    return None


def extract_calls(fn):
    """[(callee name, line)] for every `ident(` inside fn's body."""
    tokens = fn.file.tokens
    calls = []
    i = fn.body_start + 1
    end = fn.body_end
    while i < end:
        t = tokens[i]
        if t.kind == "id" and t.text not in CONTROL_KEYWORDS and \
                i + 1 < end and tokens[i + 1].text == "(":
            calls.append((t.text, t.line))
        i += 1
    return calls


class CallGraph:
    def __init__(self, file_indexes):
        self.indexes = file_indexes
        self.defs = []            # FunctionDef with bodies
        self.all_fns = []         # Including decl-only prototypes
        self.calls = {}           # id(fn) -> [(name, line)]
        self.ann_by_qualname = {} # qualname -> merged annotation set
        self.suspending_names = set()
        for idx in file_indexes:
            for fn in idx.functions:
                self.all_fns.append(fn)
                merged = self.ann_by_qualname.setdefault(fn.qualname, set())
                merged |= fn.annotations
                if not fn.decl_only:
                    self.defs.append(fn)
        self._propagate()

    def merged_annotations(self, fn):
        return self.ann_by_qualname.get(fn.qualname, set())

    def _seeded(self, fn):
        if fn.qualname in SEED_QUALNAMES or fn.name in SEED_BARE:
            return True
        return cpp_index.ANNOTATION_MAY_SUSPEND in self.merged_annotations(fn)

    def _propagate(self):
        names = self.suspending_names
        names.update(q.split("::")[-1] for q in SEED_QUALNAMES)
        names.update(SEED_BARE)
        for fn in self.all_fns:
            if cpp_index.ANNOTATION_MAY_SUSPEND in fn.annotations:
                names.add(fn.name)
        for fn in self.defs:
            self.calls[id(fn)] = extract_calls(fn)
            if self._seeded(fn):
                fn.may_suspend = True
            co_line = first_co_await(fn)
            if co_line is not None and not fn.may_suspend:
                # A coroutine suspends itself; its name is not added to
                # `names`, so its callers stay untainted.
                fn.may_suspend = True
                fn.taint_path = (CO_AWAIT, co_line)
        changed = True
        while changed:
            changed = False
            for fn in self.defs:
                if fn.may_suspend:
                    continue
                for name, line in self.calls[id(fn)]:
                    if name in names:
                        fn.may_suspend = True
                        fn.taint_path = (name, line)
                        no_susp = cpp_index.ANNOTATION_NO_SUSPEND in \
                            self.merged_annotations(fn)
                        if not no_susp and fn.name not in names:
                            names.add(fn.name)
                        changed = True
                        break

    def is_suspending_name(self, name):
        """True if a call to `name` may suspend the calling fiber."""
        return name in self.suspending_names

    def no_suspend_violations(self):
        """Functions annotated ADIOS_NO_SUSPEND whose bodies nevertheless
        reach a suspension point."""
        out = []
        for fn in self.defs:
            if cpp_index.ANNOTATION_NO_SUSPEND in self.merged_annotations(fn) \
                    and fn.may_suspend and fn.taint_path is not None:
                out.append(fn)
        return out
