"""Frontend-independent IR for the BHSS analyzer.

Both frontends (lite tokenizer and libclang) lower translation units into
this model: a set of `FunctionInfo`s carrying *events* (calls, allocations,
locks, I/O, unordered-container iteration, RNG touches, span derefs and
guards), plus enough type context (class members, locals, params) to
resolve method calls through receivers. `CodeModel` then links call events
into a call graph the checks traverse.

Resolution is deliberately conservative: a call resolves only when the
callee is qualified, the receiver's class is known, or the name is an
unambiguous free function / same-class method. Unresolved calls are kept
(for -v debugging) but never propagate taint — the analyzer prefers a
missed edge over a spurious cross-class edge (e.g. every `process` method
in the tree aliasing together).
"""

from __future__ import annotations

from dataclasses import dataclass, field

# Event kinds.
EV_CALL = "call"
EV_ALLOC = "alloc"
EV_MUTEX = "mutex"
EV_IO = "io"
EV_UNORDERED = "unordered"
EV_ADDR_ORDER = "addr-order"
EV_RNG = "rng"
EV_DEREF = "deref"  # unguarded span/pointer deref candidate (param-tagged)
EV_GUARD = "guard"  # BHSS_REQUIRE/ENSURE/DEBUG_ASSERT site


@dataclass
class Event:
    kind: str
    line: int
    detail: str = ""
    callee: str = ""  # EV_CALL: unqualified callee name
    qualifier: str = ""  # EV_CALL: explicit qualifier (last component or full)
    receiver: str = ""  # EV_CALL: receiver variable name, if any
    param: str = ""  # EV_DEREF / EV_GUARD: parameter name


@dataclass
class Param:
    name: str
    sketch: str  # normalized base type, e.g. 'cspan', 'span', 'float*'
    is_span: bool = False
    is_pointer: bool = False
    is_vector: bool = False


@dataclass
class FunctionInfo:
    qname: str  # e.g. 'bhss::dsp::FftConvolver::filter'
    file: str  # repo-relative posix path
    line: int
    params: list[Param] = field(default_factory=list)
    cls: str = ""  # enclosing class (last component), '' for free functions
    hot: bool = False  # carries BHSS_HOT / [[clang::annotate("bhss_hot")]]
    has_body: bool = False
    declared_in_header: bool = False
    events: list[Event] = field(default_factory=list)
    local_types: dict[str, str] = field(default_factory=dict)  # var -> class sketch

    @property
    def name(self) -> str:
        return self.qname.rsplit("::", 1)[-1]

    def overload_key(self) -> tuple:
        return (self.qname, tuple(p.sketch for p in self.params))

    def arity_key(self) -> tuple:
        return (self.qname, len(self.params))


class CodeModel:
    def __init__(self) -> None:
        self.functions: list[FunctionInfo] = []
        self._decls: list[FunctionInfo] = []
        self.members: dict[str, dict[str, str]] = {}  # class -> member var -> type sketch
        self.classes: set[str] = set()
        # Events not attributable to a function body (e.g. an RNG-engine
        # member declaration at class scope): (file, line, kind, detail).
        self.file_events: list[tuple[str, int, str, str]] = []
        # Indexes built by link().
        self.by_name: dict[str, list[FunctionInfo]] = {}
        self.by_method: dict[tuple[str, str], list[FunctionInfo]] = {}

    # ---------------------------------------------------------- population

    def add_function(self, fn: FunctionInfo) -> None:
        (self.functions if fn.has_body else self._decls).append(fn)

    def add_class(self, cls: str) -> None:
        self.classes.add(cls)

    def add_member(self, cls: str, name: str, sketch: str) -> None:
        self.members.setdefault(cls, {})[name] = sketch

    # ------------------------------------------------------------- linking

    def link(self) -> None:
        """Merge declarations into definitions (annotation + header-export
        transfer) and build call-resolution indexes."""
        by_overload: dict[tuple, list[FunctionInfo]] = {}
        by_arity: dict[tuple, list[FunctionInfo]] = {}
        by_qname: dict[str, list[FunctionInfo]] = {}
        for fn in self.functions:
            by_overload.setdefault(fn.overload_key(), []).append(fn)
            by_arity.setdefault(fn.arity_key(), []).append(fn)
            by_qname.setdefault(fn.qname, []).append(fn)

        for decl in self._decls:
            targets = by_overload.get(decl.overload_key())
            if not targets:
                cands = by_arity.get(decl.arity_key(), [])
                targets = cands if len(cands) == 1 else None
            if not targets:
                cands = by_qname.get(decl.qname, [])
                targets = cands if len(cands) == 1 else None
            if not targets:
                # Declaration without a body anywhere we parsed (extern,
                # defaulted, or unmatched overload): keep it as a bodyless
                # function so annotation/coverage checks still see it.
                self.functions.append(decl)
                by_overload.setdefault(decl.overload_key(), []).append(decl)
                by_arity.setdefault(decl.arity_key(), []).append(decl)
                by_qname.setdefault(decl.qname, []).append(decl)
                continue
            for t in targets:
                t.hot = t.hot or decl.hot
                t.declared_in_header = t.declared_in_header or decl.declared_in_header

        self.by_name.clear()
        self.by_method.clear()
        for fn in self.functions:
            self.by_name.setdefault(fn.name, []).append(fn)
            if fn.cls:
                self.by_method.setdefault((fn.cls, fn.name), []).append(fn)

    # ---------------------------------------------------------- resolution

    def methods_of(self, cls: str, name: str) -> list[FunctionInfo]:
        return self.by_method.get((cls, name), [])

    def receiver_type(self, fn: FunctionInfo, var: str) -> str:
        t = fn.local_types.get(var, "")
        if t:
            return t
        for p in fn.params:
            if p.name == var:
                return p.sketch
        if fn.cls:
            t = self.members.get(fn.cls, {}).get(var, "")
            if t:
                return t
        return ""

    def resolve_call(self, fn: FunctionInfo, ev: Event) -> list[FunctionInfo]:
        """Candidate definitions for a call event (bodies only)."""
        name = ev.callee
        if ev.qualifier:
            qual = ev.qualifier.rsplit("::", 1)[-1]
            cands = self.methods_of(qual, name)
            if not cands:
                # Namespace qualifier (e.g. dsp::to_complex) — free functions
                # whose qname ends with qualifier::name.
                suffix = f"{qual}::{name}"
                cands = [f for f in self.by_name.get(name, []) if f.qname.endswith(suffix)]
            return [f for f in cands if f.has_body]
        if ev.receiver:
            rtype = self.receiver_type(fn, ev.receiver)
            if rtype and rtype in self.classes:
                return [f for f in self.methods_of(rtype, name) if f.has_body]
            return []  # unknown receiver: do not guess
        # Bare call: same-class methods first, then free functions.
        if fn.cls:
            cands = [f for f in self.methods_of(fn.cls, name) if f.has_body]
            if cands:
                return cands
        frees = [f for f in self.by_name.get(name, []) if not f.cls and f.has_body]
        # Prefer same-namespace free functions when the name is ambiguous.
        if len(frees) > 1:
            ns = fn.qname.rsplit("::", 2)[0]
            scoped = [f for f in frees if f.qname.startswith(ns + "::")]
            if scoped:
                return scoped
        return frees
