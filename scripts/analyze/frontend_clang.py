"""libclang frontend: lowers real ASTs into the shared CodeModel IR.

Used when the `clang` python bindings and a matching libclang shared
library are installed (CI installs python3-clang + libclang; the minimal
dev container does not ship libclang.so, so `--frontend=auto` falls back
to the lite frontend there).

The typed AST gives this frontend two things the token frontend
approximates: exact callee referents (so the call graph needs no
heuristic receiver typing) and attribute-level hot annotations
([[clang::annotate("bhss_hot")]] rather than the macro token).
"""

from __future__ import annotations

from pathlib import Path

from .cpp_model import (
    EV_ALLOC,
    EV_CALL,
    EV_IO,
    EV_MUTEX,
    EV_RNG,
    EV_UNORDERED,
    CodeModel,
    Event,
    FunctionInfo,
    Param,
)
from .frontend_lite import RNG_DISTRIBUTION_TYPES, rng_kind

HOT_ANNOTATION_PAYLOAD = "bhss_hot"

_ALLOC_CALLEES = {"malloc", "calloc", "realloc", "aligned_alloc", "free",
                  "make_unique", "make_shared", "push_back", "emplace_back",
                  "resize", "reserve", "insert", "assign", "operator new",
                  "operator new[]"}
_MUTEX_CALLEES = {"lock", "unlock", "try_lock"}
_MUTEX_TYPES = ("mutex", "lock_guard", "unique_lock", "scoped_lock",
                "shared_lock")
_IO_CALLEES = {"printf", "fprintf", "fopen", "fwrite", "fread", "fflush",
               "puts", "operator<<"}
_RNG_TYPES = ("random_device", "mt19937", "minstd_rand",
              "default_random_engine", "ranlux", "knuth_b",
              *sorted(RNG_DISTRIBUTION_TYPES))
_UNORDERED = ("unordered_map", "unordered_set", "unordered_multimap",
              "unordered_multiset")


class ClangUnavailable(RuntimeError):
    pass


def _import_cindex():
    try:
        from clang import cindex  # type: ignore[import-not-found]
    except ImportError as e:  # pragma: no cover - environment dependent
        raise ClangUnavailable(f"python clang bindings not importable: {e}") from e
    try:
        cindex.Index.create()
    except Exception as e:  # pragma: no cover - environment dependent
        raise ClangUnavailable(f"libclang not loadable: {e}") from e
    return cindex


def available() -> bool:
    try:
        _import_cindex()
        return True
    except ClangUnavailable:
        return False


def _sketch(type_spelling: str) -> str:
    s = type_spelling.replace("const", "").replace("&", "").strip()
    pointer = s.endswith("*")
    s = s.rstrip("* ")
    if "<" in s:
        s = s.split("<", 1)[0]
    base = s.split("::")[-1].strip() or s.strip()
    return base + ("*" if pointer else "")


def parse_tu(model: CodeModel, path: Path, rel: str, args: list[str],
             repo_root: Path) -> None:
    """Parse one TU with the compile args from compile_commands.json and
    lower every function defined in files under the repo into the model."""
    cindex = _import_cindex()
    index = cindex.Index.create()
    tu = index.parse(str(path), args=args,
                     options=cindex.TranslationUnit.PARSE_SKIP_FUNCTION_BODIES * 0)
    ck = cindex.CursorKind
    fn_kinds = {ck.FUNCTION_DECL, ck.CXX_METHOD, ck.CONSTRUCTOR,
                ck.DESTRUCTOR, ck.FUNCTION_TEMPLATE, ck.CONVERSION_FUNCTION}

    def rel_of(cursor) -> str | None:
        loc = cursor.location
        if loc.file is None:
            return None
        try:
            return Path(loc.file.name).resolve().relative_to(repo_root).as_posix()
        except ValueError:
            return None

    def qname(cursor) -> str:
        parts: list[str] = []
        c = cursor
        while c is not None and c.kind != ck.TRANSLATION_UNIT:
            if c.spelling:
                parts.append(c.spelling)
            c = c.semantic_parent
        return "::".join(reversed(parts))

    def is_hot(cursor) -> bool:
        return any(
            ch.kind == ck.ANNOTATE_ATTR and ch.spelling == HOT_ANNOTATION_PAYLOAD
            for ch in cursor.get_children()
        )

    def lower_body(cursor, fn: FunctionInfo) -> None:
        for node in cursor.walk_preorder():
            line = node.location.line or fn.line
            k = node.kind
            if k == ck.CXX_NEW_EXPR:
                fn.events.append(Event(EV_ALLOC, line, detail="heap new"))
            elif k == ck.CALL_EXPR:
                callee = node.referenced
                name = callee.spelling if callee is not None else node.spelling
                if not name:
                    continue
                recv_type = ""
                children = list(node.get_children())
                if children:
                    recv_type = children[0].type.spelling if children[0].type else ""
                if name in _ALLOC_CALLEES:
                    fn.events.append(Event(EV_ALLOC, line, detail=f"{name}()"))
                elif name in _MUTEX_CALLEES and any(m in recv_type for m in _MUTEX_TYPES):
                    fn.events.append(Event(EV_MUTEX, line, detail=f"{name}()"))
                elif name in _IO_CALLEES:
                    fn.events.append(Event(EV_IO, line, detail=f"{name}()"))
                elif name in ("rand", "srand"):
                    fn.events.append(Event(EV_RNG, line, detail=f"{name}()"))
                else:
                    cls = ""
                    if callee is not None and callee.semantic_parent is not None:
                        cls = callee.semantic_parent.spelling or ""
                    fn.events.append(
                        Event(EV_CALL, line, callee=name, qualifier=cls)
                    )
            elif k == ck.VAR_DECL:
                ts = node.type.spelling if node.type else ""
                base = _sketch(ts)
                fn.local_types[node.spelling] = base
                if any(m in ts for m in _MUTEX_TYPES):
                    fn.events.append(Event(EV_MUTEX, line, detail=f"'{node.spelling}' is a {base}"))
                elif any(r in ts for r in _RNG_TYPES):
                    fn.events.append(Event(EV_RNG, line, detail=f"std RNG '{base}'"))
            elif k == ck.CXX_FOR_RANGE_STMT:
                for chd in node.get_children():
                    ts = chd.type.spelling if chd.type else ""
                    if any(u in ts for u in _UNORDERED):
                        fn.events.append(
                            Event(EV_UNORDERED, line,
                                  detail=f"range-for over '{_sketch(ts)}'")
                        )
                        break

    def lower_field(cursor) -> None:
        """An RNG engine/distribution held as a class member is a D2 event
        of its file (no function body owns it)."""
        r = rel_of(cursor)
        ts = cursor.type.spelling if cursor.type else ""
        if r is None or not any(t in ts for t in _RNG_TYPES):
            return
        base = _sketch(ts)
        # Same detail text as the lite lowering, so the header pass (lite
        # runs over headers in every mode) and TUs recording one member
        # collapse to one event.
        ev = (r, cursor.location.line, EV_RNG,
              f"member '{cursor.spelling}' of RNG {rng_kind(base) or 'engine'} type '{base}'")
        if ev not in model.file_events:
            model.file_events.append(ev)

    for cursor in tu.cursor.walk_preorder():
        if cursor.kind == ck.FIELD_DECL:
            lower_field(cursor)
            continue
        if cursor.kind not in fn_kinds:
            continue
        r = rel_of(cursor)
        if r is None:
            continue
        cls = ""
        sp = cursor.semantic_parent
        if sp is not None and sp.kind in (ck.CLASS_DECL, ck.STRUCT_DECL, ck.CLASS_TEMPLATE):
            cls = sp.spelling
        params = []
        for a in cursor.get_arguments():
            ts = a.type.spelling if a.type else ""
            base = _sketch(ts)
            params.append(
                Param(
                    name=a.spelling or "",
                    sketch=base,
                    is_span="span" in base or base in ("cspan", "fspan", "cspan_mut", "fspan_mut"),
                    is_pointer=base.endswith("*"),
                    is_vector=base in ("vector", "cvec", "fvec", "string"),
                )
            )
        fn = FunctionInfo(
            qname=qname(cursor),
            file=r,
            line=cursor.location.line,
            params=params,
            cls=cls,
            hot=is_hot(cursor),
            has_body=cursor.is_definition(),
            declared_in_header=r.endswith((".hpp", ".h", ".hh")),
        )
        if fn.has_body:
            lower_body(cursor, fn)
        model.add_function(fn)
