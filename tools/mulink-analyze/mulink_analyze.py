#!/usr/bin/env python3
"""mulink-analyze — static enforcement of mulink's source contracts.

The engine's headline guarantees (DESIGN.md §16) are behavioural: an
allocation-free per-decision hot path, bit-identical scores across
backends/threads/shards, explicit atomic ordering, silent library code,
observability that compiles out with the MULINK_OBS kill switch, and vector
code confined to the kernel layer. Runtime tests exercise those properties
on the inputs they happen to run; this tool makes the source form of each
contract a CI failure.

Every rule runs over one exact token stream. A C++ lexer (comments,
strings, raw strings, char literals, digit separators, preprocessor lines)
feeds a structural pass that recovers namespaces, classes and function
definitions (including out-of-line `T C::f(...) const { ... }` and
constructors with their initializer lists). A comment or string can never
trip a rule, and each finding names its enclosing function.

Rules (scope in parentheses)
----------------------------
hot-path-alloc   (src/{core,linalg,dsp,kernels,serve}, minus cold TUs)
                 Every allocation token: operator new, malloc-family calls,
                 growth calls on std containers/strings (push_back, resize,
                 reserve, insert, emplace, append, assign, ...),
                 make_unique/make_shared (templated or not),
                 std::function and std::to_string. That includes
                 constructors, initializer lists, namespace scope and class
                 bodies: an allocation is either setup-path or
                 capacity-reserved, and the annotation says which.

determinism      (everything; fma outside src/kernels; RNG and wall clock
                 outside src/common/rng) std::fma calls (the kernel layer
                 owns the FP contraction policy), range-for iteration over
                 unordered containers (sort first, like
                 ServeCore::MergedDecisionLog), and wall-clock or ambient
                 randomness (time(nullptr), system_clock, std::rand,
                 random_device, mt19937, ...). Every draw flows through the
                 seeded, forkable mulink::Rng. steady_clock is fine: it times
                 stages, it never feeds scores.

atomics          (everything) .load()/.store()/exchange/fetch_* on a
                 std::atomic without an explicit memory_order, and
                 operator-form accesses (++x, x = v, x += v), which are
                 seq_cst by definition. Also a relaxed store to a member
                 that is acquire/seq_cst-loaded elsewhere in the same file
                 (the release edge the load pairs with is missing), except
                 inside constructors, where pre-publication relaxed stores
                 are the idiom (spsc_ring.h's cell seeding).

obs-discipline   (src/** minus src/obs) Metrics and traces are recorded only
                 through the MULINK_OBS_* macros: direct
                 Registry::Add/Set/RecordStageNs/SampleIngestTick calls and
                 direct obs::ScopedStageTimer / obs::TraceSpan construction
                 are findings.

stdout           (src/**) Library code does not write to stdout
                 (std::cout, printf, puts, any use of `stdout`); printing
                 belongs to tools/, examples/ and bench/. Serializers that
                 take an std::ostream& are fine.

intrinsics       (everything outside src/kernels) SIMD intrinsics:
                 <immintrin.h>/<x86intrin.h> includes, _mm*_* calls and
                 __m128/__m256/__m512 types. The kernel layer owns vector
                 code behind runtime dispatch with a scalar twin.

Annotations (inside comments; `mulink-lint:` and `mulink-analyze:` prefixes
are interchangeable):
  // mulink-lint: allow(<tag>): reason     same or preceding line
  // mulink-lint: cold-tu(reason)          first 30 lines of a TU; opts it
                                           out of hot-path-alloc

Tags: alloc, determinism, atomics, obs, stdout, intrinsics.

The default scan covers src/, tools/, examples/ and bench/.

Exit codes (same table as the mulink CLI, tools/cli.h):
  0  clean
  1  findings
  2  usage error (unknown flag/rule, unreadable path)
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path

EXIT_CLEAN = 0
EXIT_FINDINGS = 1
EXIT_USAGE = 2

SOURCE_SUFFIXES = {".cpp", ".h", ".hpp", ".cc"}
SCAN_DIRS = ("src", "tools", "examples", "bench")

HOT_PATH_DIRS = ("src/core", "src/linalg", "src/dsp", "src/kernels",
                 "src/serve")
KERNEL_DIR = "src/kernels"
RNG_HOME = re.compile(r"^src/common/rng\.(h|cpp)$")
OBS_DIR = "src/obs"

RULES = ("hot-path-alloc", "determinism", "atomics", "obs-discipline",
         "stdout", "intrinsics")

# Annotation tag each rule honours.
RULE_TAG = {
    "hot-path-alloc": "alloc",
    "determinism": "determinism",
    "atomics": "atomics",
    "obs-discipline": "obs",
    "stdout": "stdout",
    "intrinsics": "intrinsics",
}

ANNOTATION_RE = re.compile(
    r"//\s*mulink-(?:lint|analyze):\s*(allow|cold-tu)\(([^)]*)\)")

CPP_KEYWORDS = frozenset("""
alignas alignof and and_eq asm auto bitand bitor bool break case catch char
char8_t char16_t char32_t class co_await co_return co_yield compl concept
const consteval constexpr constinit const_cast continue decltype default
delete do double dynamic_cast else enum explicit export extern false float
for friend goto if inline int long mutable namespace new noexcept not
not_eq nullptr operator or or_eq private protected public register
reinterpret_cast requires return short signed sizeof static static_assert
static_cast struct switch template this thread_local throw true try typedef
typeid typename union unsigned using virtual void volatile wchar_t while
xor xor_eq final override
""".split())

ALLOC_MEMBER_CALLS = frozenset(
    ("resize", "push_back", "emplace_back", "reserve", "insert", "emplace",
     "emplace_front", "push_front", "shrink_to_fit", "assign", "append"))
ALLOC_FREE_CALLS = frozenset(
    ("malloc", "calloc", "realloc", "aligned_alloc", "strdup", "make_unique",
     "make_shared", "to_string"))

AMBIENT_RNG_NAMES = frozenset(
    ("rand", "srand", "random_device", "mt19937", "mt19937_64",
     "default_random_engine", "minstd_rand", "minstd_rand0", "ranlux24",
     "ranlux48", "knuth_b"))

ATOMIC_MEMBER_CALLS = frozenset(
    ("load", "store", "exchange", "compare_exchange_weak",
     "compare_exchange_strong", "fetch_add", "fetch_sub", "fetch_and",
     "fetch_or", "fetch_xor"))

MEMORY_ORDERS = frozenset(
    ("memory_order_relaxed", "memory_order_consume", "memory_order_acquire",
     "memory_order_release", "memory_order_acq_rel", "memory_order_seq_cst",
     "relaxed", "consume", "acquire", "release", "acq_rel", "seq_cst"))

UNORDERED_TYPES = frozenset(
    ("unordered_map", "unordered_set", "unordered_multimap",
     "unordered_multiset"))

INTRINSIC_CALL_RE = re.compile(r"_mm\d*_\w+")
INTRINSIC_TYPE_RE = re.compile(r"__m(?:128|256|512)[di]?")
INTRINSIC_PP_RE = re.compile(
    r"#\s*include\s*<(?:immintrin|x86intrin)\.h>"
    r"|\b_mm\d*_\w+\s*\(|\b__m(?:128|256|512)[di]?\b")


class UsageError(Exception):
    pass


# ---------------------------------------------------------------------------
# Lexer
# ---------------------------------------------------------------------------

class Tok:
    __slots__ = ("kind", "text", "line")

    def __init__(self, kind: str, text: str, line: int):
        self.kind = kind  # id | num | str | chr | punct | pp
        self.text = text
        self.line = line

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Tok({self.kind},{self.text!r},{self.line})"


_ID_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_NUM_RE = re.compile(r"\.?\d(?:[\w.']|[eEpP][+-])*")
_RAW_RE = re.compile(r'(?:u8|u|U|L)?R"([^()\\ \t\n]{0,16})\(')
_PUNCTS = ("->*", "<<=", ">>=", "...", "::", "->", "++", "--", "<<", ">>",
           "<=", ">=", "==", "!=", "&&", "||", "+=", "-=", "*=", "/=", "%=",
           "&=", "|=", "^=")


def lex(text: str):
    """Tokenize C++ source. Returns (tokens, comments) where comments is a
    list of (line, text) — the annotation scanner's input. Comments,
    string/char literals (including raw strings spanning lines) and
    preprocessor directives can therefore never produce rule tokens."""
    tokens: list[Tok] = []
    comments: list[tuple[int, str]] = []
    i, line, n = 0, 1, len(text)
    at_line_start = True
    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            i += 1
            at_line_start = True
            continue
        if c in " \t\r\f\v":
            i += 1
            continue
        if text.startswith("//", i):
            j = text.find("\n", i)
            j = n if j < 0 else j
            comments.append((line, text[i:j]))
            i = j
            continue
        if text.startswith("/*", i):
            j = text.find("*/", i)
            end = n if j < 0 else j + 2
            seg = text[i:end]
            for k, part in enumerate(seg.split("\n")):
                comments.append((line + k, part))
            line += seg.count("\n")
            i = end
            continue
        if c == "#" and at_line_start:
            # Preprocessor directive: consume to end of line, honouring
            # backslash continuations. Kept as one opaque token; a trailing
            # `//` comment is split off so it can carry an annotation.
            start_line = line
            parts = []
            j = i
            while j < n:
                k = text.find("\n", j)
                k = n if k < 0 else k
                part = text[j:k]
                cut = part.find("//")
                if cut >= 0:
                    comments.append((line, part[cut:]))
                    part = part[:cut]
                parts.append(part)
                if part.rstrip("\r").endswith("\\"):
                    j = k + 1
                    line += 1
                    continue
                j = k
                break
            tokens.append(Tok("pp", "\n".join(parts), start_line))
            i = j
            continue
        at_line_start = False
        m = _RAW_RE.match(text, i)
        if m:
            close = ")" + m.group(1) + '"'
            j = text.find(close, m.end())
            end = n if j < 0 else j + len(close)
            seg = text[i:end]
            tokens.append(Tok("str", '""', line))
            line += seg.count("\n")
            i = end
            continue
        if c == '"':
            j = i + 1
            while j < n and text[j] not in '"\n':
                j += 2 if text[j] == "\\" else 1
            tokens.append(Tok("str", '""', line))
            i = min(j + 1, n)
            continue
        if c == "'":
            j = i + 1
            while j < n and text[j] not in "'\n":
                j += 2 if text[j] == "\\" else 1
            tokens.append(Tok("chr", "''", line))
            i = min(j + 1, n)
            continue
        m = _ID_RE.match(text, i)
        if m:
            tokens.append(Tok("id", m.group(0), line))
            i = m.end()
            continue
        if c.isdigit() or (c == "." and i + 1 < n and text[i + 1].isdigit()):
            m = _NUM_RE.match(text, i)
            tokens.append(Tok("num", m.group(0), line))
            i = m.end()
            continue
        for p in _PUNCTS:
            if text.startswith(p, i):
                tokens.append(Tok("punct", p, line))
                i += len(p)
                break
        else:
            tokens.append(Tok("punct", c, line))
            i += 1
    return tokens, comments


def collect_annotations(comments):
    """line -> set of tags: 'allow:<tag>' / 'cold-tu'."""
    notes: dict[int, set[str]] = {}
    for line, text in comments:
        for match in ANNOTATION_RE.finditer(text):
            kind, arg = match.group(1), match.group(2)
            if kind == "allow":
                tag = arg.split(":")[0].split(",")[0].strip()
                notes.setdefault(line, set()).add(f"allow:{tag}")
            else:
                notes.setdefault(line, set()).add("cold-tu")
    return notes


def allowed(notes, line: int, tag: str) -> bool:
    want = f"allow:{tag}"
    return want in notes.get(line, set()) or want in notes.get(line - 1, set())


# ---------------------------------------------------------------------------
# Structure: function spans, then one fact pass over every token
# ---------------------------------------------------------------------------

class FuncInfo:
    __slots__ = ("qname", "is_ctor")

    def __init__(self, qname: str, is_ctor: bool):
        self.qname = qname
        self.is_ctor = is_ctor


class FileFacts:
    def __init__(self, rel: str):
        self.rel = rel
        # (kind, line, detail, enclosing FuncInfo or None); kind is the
        # FACT_RULES key.
        self.facts: list[tuple[str, int, str, FuncInfo | None]] = []
        self.notes: dict[int, set[str]] = {}
        self.cold_tu = False
        # atomic name -> [(order, line, in_ctor)], for the mixed-order check
        self.atomic_loads: dict[str, list[tuple[str, int, bool]]] = {}
        self.atomic_stores: dict[str, list[tuple[str, int, bool]]] = {}


def _match_forward(tokens, start, open_p, close_p):
    """Index of the token closing tokens[start] (which must be open_p)."""
    depth = 0
    i = start
    n = len(tokens)
    while i < n:
        t = tokens[i]
        if t.kind == "punct":
            if t.text == open_p:
                depth += 1
            elif t.text == close_p:
                depth -= 1
                if depth == 0:
                    return i
        i += 1
    return n - 1


def _match_angle(tokens, start):
    """Close a template argument list opened at tokens[start] == '<'.
    Tracks nesting of <> and gives up at `;` or `{` (not a template after
    all)."""
    depth = 0
    i, n = start, len(tokens)
    while i < n:
        text = tokens[i].text
        if text == "<":
            depth += 1
        elif text == ">":
            depth -= 1
            if depth == 0:
                return i
        elif text == ">>":
            depth -= 2
            if depth <= 0:
                return i
        elif text in (";", "{"):
            return i
        i += 1
    return n - 1


def _is_call(tokens, i) -> bool:
    """tokens[i] is called: `name(` or `name<...>(`."""
    j = i + 1
    if j < len(tokens) and tokens[j].text == "<":
        j = _match_angle(tokens, j) + 1
    return j < len(tokens) and tokens[j].text == "("


def _collect_decl_types(tokens, names: frozenset) -> set[str]:
    """Variable names declared with a template type whose name is in
    `names` (e.g. atomic, unordered_map): pattern `name< ... > var`."""
    found: set[str] = set()
    i, n = 0, len(tokens)
    while i < n:
        t = tokens[i]
        if t.kind == "id" and t.text in names and i + 1 < n \
                and tokens[i + 1].text == "<":
            close = _match_angle(tokens, i + 1)
            j = close + 1
            if j < n and tokens[j].kind == "id" \
                    and tokens[j].text not in CPP_KEYWORDS:
                found.add(tokens[j].text)
            i = close + 1
            continue
        i += 1
    return found


def parse_file(rel: str, text: str) -> FileFacts:
    tokens, comments = lex(text)
    facts = FileFacts(rel)
    facts.notes = collect_annotations(comments)
    facts.cold_tu = any(
        "cold-tu" in facts.notes.get(line, set()) for line in range(1, 31))
    owners = _function_owners(tokens)
    _scan(tokens, owners, facts)
    return facts


def _function_owners(tokens) -> list[FuncInfo | None]:
    """Per token, the function definition it lies in (from the name through
    any initializer list to the closing `}`), or None at namespace/class
    scope."""
    n = len(tokens)
    owners: list[FuncInfo | None] = [None] * n
    scope: list[tuple[str, str]] = []  # (kind: ns|class|block, name)
    stmt_start = 0  # token index where the current statement began
    i = 0
    while i < n:
        t = tokens[i]
        if t.kind == "pp":
            i += 1
            stmt_start = i
            continue
        if t.kind == "punct" and t.text in (";", "}"):
            if t.text == "}" and scope:
                scope.pop()
            i += 1
            stmt_start = i
            continue
        if t.kind == "punct" and t.text == "{":
            scope.append(_classify_brace(tokens[stmt_start:i]))
            i += 1
            stmt_start = i
            continue
        # Functions only appear at namespace/class scope; a `name(` inside a
        # block is a call or an initializer.
        if t.kind == "id" and t.text not in CPP_KEYWORDS and i + 1 < n \
                and tokens[i + 1].text == "(" \
                and not any(kind == "block" for kind, _ in scope):
            res = _try_function(tokens, i, stmt_start, scope)
            if res is not None:
                fn, end = res
                if fn is not None:
                    owners[i:end] = [fn] * (end - i)
                i = stmt_start = end
                continue
        i += 1
    return owners


def _classify_brace(head):
    """Classify the construct a `{` opens, from its heading tokens."""
    ids = [t.text for t in head if t.kind == "id"]
    if "namespace" in ids:
        # `namespace a::b {` / anonymous
        names = [t for t in ids if t not in CPP_KEYWORDS]
        return ("ns", names[-1] if names else "<anon>")
    if any(k in ids for k in ("class", "struct", "union", "enum")):
        has_paren = any(t.text == "(" for t in head)
        if not has_paren:
            # `struct X : Base {` / `struct Outer::X {` — the name is the
            # last (possibly qualified) id before the base clause.
            for idx, t in enumerate(head):
                if t.kind == "id" and t.text in ("class", "struct", "union",
                                                 "enum"):
                    names, prev = [], ""
                    for u in head[idx + 1:]:
                        if u.text == ":":
                            break
                        if u.kind == "id" and u.text not in CPP_KEYWORDS:
                            names = (names if prev == "::" else []) + [u.text]
                        prev = u.text
                    if names:
                        return ("class", "::".join(names))
                    break
            return ("class", "<anon>")
    return ("block", "")


def _try_function(tokens, name_idx, stmt_start, scope):
    """tokens[name_idx] is an identifier followed by `(`. For a function
    DEFINITION return (FuncInfo, index after its closing `}`); for a
    declaration return (None, index after its `;`); otherwise None."""
    n = len(tokens)
    close_paren = _match_forward(tokens, name_idx + 1, "(", ")")
    if close_paren >= n - 1:
        return None

    # Qualified name: walk back over `id ::` pairs.
    qparts = [tokens[name_idx].text]
    j = name_idx - 1
    while j - 1 >= stmt_start and tokens[j].text == "::" \
            and tokens[j - 1].kind == "id":
        qparts.insert(0, tokens[j - 1].text)
        j -= 2

    # Scan past trailing qualifiers / attribute macros / ctor initializers.
    i = close_paren + 1
    depth = 0
    colon_state = False
    while i < n:
        text = tokens[i].text
        if depth == 0 and text == ";":
            return None, i + 1
        if depth == 0 and text == "{":
            if colon_state and tokens[i - 1].kind == "id":
                # Braced member initializer `a_{...}` — skip it.
                i = _match_forward(tokens, i, "{", "}") + 1
                continue
            break
        if depth == 0 and text == "}":
            return None
        if depth == 0 and text == ":":
            colon_state = True
        elif text == "(":
            depth += 1
        elif text == ")":
            depth -= 1
        i += 1
    else:
        return None

    body_close = _match_forward(tokens, i, "{", "}")
    class_names = [name for kind, name in scope if kind == "class"]
    qname = "::".join([name for _, name in scope if name] + qparts)
    is_ctor = (len(qparts) >= 2 and qparts[-1] == qparts[-2]) or (
        bool(class_names) and qparts[-1] == class_names[-1].split("::")[-1])
    return FuncInfo(qname, is_ctor), body_close + 1


def _scan(tokens, owners, facts: FileFacts):
    """Record every rule fact in the file, each tagged with the function
    (if any) that encloses it."""
    atomic_vars = _collect_decl_types(tokens, frozenset(("atomic",)))
    unordered_vars = _collect_decl_types(tokens, UNORDERED_TYPES)
    n = len(tokens)

    def add(kind, detail):  # binds the loop's current `t` and `fn`
        facts.facts.append((kind, t.line, detail, fn))

    for i, t in enumerate(tokens):
        fn = owners[i]
        if t.kind == "pp":
            m = INTRINSIC_PP_RE.search(t.text)
            if m:
                add("intrinsic", m.group(0).strip())
            continue
        if t.kind != "id":
            continue
        text = t.text
        nxt = tokens[i + 1].text if i + 1 < n else ""
        prev = tokens[i - 1].text if i > 0 else ""

        # hot-path-alloc
        if text == "new":
            add("alloc", "new")
        elif text == "function" and prev == "::" and nxt == "<":
            add("alloc", "std::function")
        elif text in ALLOC_FREE_CALLS and _is_call(tokens, i):
            add("alloc", text)
        elif text in ALLOC_MEMBER_CALLS and prev in (".", "->") \
                and _is_call(tokens, i):
            add("alloc", text)

        # determinism
        if text == "fma" and nxt == "(":
            add("fma", "fma")
        elif text == "system_clock":
            add("ambient-time", "system_clock")
        elif text == "time" and nxt == "(":
            close = _match_forward(tokens, i + 1, "(", ")")
            args = [u.text for u in tokens[i + 2:close]]
            if args in (["NULL"], ["nullptr"], ["0"], []):
                add("ambient-time", "time()")
        elif text in AMBIENT_RNG_NAMES:
            add("ambient-rng", text)
        elif text == "for" and nxt == "(":
            close = _match_forward(tokens, i + 1, "(", ")")
            inner = tokens[i + 2:close]
            colon = next((k for k, u in enumerate(inner) if u.text == ":"),
                         None)
            if colon is not None:
                hits = {u.text for u in inner[colon + 1:]} & unordered_vars
                if hits:
                    add("unordered-iter", sorted(hits)[0])

        # stdout
        if text in ("cout", "stdout") or (text in ("printf", "puts")
                                          and nxt == "("):
            add("stdout", text)

        # intrinsics
        if (INTRINSIC_CALL_RE.fullmatch(text) and nxt == "(") \
                or INTRINSIC_TYPE_RE.fullmatch(text):
            add("intrinsic", text)

        # obs-discipline: direct construction
        if text in ("ScopedStageTimer", "TraceSpan") and prev == "::":
            add("obs-direct", f"obs::{text}")

        # Atomics: operator form ++x / x++ / x op= v.
        if text in atomic_vars:
            if prev in ("++", "--") or nxt in ("++", "--"):
                add("atomic-op", f"{text}++")
            elif nxt in ("=", "+=", "-=", "&=", "|=", "^=") and (
                    i == 0 or (tokens[i - 1].kind == "punct" and prev in (
                        ";", "{", "}", "(", ",", ":"))):
                # Only statement-position assignments: `x = v;` after
                # `;`/`{`/`(`/`,`. A preceding identifier means `x` is being
                # *declared* (`std::size_t seq = ...` shadowing an atomic
                # member, as in spsc_ring.h) — not an atomic op.
                add("atomic-op", f"{text} {nxt}")

        # Member calls `.name(` / `->name(`: atomics and obs recording.
        if prev not in (".", "->") or nxt != "(":
            continue
        close = _match_forward(tokens, i + 1, "(", ")")
        arg_ids = [u.text for u in tokens[i + 2:close] if u.kind == "id"]
        recv_name = tokens[i - 2].text if i >= 2 \
            and tokens[i - 2].kind == "id" else ""
        if text in ATOMIC_MEMBER_CALLS and recv_name in atomic_vars:
            order = next((a for a in arg_ids if a in MEMORY_ORDERS), "")
            if not order:
                add("atomic-noorder", f"{recv_name}.{text}")
            if text in ("load", "store"):
                target = (facts.atomic_loads if text == "load"
                          else facts.atomic_stores)
                target.setdefault(recv_name, []).append(
                    (order, t.line, fn is not None and fn.is_ctor))
        head = arg_ids[:8]
        if (text == "Add" and "obs" in head and "Counter" in head) \
                or (text == "Set" and "obs" in head and "Gauge" in head) \
                or text in ("RecordStageNs", "SampleIngestTick"):
            add("obs-direct", f"Registry::{text}")


# ---------------------------------------------------------------------------
# Rules
# ---------------------------------------------------------------------------

class Finding:
    def __init__(self, rule, path, line, func, text):
        self.rule = rule
        self.path = path
        self.line = line
        self.func = func
        self.text = text

    def __str__(self):
        where = f" (in {self.func})" if self.func else ""
        return f"{self.path}:{self.line}: [{self.rule}]{where} {self.text}"

    def as_dict(self):
        return {"rule": self.rule, "file": self.path, "line": self.line,
                "function": self.func, "text": self.text}


def in_dirs(rel: str, dirs) -> bool:
    return any(rel.startswith(d + "/") for d in dirs)


# fact kind -> (rule, scope predicate over FileFacts, message template)
FACT_RULES = {
    "alloc": (
        "hot-path-alloc",
        lambda f: in_dirs(f.rel, HOT_PATH_DIRS) and not f.cold_tu,
        "`{}` allocates in a hot-path TU — hoist to setup or annotate "
        "`// mulink-lint: allow(alloc): <why>`"),
    "fma": (
        "determinism", lambda f: not in_dirs(f.rel, (KERNEL_DIR,)),
        "std::fma outside src/kernels — the kernel layer owns the "
        "FP-contraction policy (DESIGN.md §14); contracted rounding breaks "
        "cross-backend bit-equality"),
    "unordered-iter": (
        "determinism", lambda f: True,
        "range-for over unordered container `{}` — iteration order is "
        "unspecified; sort or use an ordered mirror before anything "
        "serialized"),
    "ambient-time": (
        "determinism", lambda f: not RNG_HOME.match(f.rel),
        "wall-clock source `{}` — scores and artifacts must derive only from "
        "inputs and seeds (steady_clock timing is fine)"),
    "ambient-rng": (
        "determinism", lambda f: not RNG_HOME.match(f.rel),
        "ambient RNG `{}` outside src/common/rng — draw through the forkable "
        "mulink::Rng"),
    "atomic-noorder": (
        "atomics", lambda f: True,
        "`{}` without an explicit memory_order — seq_cst-by-default hides "
        "the intended ordering; say it out loud"),
    "atomic-op": (
        "atomics", lambda f: True,
        "operator-form atomic access `{}` is seq_cst by definition — use "
        "fetch_add/store/load with an explicit order"),
    "obs-direct": (
        "obs-discipline",
        lambda f: in_dirs(f.rel, ("src",)) and not in_dirs(f.rel, (OBS_DIR,)),
        "direct obs recording `{}` — route through the MULINK_OBS_* macros "
        "so the null-sink check and the MULINK_OBS kill switch stay total"),
    "stdout": (
        "stdout", lambda f: in_dirs(f.rel, ("src",)),
        "stdout write `{}` in library code — return data or take an "
        "std::ostream&; printing belongs to tools/examples/bench"),
    "intrinsic": (
        "intrinsics", lambda f: not in_dirs(f.rel, (KERNEL_DIR,)),
        "SIMD intrinsic `{}` outside src/kernels — the kernel layer owns "
        "vector code so scalar/AVX2 parity stays testable"),
}


def _mixed_order_findings(facts: FileFacts) -> list[Finding]:
    """Relaxed store outside a ctor to a member that has acquire/seq_cst
    loads in the same file — the release edge is missing."""
    out = []
    for name, stores in facts.atomic_stores.items():
        loads = facts.atomic_loads.get(name, [])
        if not any(order in ("memory_order_acquire", "acquire",
                             "memory_order_seq_cst", "seq_cst")
                   for order, _, _ in loads):
            continue
        for order, line, in_ctor in stores:
            if in_ctor or order not in ("memory_order_relaxed", "relaxed"):
                continue
            if allowed(facts.notes, line, "atomics"):
                continue
            out.append(Finding(
                "atomics", facts.rel, line, "",
                f"relaxed store to `{name}`, which is acquire-loaded "
                "elsewhere in this file — the acquire has no release edge "
                "to pair with (constructor seeding is exempt)"))
    return out


def analyze(all_facts: dict[str, FileFacts], active) -> list[Finding]:
    out = []
    for facts in all_facts.values():
        for kind, line, detail, fn in facts.facts:
            rule, in_scope, message = FACT_RULES[kind]
            if rule not in active or not in_scope(facts) \
                    or allowed(facts.notes, line, RULE_TAG[rule]):
                continue
            out.append(Finding(rule, facts.rel, line,
                               fn.qname if fn is not None else "",
                               message.format(detail)))
        if "atomics" in active:
            out.extend(_mixed_order_findings(facts))
    out.sort(key=lambda f: (f.path, f.line, f.rule))
    return out


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------

def rel_posix(path: Path, root: Path) -> str:
    try:
        return path.resolve().relative_to(root.resolve()).as_posix()
    except ValueError:
        return path.as_posix()


def collect_files(root: Path, args_files: list[str]) -> list[Path]:
    if args_files:
        files = []
        for name in args_files:
            p = Path(name)
            if not p.is_absolute():
                p = root / p
            if not p.exists():
                raise UsageError(f"no such file: {name}")
            files.append(p)
        return files
    files = []
    for top in SCAN_DIRS:
        base = root / top
        if base.is_dir():
            files.extend(p for p in sorted(base.rglob("*"))
                         if p.suffix in SOURCE_SUFFIXES and p.is_file())
    return files


def run(argv, stdout=sys.stdout, stderr=sys.stderr) -> int:
    parser = argparse.ArgumentParser(
        prog="mulink-analyze", add_help=True,
        description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=".", help="repository root")
    parser.add_argument("--rule", action="append", choices=RULES,
                        help="run only this rule (repeatable; default: all)")
    parser.add_argument("--list-rules", action="store_true")
    parser.add_argument("--json", action="store_true", help="machine output")
    parser.add_argument("files", nargs="*",
                        help="files to analyze (default: src, tools, "
                        "examples, bench)")
    try:
        opts = parser.parse_args(argv)
    except SystemExit as err:
        return EXIT_USAGE if err.code not in (0, None) else EXIT_CLEAN

    if opts.list_rules:
        for rule in RULES:
            print(rule, file=stdout)
        return EXIT_CLEAN

    root = Path(opts.root)
    if not root.is_dir():
        print(f"mulink-analyze: no such directory: {opts.root}", file=stderr)
        return EXIT_USAGE

    try:
        files = collect_files(root, opts.files)
    except UsageError as err:
        print(f"mulink-analyze: {err}", file=stderr)
        return EXIT_USAGE

    all_facts: dict[str, FileFacts] = {}
    for path in files:
        rel = rel_posix(path, root)
        try:
            text = path.read_text(encoding="utf-8", errors="replace")
        except OSError as err:
            print(f"mulink-analyze: cannot read {path}: {err}", file=stderr)
            return EXIT_USAGE
        all_facts[rel] = parse_file(rel, text)

    findings = analyze(all_facts, set(opts.rule or RULES))

    if opts.json:
        json.dump({
            "files_scanned": len(files),
            "findings": [f.as_dict() for f in findings],
        }, stdout, indent=2)
        print(file=stdout)
    else:
        for f in findings:
            print(str(f), file=stdout)
        print(f"mulink-analyze: {len(files)} files, "
              f"{len(findings)} finding(s)", file=stdout)
    return EXIT_FINDINGS if findings else EXIT_CLEAN


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
