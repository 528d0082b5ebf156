#!/usr/bin/env python3
"""vodlint — project-specific determinism & invariant checker.

Generic tools (clang-tidy, compiler warnings) cannot see the project's own
correctness contracts.  vodlint enforces the ones that keep every simulation
a deterministic function of its seed, and the unit/contract discipline that
keeps module APIs honest:

  [unordered-iter]  No iteration over std::unordered_map/std::unordered_set
                    in library code (src/).  Hash-order iteration leaks the
                    container's bucket layout into routing, scheduling and
                    cache-eviction decisions — and floating-point reductions
                    are not associative, so even "just summing" in hash
                    order can flip a comparison downstream.  Waive loops
                    whose result is provably order-insensitive with
                    // vodlint:ordered-ok(<reason>).

  [entropy]         No rand()/srand(), std::random_device, wall-clock or
                    time-of-day reads outside src/common/rng.h.  Every
                    stochastic draw must flow through a seeded vod::Rng and
                    every clock through SimTime.  Waive with
                    // vodlint:entropy-ok(<reason>).  src/obs/ is exempt as
                    a directory: the profiling hooks there read the wall
                    clock by design, and their timings never flow back into
                    the simulation (DESIGN.md §11).

  [raw-units]       No raw `double` function parameters named *_seconds /
                    *_mbps / *_mb in headers.  Quantities crossing an API
                    must use SimTime/Duration/Mbps/MegaBytes so the type
                    system, not a naming convention, carries the unit.
                    (Struct fields keep the suffix convention: the name is
                    the documentation there, and no call site can transpose
                    them.)  Waive with // vodlint:units-ok(<reason>).

  [raw-throw]       No `throw` of raw types (string literals, numbers,
                    bools) anywhere, and no direct `throw` of exception
                    objects outside src/common/contract.h — contract
                    violations go through require()/ensure()/require_found()
                    or their fail_*() siblings so messages stay lazy and the
                    exception taxonomy stays consistent.  Waive with
                    // vodlint:throw-ok(<reason>).

  [eager-message]   No eagerly-built std::string messages (concatenation,
                    std::to_string) passed to require()/ensure()/
                    require_found().  The message argument is evaluated even
                    when the condition holds, so hot-path checks must pass a
                    string literal or a lazy lambda.  Waive with
                    // vodlint:contract-ok(<reason>).

  [dense-store]     No node-based std::map/std::set keyed by an entity id
                    in the directories that hold per-id stores
                    (src/service, src/net, src/stream, src/sim, src/db,
                    src/vra).  SessionId and FlowId are issued
                    monotonically and churn by the million: their stores
                    use the dense SlotMap (DESIGN.md §12).  NodeId, LinkId
                    and VideoId are issued densely from 0: their tables use
                    IdVector (or a sorted std::vector for small sets).  A
                    node-based container pays pointer chasing and per-entry
                    allocation on every lookup.  Compound keys (a pair
                    that starts with an id) pass; sparse maps can be waived
                    with // vodlint:dense-ok(<reason>).

Shared-state rules.  The simulator is one serial event loop, and its
replay guarantee holds only while every piece of process-wide mutable state
is inventoried.  vodlint builds a lightweight *symbol index* over the
scanned tree — namespace-scope mutable objects and `static`-lifetime locals
and data members (the singleton pattern) — and enforces:

  [shared-mutable-global]  Any non-const object with static storage
                    duration: a namespace-scope definition, a function-
                    local `static`, or a `static` data member.  Each one is
                    state that outlives a run and leaks between runs in one
                    process.  Suppress a deliberately-kept global with
                    // vodlint:allow(shared-mutable-global: <reason>).

  [raw-thread]      Any std::thread / std::jthread / std::async /
                    .detach().  The simulator is serial by design; a thread
                    makes event order depend on the scheduler.  Suppress
                    with // vodlint:allow(raw-thread: <reason>).

Usage:
    vodlint.py [--root DIR] [PATH...]      # default PATH: src
    vodlint.py --self-test                 # run the embedded rule fixtures
    vodlint.py --report FILE [PATH...]     # also write a JSON report
                                           # (per-rule counts + locations,
                                           # suppressed findings included)
    vodlint.py --expect RULE=N [PATH...]   # exit 0 iff active findings
                                           # match exactly (fixture tests)

Directory walks skip tools/vodlint/fixtures/ — those files carry
*intentional* violations for the fixture ctest entries; pass a fixture path
explicitly (as the --expect tests do) to lint one.

Exit status: 0 when clean, 1 on unwaived violations (or self-test/--expect
failure), 2 on usage errors.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from dataclasses import dataclass

# --------------------------------------------------------------------------
# Model
# --------------------------------------------------------------------------


@dataclass
class Violation:
    path: str
    line: int  # 1-based
    rule: str
    message: str
    suppressed: bool = False  # waived inline; reported, never fails the run

    def render(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


WAIVERS = {
    "unordered-iter": "ordered-ok",
    "entropy": "entropy-ok",
    "raw-units": "units-ok",
    "raw-throw": "throw-ok",
    "eager-message": "contract-ok",
    "dense-store": "dense-ok",
}

CPP_EXTENSIONS = (".h", ".hpp", ".cc", ".cpp", ".cxx")

# Files exempt from specific rules (path suffix match, '/'-normalized).
ENTROPY_EXEMPT = ("src/common/rng.h",)
# Whole directories exempt from [entropy] (path substring match): the
# observability layer's wall-clock profiler is quarantined there and is
# observe-only — timings never feed back into any simulation decision.
ENTROPY_EXEMPT_DIRS = ("src/obs/",)
THROW_EXEMPT = ("src/common/contract.h",)

# Every rule vodlint knows (report ordering / --expect validation).
ALL_RULES = (
    "unordered-iter",
    "entropy",
    "raw-units",
    "raw-throw",
    "eager-message",
    "dense-store",
    "shared-mutable-global",
    "raw-thread",
)

# Intentional-violation fixtures for the ctest --expect entries; directory
# walks skip them so whole-tree runs stay clean.
FIXTURE_DIR_FRAGMENT = "tools/vodlint/fixtures"


# --------------------------------------------------------------------------
# Source handling
# --------------------------------------------------------------------------


def strip_comments_and_strings(text: str) -> str:
    """Blanks out comments and string/char literals, preserving offsets.

    Newlines survive so line numbers stay valid.  Waiver comments are read
    from the *raw* text, never from this stripped view.
    """
    out = []
    i, n = 0, len(text)
    state = "code"  # code | line-comment | block-comment | string | char
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line-comment"
                out.append("  ")
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = "block-comment"
                out.append("  ")
                i += 2
                continue
            if c == '"':
                state = "string"
                out.append('"')
                i += 1
                continue
            if c == "'":
                state = "char"
                out.append("'")
                i += 1
                continue
            out.append(c)
        elif state == "line-comment":
            if c == "\n":
                state = "code"
                out.append("\n")
            else:
                out.append(" ")
        elif state == "block-comment":
            if c == "*" and nxt == "/":
                state = "code"
                out.append("  ")
                i += 2
                continue
            out.append("\n" if c == "\n" else " ")
        elif state == "string":
            if c == "\\":
                out.append("  ")
                i += 2
                continue
            if c == '"':
                state = "code"
                out.append('"')
            else:
                out.append("\n" if c == "\n" else " ")
        elif state == "char":
            if c == "\\":
                out.append("  ")
                i += 2
                continue
            if c == "'":
                state = "code"
                out.append("'")
            else:
                out.append(" ")
        i += 1
    return "".join(out)


def has_waiver(raw_lines: list[str], index: int, tag: str) -> bool:
    """True when line `index` (0-based) carries the waiver, or one appears
    in the contiguous run of // comment lines directly above it."""
    needle = f"vodlint:{tag}("
    if needle in raw_lines[index]:
        return True
    j = index - 1
    while j >= 0 and raw_lines[j].lstrip().startswith("//"):
        if needle in raw_lines[j]:
            return True
        j -= 1
    return False


def statement_from(lines: list[str], index: int, max_span: int = 8) -> str:
    """Joins up to `max_span` lines starting at `index` until parens balance."""
    depth = 0
    parts = []
    for j in range(index, min(index + max_span, len(lines))):
        parts.append(lines[j])
        depth += lines[j].count("(") - lines[j].count(")")
        if depth <= 0 and j > index:
            break
        if depth <= 0 and "(" in lines[j]:
            break
    return " ".join(parts)


def has_allow(raw_lines: list[str], index: int, rule: str) -> bool:
    """True when line `index` (0-based) carries a
    // vodlint:allow(<rule>...) suppression, or one appears in the
    contiguous run of // comment lines directly above it — multi-line
    justifications are encouraged, so the whole comment block counts."""
    needle = re.compile(r"vodlint:\s*allow\(\s*" + re.escape(rule) + r"\b")
    if needle.search(raw_lines[index]):
        return True
    j = index - 1
    while j >= 0 and raw_lines[j].lstrip().startswith("//"):
        if needle.search(raw_lines[j]):
            return True
        j -= 1
    return False


# --------------------------------------------------------------------------
# Scope classification & the shared-state symbol index
# --------------------------------------------------------------------------

_SCOPE_NAMESPACE = "namespace"
_SCOPE_TYPE = "type"
_SCOPE_BLOCK = "block"

_TYPE_BRACE = re.compile(r"\b(?:class|struct|union|enum)\b[^()=]*$")
_NAMESPACE_BRACE = re.compile(r"\bnamespace\b[^()]*$")


def scope_stacks(stripped: str) -> list[list[str]]:
    """For each line of the stripped text, the brace-scope stack in force at
    the *start* of that line.  Scopes are classified by the statement text
    preceding their '{': namespace / type (class, struct, union, enum) /
    block (function bodies, control flow, lambdas, initializers)."""
    stacks: list[list[str]] = []
    stack: list[str] = []
    head = ""  # statement text accumulated since the last ; { or }
    for line in stripped.split("\n"):
        stacks.append(list(stack))
        for ch in line:
            if ch == "{":
                if _NAMESPACE_BRACE.search(head):
                    stack.append(_SCOPE_NAMESPACE)
                elif _TYPE_BRACE.search(head):
                    stack.append(_SCOPE_TYPE)
                else:
                    stack.append(_SCOPE_BLOCK)
                head = ""
            elif ch == "}":
                if stack:
                    stack.pop()
                head = ""
            elif ch == ";":
                head = ""
            else:
                head += ch
        head += " "
    return stacks


@dataclass
class SharedSymbol:
    name: str
    path: str
    line: int  # 1-based
    kind: str  # "global" | "static"
    suppressed: bool = False


# A declaration-looking statement: optional qualifiers, a type, one
# identifier, then an initializer or terminator.  Lines with '(' before the
# name's terminator are functions/prototypes and are filtered separately.
_DECL_NAME = re.compile(r"(\w+)\s*(?:\[[^\]]*\])?\s*(?:=[^=]|;|\{)")
_DECL_SKIP = re.compile(
    r"^\s*(?:#|//|using\b|typedef\b|template\b|friend\b|return\b|case\b|"
    r"public:|private:|protected:|extern\b|namespace\b|class\b|struct\b|"
    r"union\b|enum\b|goto\b|if\b|for\b|while\b|switch\b|else\b|do\b)"
)
_CONST_MARK = re.compile(r"\b(?:const|constexpr|consteval)\b")
_STATIC_DECL = re.compile(r"\bstatic\s")


def _decl_name(line: str) -> str | None:
    """The declared identifier on a single-line declaration, or None when
    the line does not look like an object declaration (functions, control
    flow, expressions)."""
    if _DECL_SKIP.search(line):
        return None
    m = _DECL_NAME.search(line)
    if m is None:
        return None
    # '(' before the declarator's terminator means a function declaration,
    # definition, or call statement — not an object.
    if "(" in line[: m.start(1)]:
        return None
    name = m.group(1)
    if name in ("operator", "delete", "new"):
        return None
    # Assignment to an existing object (`foo = 3;`) has no type token before
    # the name; require at least one other identifier-ish token first.
    before = line[: m.start(1)]
    if not re.search(r"[\w>\*&]\s*$", before) or not re.search(r"\w", before):
        return None
    return name


def build_symbol_index(
    sources: dict[str, str], stripped_texts: dict[str, str]
) -> list[SharedSymbol]:
    """Indexes shared mutable state across every scanned translation unit:
    namespace-scope mutable objects and static-lifetime locals/members (the
    singleton pattern)."""
    symbols: list[SharedSymbol] = []
    for path in sorted(sources):
        raw_lines = sources[path].splitlines()
        stripped = stripped_texts[path]
        stripped_lines = stripped.split("\n")
        stacks = scope_stacks(stripped)
        paren_depth = 0  # unbalanced '(' carried across lines
        for i, line in enumerate(stripped_lines):
            at_line_start = paren_depth
            paren_depth = max(
                0, paren_depth + line.count("(") - line.count(")"))
            if at_line_start > 0:
                # Continuation of a parameter list / call — a default
                # argument like `Trace* t = nullptr)` is not a declaration.
                continue
            if not line.strip():
                continue
            stack = stacks[i] if i < len(stacks) else []
            suppressed = has_allow(raw_lines, min(i, len(raw_lines) - 1),
                                   "shared-mutable-global")
            if _STATIC_DECL.search(line) and not _CONST_MARK.search(line):
                # `static` object declarations at any scope: namespace-
                # scope internal linkage, function-local singletons, and
                # static data members all share one instance process-wide.
                name = _decl_name(
                    re.sub(r"\b(?:static|inline|thread_local)\b", " ", line))
                if name is not None:
                    symbols.append(
                        SharedSymbol(name, path, i + 1, "static", suppressed))
                continue
            if stack and not all(s == _SCOPE_NAMESPACE for s in stack):
                continue
            if _CONST_MARK.search(line):
                continue
            name = _decl_name(re.sub(r"\binline\b", " ", line))
            if name is not None:
                symbols.append(
                    SharedSymbol(name, path, i + 1, "global", suppressed))
    return symbols


# --------------------------------------------------------------------------
# Rules
# --------------------------------------------------------------------------

UNORDERED_DECL = re.compile(
    r"std\s*::\s*unordered_(?:map|set|multimap|multiset)\s*<[^;{}]*?>\s+"
    r"(\w+)\s*[;={(]"
)


def collect_unordered_names(stripped_texts: dict[str, str]) -> set[str]:
    """Names of members/variables declared with an unordered container,
    collected repo-wide so loops in .cpp files see declarations from .h."""
    names: set[str] = set()
    for text in stripped_texts.values():
        for match in UNORDERED_DECL.finditer(text):
            names.add(match.group(1))
    return names


def check_unordered_iteration(
    path: str, raw: list[str], stripped: list[str], unordered: set[str]
) -> list[Violation]:
    if not unordered:
        return []
    range_for = re.compile(r"\bfor\s*\(.*:\s*[\w.\->]*?\b(\w+)\s*\)")
    explicit_iter = re.compile(r"\b(\w+)\s*\.\s*(?:begin|cbegin|rbegin)\s*\(")
    out = []
    for i, line in enumerate(stripped):
        hits = set()
        m = range_for.search(line)
        if m and m.group(1) in unordered:
            hits.add(m.group(1))
        for m in explicit_iter.finditer(line):
            if m.group(1) in unordered:
                hits.add(m.group(1))
        for name in sorted(hits):
            out.append(
                Violation(
                    path,
                    i + 1,
                    "unordered-iter",
                    f"iteration over unordered container '{name}' leaks hash "
                    "order into results; use an ordered container/sorted "
                    "index or waive with // vodlint:ordered-ok(<reason>)",
                    suppressed=has_waiver(raw, i, WAIVERS["unordered-iter"]),
                )
            )
    return out


ENTROPY_PATTERNS = [
    (re.compile(r"(?<![\w:])s?rand\s*\("), "rand()/srand()"),
    (re.compile(r"\brandom_device\b"), "std::random_device"),
    (
        re.compile(r"\b(?:system_clock|steady_clock|high_resolution_clock)\b"),
        "wall-clock reads",
    ),
    (re.compile(r"\bgettimeofday\b"), "gettimeofday()"),
    (re.compile(r"(?<![\w.:>])time\s*\(\s*(?:NULL|nullptr|0|&)"), "time()"),
    (re.compile(r"(?<![\w.:>])clock\s*\(\s*\)"), "clock()"),
    (re.compile(r"\b(?:localtime|gmtime|mktime)\s*\("), "calendar time"),
]


def check_entropy(path: str, raw: list[str], stripped: list[str]) -> list[Violation]:
    norm = path.replace(os.sep, "/")
    if any(norm.endswith(suffix) for suffix in ENTROPY_EXEMPT):
        return []
    if any(fragment in norm for fragment in ENTROPY_EXEMPT_DIRS):
        return []
    out = []
    for i, line in enumerate(stripped):
        for pattern, what in ENTROPY_PATTERNS:
            if pattern.search(line):
                out.append(
                    Violation(
                        path,
                        i + 1,
                        "entropy",
                        f"{what} outside src/common/rng.h breaks "
                        "seed-reproducibility; draw through vod::Rng / "
                        "SimTime or waive with "
                        "// vodlint:entropy-ok(<reason>)",
                        suppressed=has_waiver(raw, i, WAIVERS["entropy"]),
                    )
                )
    return out


RAW_UNIT_PARAM = re.compile(
    r"\bdouble\s+(\w+_(?:seconds|mbps|mb))\s*(?:=\s*[^,();]*)?[,)]"
)


def check_raw_units(path: str, raw: list[str], stripped: list[str]) -> list[Violation]:
    if not path.endswith((".h", ".hpp")):
        return []
    out = []
    for i, line in enumerate(stripped):
        for m in RAW_UNIT_PARAM.finditer(line):
            out.append(
                Violation(
                    path,
                    i + 1,
                    "raw-units",
                    f"raw double parameter '{m.group(1)}' crosses an API; "
                    "use SimTime/Duration/Mbps/MegaBytes or waive with "
                    "// vodlint:units-ok(<reason>)",
                    suppressed=has_waiver(raw, i, WAIVERS["raw-units"]),
                )
            )
    return out


RAW_THROW = re.compile(r"\bthrow\s+(?:\"|L\"|u8\"|'|[0-9]|true\b|false\b|-)")
DIRECT_THROW = re.compile(r"\bthrow\s+[A-Za-z_:]")


def check_throws(path: str, raw: list[str], stripped: list[str]) -> list[Violation]:
    norm = path.replace(os.sep, "/")
    exempt = any(norm.endswith(suffix) for suffix in THROW_EXEMPT)
    out = []
    for i, line in enumerate(stripped):
        if RAW_THROW.search(line):
            out.append(
                Violation(
                    path,
                    i + 1,
                    "raw-throw",
                    "throwing a raw value (literal/number) — throw an "
                    "exception type via the contract.h helpers",
                    suppressed=has_waiver(raw, i, WAIVERS["raw-throw"]),
                )
            )
            continue
        if exempt:
            continue
        if DIRECT_THROW.search(line):
            out.append(
                Violation(
                    path,
                    i + 1,
                    "raw-throw",
                    "direct throw outside contract.h; use require()/ensure()/"
                    "require_found() or fail_require()/fail_ensure()/"
                    "fail_lookup(), or waive with "
                    "// vodlint:throw-ok(<reason>)",
                    suppressed=has_waiver(raw, i, WAIVERS["raw-throw"]),
                )
            )
    return out


CONTRACT_CALL = re.compile(r"\b(require|ensure|require_found)\s*\(")
EAGER_MESSAGE = re.compile(r"std\s*::\s*to_string\s*\(|\"\s*\+|\+\s*\"|std\s*::\s*string\s*[({]")
LAZY_LAMBDA = re.compile(r"\[[&=]?\]\s*(?:\(\s*\))?\s*\{")


def check_eager_messages(
    path: str, raw: list[str], stripped: list[str]
) -> list[Violation]:
    out = []
    for i, line in enumerate(stripped):
        m = CONTRACT_CALL.search(line)
        if not m:
            continue
        stmt = statement_from(stripped, i)
        if EAGER_MESSAGE.search(stmt) and not LAZY_LAMBDA.search(stmt):
            out.append(
                Violation(
                    path,
                    i + 1,
                    "eager-message",
                    f"{m.group(1)}() message built eagerly (concatenation/"
                    "to_string) — it allocates even when the check passes; "
                    "pass a literal or a lazy lambda, or waive with "
                    "// vodlint:contract-ok(<reason>)",
                    suppressed=has_waiver(raw, i, WAIVERS["eager-message"]),
                )
            )
    return out


DENSE_STORE_DIRS = ("src/service/", "src/net/", "src/stream/", "src/sim/",
                    "src/db/", "src/vra/")
# Keyed by an id (not a pair or other compound key that merely starts with
# one): monotonic ids want SlotMap, densely-issued ones IdVector.
NODE_MAP_BY_ID = re.compile(
    r"std\s*::\s*(?:map|set|multimap|multiset)\s*<\s*"
    r"(?:\w+\s*::\s*)*(SessionId|FlowId|NodeId|LinkId|VideoId)\b"
)


def check_dense_store(
    path: str, raw: list[str], stripped: list[str]
) -> list[Violation]:
    norm = path.replace(os.sep, "/")
    if not any(fragment in norm for fragment in DENSE_STORE_DIRS):
        return []
    out = []
    for i, line in enumerate(stripped):
        m = NODE_MAP_BY_ID.search(line)
        if m is None:
            continue
        if m.group(1) in ("SessionId", "FlowId"):
            message = (
                f"node-based container keyed by {m.group(1)}; ids are "
                "monotonic and churn at scale — use SlotMap "
                "(common/slot_map.h) or waive with "
                "// vodlint:dense-ok(<reason>)"
            )
        else:
            message = (
                f"node-based container keyed by {m.group(1)}; ids are "
                "issued densely from 0 — use IdVector "
                "(common/id_vector.h) or a sorted std::vector, or waive "
                "with // vodlint:dense-ok(<reason>)"
            )
        out.append(
            Violation(path, i + 1, "dense-store", message,
                      suppressed=has_waiver(raw, i, WAIVERS["dense-store"])))
    return out


def check_shared_mutable_global(
    symbols: list[SharedSymbol],
) -> list[Violation]:
    out = []
    for sym in symbols:
        what = ("namespace-scope mutable object"
                if sym.kind == "global" else "static-lifetime object")
        out.append(
            Violation(
                sym.path,
                sym.line,
                "shared-mutable-global",
                f"{what} '{sym.name}' is process-wide state that leaks "
                "between runs; make it const, move it into an owning "
                "object, or suppress with "
                "// vodlint:allow(shared-mutable-global: <reason>)",
                suppressed=sym.suppressed,
            )
        )
    return out


RAW_THREAD_PATTERNS = [
    (re.compile(r"\bstd\s*::\s*thread\b"), "std::thread"),
    (re.compile(r"\bstd\s*::\s*jthread\b"), "std::jthread"),
    (re.compile(r"\bstd\s*::\s*async\b"), "std::async"),
    (re.compile(r"\.\s*detach\s*\(\s*\)"), ".detach()"),
]


def check_raw_thread(
    path: str, raw: list[str], stripped: list[str]
) -> list[Violation]:
    out = []
    for i, line in enumerate(stripped):
        for pattern, what in RAW_THREAD_PATTERNS:
            if pattern.search(line):
                out.append(
                    Violation(
                        path,
                        i + 1,
                        "raw-thread",
                        f"{what} in a serial simulator makes event order "
                        "depend on the OS scheduler; run independent seeds "
                        "as separate processes instead, or suppress with "
                        "// vodlint:allow(raw-thread: <reason>)",
                        suppressed=has_allow(raw, i, "raw-thread"),
                    )
                )
    return out


# --------------------------------------------------------------------------
# Driver
# --------------------------------------------------------------------------


def gather_files(root: str, paths: list[str]) -> list[str]:
    files = []
    for p in paths:
        full = p if os.path.isabs(p) else os.path.join(root, p)
        if os.path.isfile(full):
            files.append(full)
        elif os.path.isdir(full):
            for dirpath, dirnames, filenames in os.walk(full):
                if FIXTURE_DIR_FRAGMENT in dirpath.replace(os.sep, "/"):
                    dirnames[:] = []  # intentional violations; lint explicitly
                    continue
                for name in sorted(filenames):
                    if name.endswith(CPP_EXTENSIONS):
                        files.append(os.path.join(dirpath, name))
        else:
            print(f"vodlint: no such path: {full}", file=sys.stderr)
            sys.exit(2)
    return sorted(set(files))


def lint_sources(sources: dict[str, str]) -> list[Violation]:
    """Lints {path: text}.  Split out from main() so self-tests can feed
    synthetic files through the exact production path.  Returns every
    finding, suppressed ones included — callers decide whether a waived
    violation counts (the CLI exit code and self-test only look at active
    findings; the JSON report shows both)."""
    stripped_texts = {p: strip_comments_and_strings(t) for p, t in sources.items()}
    unordered = collect_unordered_names(stripped_texts)
    symbols = build_symbol_index(sources, stripped_texts)
    violations: list[Violation] = []
    for path in sorted(sources):
        raw_lines = sources[path].splitlines()
        stripped_lines = stripped_texts[path].splitlines()
        violations += check_unordered_iteration(
            path, raw_lines, stripped_lines, unordered
        )
        violations += check_entropy(path, raw_lines, stripped_lines)
        violations += check_raw_units(path, raw_lines, stripped_lines)
        violations += check_throws(path, raw_lines, stripped_lines)
        violations += check_eager_messages(path, raw_lines, stripped_lines)
        violations += check_dense_store(path, raw_lines, stripped_lines)
        violations += check_shared_mutable_global(
            [s for s in symbols if s.path == path]
        )
        violations += check_raw_thread(path, raw_lines, stripped_lines)
    return violations


def write_report(
    report_path: str, root: str, files: list[str], violations: list[Violation]
) -> None:
    import json

    rules = {
        rule: {"active": 0, "suppressed": 0} for rule in ALL_RULES
    }
    entries = []
    for v in violations:
        rules[v.rule]["suppressed" if v.suppressed else "active"] += 1
        entries.append(
            {
                "path": os.path.relpath(v.path, root),
                "line": v.line,
                "rule": v.rule,
                "suppressed": v.suppressed,
                "message": v.message,
            }
        )
    payload = {
        "files_scanned": len(files),
        "rules": rules,
        "violations": entries,
    }
    os.makedirs(os.path.dirname(report_path) or ".", exist_ok=True)
    with open(report_path, "w", encoding="utf-8") as f:
        json.dump(payload, f, indent=2, sort_keys=True)
        f.write("\n")


def parse_expectations(specs: list[str]) -> dict[str, int]:
    expected: dict[str, int] = {}
    for spec in specs:
        rule, sep, count = spec.partition("=")
        if not sep or rule not in ALL_RULES or not count.isdigit():
            print(
                f"vodlint: bad --expect '{spec}' (want RULE=N, RULE one of "
                f"{', '.join(ALL_RULES)})",
                file=sys.stderr,
            )
            sys.exit(2)
        expected[rule] = expected.get(rule, 0) + int(count)
    return expected


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="vodlint", add_help=True)
    parser.add_argument("--root", default=None, help="repo root (default: cwd)")
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument(
        "--report", default=None, metavar="FILE",
        help="write a JSON report (per-rule active/suppressed counts + "
        "locations)")
    parser.add_argument(
        "--expect", action="append", default=[], metavar="RULE=N",
        help="assert exactly N active findings of RULE (repeatable; "
        "unlisted rules must report zero) — exit 0 iff all match, for "
        "fixture ctest entries")
    parser.add_argument("paths", nargs="*", default=None)
    args = parser.parse_args(argv)

    if args.self_test:
        return self_test()

    root = args.root or os.getcwd()
    paths = args.paths or ["src"]
    files = gather_files(root, paths)
    sources = {}
    for path in files:
        with open(path, encoding="utf-8", errors="replace") as f:
            sources[path] = f.read()
    violations = lint_sources(sources)
    active = [v for v in violations if not v.suppressed]
    for v in violations:
        print(v.render() + (" (suppressed)" if v.suppressed else ""))
    if args.report:
        write_report(args.report, root, files, violations)

    if args.expect:
        expected = parse_expectations(args.expect)
        counts: dict[str, int] = {}
        for v in active:
            counts[v.rule] = counts.get(v.rule, 0) + 1
        failures = []
        for rule in ALL_RULES:
            want = expected.get(rule, 0)
            got = counts.get(rule, 0)
            if want != got:
                failures.append(f"{rule}: expected {want}, got {got}")
        if failures:
            print("vodlint: --expect mismatch: " + "; ".join(failures),
                  file=sys.stderr)
            return 1
        print(f"vodlint: expectations met over {len(files)} file(s)")
        return 0

    if active:
        suffix = (f" (+{len(violations) - len(active)} suppressed)"
                  if len(violations) > len(active) else "")
        print(f"vodlint: {len(active)} violation(s){suffix}", file=sys.stderr)
        return 1
    print(f"vodlint: {len(files)} file(s) clean")
    return 0


# --------------------------------------------------------------------------
# Self-test fixtures
# --------------------------------------------------------------------------

FIXTURES: list[tuple[str, dict[str, str], list[tuple[str, int]]]] = [
    (
        "unordered range-for flagged; waiver honoured; membership ops ok",
        {
            "src/a.h": (
                "#include <unordered_map>\n"
                "struct S {\n"
                "  std::unordered_map<int, double> flows_;\n"
                "};\n"
            ),
            "src/a.cpp": (
                "void f(S& s) {\n"
                "  for (const auto& [id, v] : s.flows_) {}\n"
                "  // vodlint:ordered-ok(pure max reduction)\n"
                "  for (const auto& [id, v] : s.flows_) {}\n"
                "  s.flows_.erase(3);\n"
                "}\n"
            ),
        },
        [("unordered-iter", 2)],
    ),
    (
        "explicit begin() iteration flagged",
        {
            "src/b.h": (
                "#include <unordered_set>\n"
                "struct B {\n"
                "  std::unordered_set<int> seen_;\n"
                "};\n"
            ),
            "src/b.cpp": "void f(B& b) { auto it = b.seen_.begin(); }\n",
        },
        [("unordered-iter", 1)],
    ),
    (
        "incidence-index containers (vector-of-vectors) iterate freely; an "
        "unordered index of the same shape is still flagged",
        {
            "src/h.h": (
                "#include <unordered_map>\n"
                "#include <vector>\n"
                "struct Net {\n"
                "  std::vector<std::vector<int>> link_flows_;\n"
                "  std::unordered_map<int, int> flow_slots_;\n"
                "};\n"
            ),
            "src/h.cpp": (
                "void sweep(Net& n) {\n"
                "  for (const auto& list : n.link_flows_) {\n"
                "    for (int id : list) {}\n"
                "  }\n"
                "  for (const auto& [id, slot] : n.flow_slots_) {}\n"
                "  if (n.flow_slots_.count(3) > 0) {}\n"
                "}\n"
            ),
        },
        [("unordered-iter", 5)],
    ),
    (
        "entropy sources flagged outside rng.h, allowed inside",
        {
            "src/c.cpp": (
                "int f() { return rand(); }\n"
                "void g() { t_ = std::chrono::system_clock::now(); }\n"
                "void h() { ok_ = network_.time(); }\n"  # member, not ::time()
            ),
            "src/common/rng.h": "struct R { std::random_device rd; };\n",
        },
        [("entropy", 1), ("entropy", 2)],
    ),
    (
        "entropy exempt in the src/obs/ quarantine directory, flagged "
        "elsewhere",
        {
            "src/obs/profile.h": (
                "void p() { t0_ = std::chrono::steady_clock::now(); }\n"
            ),
            "src/obs/trace.cpp": (
                "void q() { t1_ = std::chrono::steady_clock::now(); }\n"
            ),
            "src/stream/session.cpp": (
                "void r() { t2_ = std::chrono::steady_clock::now(); }\n"
            ),
        },
        [("entropy", 1)],
    ),
    (
        "raw unit params flagged in headers only; fields untouched",
        {
            "src/d.h": (
                "void run(double horizon_seconds, int n);\n"
                "struct Opt { double mttr_seconds = 3.0; };\n"
                "void go(double cap_mbps);\n"
            ),
            "src/d.cpp": "void run(double horizon_seconds, int n) {}\n",
        },
        [("raw-units", 1), ("raw-units", 3)],
    ),
    (
        "direct and raw throws flagged; contract.h exempt; rethrow ok",
        {
            "src/e.cpp": (
                'void f() { throw std::invalid_argument("x"); }\n'
                'void g() { throw "bare"; }\n'
                "void h() { try { f(); } catch (...) { throw; } }\n"
            ),
            "src/common/contract.h": (
                'inline void req() { throw std::logic_error("m"); }\n'
            ),
        },
        [("raw-throw", 1), ("raw-throw", 2)],
    ),
    (
        "eager contract messages flagged; lambda and literal pass",
        {
            "src/f.cpp": (
                'require(ok, "msg " + std::to_string(n));\n'
                'require(ok, [&] { return "msg " + std::to_string(n); });\n'
                'require(ok, "plain literal");\n'
                "ensure(done,\n"
                '       "multi" + suffix);\n'
            ),
        },
        [("eager-message", 1), ("eager-message", 4)],
    ),
    (
        "node-based per-id stores flagged in the per-id store dirs only; "
        "compound keys pass; waiver honoured",
        {
            "src/service/store.h": (
                "#include <map>\n"
                "#include <set>\n"
                "struct S {\n"
                "  std::map<SessionId, int> sessions_;\n"
                "  std::set<vod::FlowId> flows_;\n"
                "  // vodlint:dense-ok(tiny, pruned on lookup)\n"
                "  std::map<SessionId, int> waived_;\n"
                "  std::map<std::pair<NodeId, VideoId>, int> batches_;\n"
                "  std::set<NodeId> crashed_;\n"
                "  std::map<NodeId, int> servers_;\n"
                "};\n"
            ),
            "src/net/peers.h": "struct P { std::set<NodeId> peers_; };\n",
            "src/db/catalog.h": (
                "struct C { std::map<SessionId, int> offline_; };\n"
            ),
            "src/baselines/lru.h": (
                "struct B { std::map<SessionId, int> sessions_; };\n"
            ),
        },
        [("dense-store", 1), ("dense-store", 1), ("dense-store", 4),
         ("dense-store", 5), ("dense-store", 9), ("dense-store", 10)],
    ),
    (
        "maps and sets keyed by densely-issued ids flagged in src/db and "
        "src/vra; an id as mapped value passes; waiver honoured",
        {
            "src/db/database.h": (
                "#include <map>\n"
                "struct D {\n"
                "  std::map<VideoId, VideoInfo> videos_;\n"
                "  std::map<vod::LinkId, LinkRecord> links_;\n"
                "  // vodlint:dense-ok(sparse, read once at construction)\n"
                "  std::map<NodeId, ServerSetup> overrides_;\n"
                "  std::map<std::string, VideoId> by_title_;\n"
                "};\n"
            ),
            "src/vra/vra.h": (
                "struct V { mutable std::map<NodeId, Paths> spt_cache_; };\n"
            ),
            "src/workload/seen.h": (
                "struct W { std::set<VideoId> seen_; };\n"
            ),
        },
        [("dense-store", 3), ("dense-store", 4), ("dense-store", 1)],
    ),
    (
        "violations inside comments and strings are ignored",
        {
            "src/g.cpp": (
                "// throw 42; rand();\n"
                '/* for (auto x : flows_) */ const char* s = "rand()";\n'
            ),
            "src/g.h": (
                "#include <unordered_map>\n"
                "struct G {\n"
                "  std::unordered_map<int,int> flows_;\n"
                "};\n"
            ),
        },
        [],
    ),
    (
        "shared-mutable-global: namespace-scope objects and function-local "
        "statics flagged; const passes; allow() suppresses",
        {
            "src/sched.cpp": (
                "namespace vod {\n"
                "int event_horizon = 0;\n"
                "const int kLimit = 3;\n"
                "// vodlint:allow(shared-mutable-global: guarded by init_mu)\n"
                "int waived_counter = 0;\n"
                "int next_id() {\n"
                "  static int counter = 0;\n"
                "  return ++counter;\n"
                "}\n"
                "}\n"
            ),
        },
        [("shared-mutable-global", 2), ("shared-mutable-global", 7)],
    ),
    (
        "raw-thread: std::thread/.detach()/std::async flagged in every "
        "directory, src/common included; allow() suppresses",
        {
            "src/runner.cpp": (
                "void launch() {\n"
                "  std::thread t([] {});\n"
                "  t.detach();\n"
                "  auto f = std::async(probe);\n"
                "  // vodlint:allow(raw-thread: teardown outside sim loop)\n"
                "  std::thread waived(cleanup);\n"
                "}\n"
            ),
            "src/common/pool.cpp": (
                "void pool() {\n"
                "  std::thread worker([] {});\n"
                "}\n"
            ),
        },
        [
            ("raw-thread", 2),  # src/common/pool.cpp
            ("raw-thread", 2),
            ("raw-thread", 3),
            ("raw-thread", 4),
        ],
    ),
]


def self_test() -> int:
    failures = 0
    for name, files, expected in FIXTURES:
        got = [(v.rule, v.line)
               for v in lint_sources(files) if not v.suppressed]
        if got != expected:
            failures += 1
            print(f"SELF-TEST FAIL: {name}\n  expected {expected}\n  got      {got}")
    if failures:
        print(f"vodlint self-test: {failures} fixture(s) failed", file=sys.stderr)
        return 1
    print(f"vodlint self-test: {len(FIXTURES)} fixture(s) ok")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
