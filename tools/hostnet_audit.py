#!/usr/bin/env python3
"""hostnet-audit: field-level model auditor for the hostnet simulator.

hostnet_lint.py answers "does this line look wrong?"; hostnet_audit.py
answers four *whole-program* questions that line-oriented lint cannot
(DESIGN.md section 4g):

  1. snapshot coverage -- for every class with a nested `Snapshot` struct,
     every data member must be mentioned by save_state() AND load_state()
     (the checkpoint/fork engine of DESIGN.md 4e silently diverges
     otherwise), and every `Snapshot` field must be written by save_state()
     and read back by load_state() symmetrically. Members that are
     deliberately not checkpointed (construction config, derived values
     rebuilt by load_state()) carry an audited suppression:

         // hostnet-audit: skip(field_, why it is not snapshot state)

     Reference members are construction wiring by definition and are
     exempted automatically (recorded in the manifest with a generated
     reason).

  2. pool registration -- every class that owns a `flow::CreditPool` by
     value must surface it to the host-wide `flow::DomainRegistry`: the
     member (or one of its accessors) must appear in a `registry.add(...)` /
     `registry.add_interior(...)` call somewhere in the scanned tree.
     An unregistered pool is invisible to `DomainRegistry::observe`, the
     predictor's spec table and the fleet aggregates. Deliberate
     exceptions are annotated in place:

         // hostnet-audit: allow(pool-unregistered, why)

  3. handler purity -- code in the event-handler subsystems
     (src/{sim,cpu,cha,iio,mc,net}) may not hold function-local `static`
     mutable state or namespace-scope mutable variables: fork/replay runs
     the same handler from the same Snapshot twice and hidden state makes
     the replays diverge. `const`/`constexpr` data is fine.

  4. config-table completeness -- every data member reachable from
     HostConfig, C2MSpec or P2MSpec (through nested structs and
     std::optional) must be visited by that root's visit_fields() table
     (src/core/config_fields.hpp), which drives config_fingerprint(), the
     fleet `set` overrides and the --json config echo. An unvisited member
     would let two configs that differ only in it share a fingerprint. Each
     entry's path literal must spell the member chain it visits
     (v("mc.timing.t_wtr", c.mc.timing.t_wtr)), because the path is the
     `set` key.

The auditor also *generates* the per-class field manifest
(`tools/snapshot_manifest.json`, checked in). A default tree run verifies
the manifest is current; after changing any audited class run

    python3 tools/hostnet_audit.py --write-manifest

and commit the refreshed manifest. The manifest is the field-level
replacement for the old sizeof-based HOSTNET_SNAPSHOT_COVERS values: it
records exactly which members are covered and why each skipped member is
not state, independent of ABI, compiler and padding.

Parsing is the same lightweight-scanner approach as hostnet_lint.py: no
libclang, stdlib only. Comments/strings are blanked, preprocessor lines
are blanked (so `#ifdef HOSTNET_CHECKED` members are audited in every
configuration), and a brace scanner builds a namespace/class/block scope
tree. "Mentioned in save_state()" is a word-boundary containment check,
not dataflow -- precise enough to catch the forgotten-member bug class
this tool exists for, and the Snapshot-field symmetry check covers the
write/read direction.

Checks (ids are stable; use them in suppressions):

  snapshot-save-missing   data member never mentioned in save_state()
  snapshot-load-missing   data member never mentioned in load_state()
  snapshot-asymmetry      Snapshot field written but never restored (or
                          restored but never written, or dead), or a class
                          with a Snapshot struct missing save/load
  snapshot-skip           skip() names a field the class does not have
  snapshot-dead-skip      skip() on a field that is saved and loaded anyway
  pool-unregistered       by-value flow::CreditPool member never registered
                          in a DomainRegistry
  handler-static-state    function-local static mutable state in a handler
                          subsystem
  handler-global-state    namespace-scope mutable variable in a handler
                          subsystem
  config-unvisited        data member reachable from a config root that no
                          visit_fields() entry visits
  config-bad-path         visit_fields() path that does not spell the member
                          chain of the field it visits
  manifest-drift          tools/snapshot_manifest.json does not match the
                          tree (run --write-manifest)
  stale-allow             an allow() that no longer suppresses anything
  bad-directive           malformed skip()/allow() (missing reason, unknown
                          check id, skip outside an audited class)

Usage:
    tools/hostnet_audit.py                   # audit src/ + verify manifest
    tools/hostnet_audit.py path...           # audit specific files/dirs
    tools/hostnet_audit.py --json            # machine-readable report
    tools/hostnet_audit.py --write-manifest  # refresh tools/snapshot_manifest.json
    tools/hostnet_audit.py --list-checks
    tools/hostnet_audit.py --list-skips

Exit status: 0 = clean, 1 = findings, 2 = usage error.
"""

import argparse
import bisect
import json
import os
import re
import sys

CXX_EXTENSIONS = (".hpp", ".h", ".cpp", ".cc", ".cxx")
DEFAULT_ROOTS = ("src",)
SKIP_DIR_NAMES = {"lint_fixtures", "audit_fixtures", "build", ".git"}
SKIP_DIR_PREFIXES = ("build-",)
MANIFEST_REL = "tools/snapshot_manifest.json"

# Event-handler subsystems with the fork/replay purity contract.
HANDLER_DIRS = ("src/sim", "src/cpu", "src/cha", "src/iio", "src/mc", "src/net")
# src/flow owns the pool/registry implementation itself.
POOL_EXEMPT_DIRS = ("src/flow",)

# Config structs whose visit_fields() tables (src/core/config_fields.hpp) must
# name every data member reachable from them.
CONFIG_ROOTS = ("HostConfig", "C2MSpec", "P2MSpec")

REFERENCE_SKIP_REASON = "reference member: construction-time wiring, not state"

CHECKS = {
    "snapshot-save-missing": "data member never mentioned in save_state()",
    "snapshot-load-missing": "data member never mentioned in load_state()",
    "snapshot-asymmetry": "Snapshot field not saved+restored symmetrically",
    "snapshot-skip": "skip() names a field the class does not declare",
    "snapshot-dead-skip": "skip() on a field that is saved and loaded anyway",
    "pool-unregistered": "by-value flow::CreditPool never registered in a DomainRegistry",
    "handler-static-state": "function-local static mutable state in a handler subsystem",
    "handler-global-state": "namespace-scope mutable variable in a handler subsystem",
    "config-unvisited": "config data member with no visit_fields() entry",
    "config-bad-path": "visit_fields() path that is not its member chain",
    "manifest-drift": "tools/snapshot_manifest.json is out of date",
    "stale-allow": "allow() directive that suppresses nothing",
    "bad-directive": "malformed hostnet-audit directive",
}

# Checks that accept an `// hostnet-audit: allow(<check>, reason)` on the
# finding line (or alone on the line above). Snapshot-coverage findings are
# never allow()ed -- they are either fixed or skip()ed per field.
ALLOWABLE = {"pool-unregistered", "handler-static-state", "handler-global-state"}

SKIP_RE = re.compile(r"hostnet-audit:\s*skip\(\s*([A-Za-z_]\w*)\s*(?:,\s*([^)]*))?\)")
ALLOW_RE = re.compile(r"hostnet-audit:\s*allow\(\s*([\w-]+)\s*(?:,\s*([^)]*))?\)")
DIRECTIVE_RE = re.compile(r"hostnet-audit:\s*(\w+)")


def strip_comments_and_strings(text):
    """Blank out comments and string/char literals, preserving line structure.

    Kept in sync with tools/hostnet_lint.py (same scanner: //, /* */, "..."
    and '...' with escapes, R"delim(...)delim" raw strings).
    """
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":
            j = text.find("\n", i)
            j = n if j == -1 else j
            out.append(" " * (j - i))
            i = j
        elif c == "/" and nxt == "*":
            j = text.find("*/", i + 2)
            j = n - 2 if j == -1 else j
            span = text[i : j + 2]
            out.append("".join(ch if ch == "\n" else " " for ch in span))
            i = j + 2
        elif c == "R" and text[i : i + 2] == 'R"':
            m = re.match(r'R"([^(]*)\(', text[i:])
            if m is None:
                out.append(c)
                i += 1
                continue
            close = ")" + m.group(1) + '"'
            j = text.find(close, i + m.end())
            j = n - len(close) if j == -1 else j
            span = text[i : j + len(close)]
            out.append("".join(ch if ch == "\n" else " " for ch in span))
            i = j + len(close)
        elif c == '"' or c == "'":
            j = i + 1
            while j < n and text[j] != c:
                j += 2 if text[j] == "\\" else 1
            out.append(c + " " * (j - i - 1) + (c if j < n else ""))
            i = j + 1
        else:
            out.append(c)
            i += 1
    return "".join(out)


def blank_preprocessor(code):
    """Blank preprocessor lines (including \\-continuations).

    Conditional members (`#ifdef HOSTNET_CHECKED ... #endif`) stay visible to
    the audit in every configuration; include guards and macro definitions
    stop confusing the scope scanner.
    """
    out = []
    cont = False
    for line in code.split("\n"):
        if cont or line.lstrip().startswith("#"):
            cont = line.rstrip().endswith("\\")
            out.append(" " * len(line))
        else:
            cont = False
            out.append(line)
    return "\n".join(out)


class Scope:
    __slots__ = ("kind", "name", "head_start", "open_pos", "close_pos",
                 "children", "parent")

    def __init__(self, kind, name, head_start, open_pos, close_pos):
        self.kind = kind          # top | namespace | class | enum | block
        self.name = name
        self.head_start = head_start
        self.open_pos = open_pos
        self.close_pos = close_pos
        self.children = []
        self.parent = None


def classify_head(head):
    """Classify the text between the previous statement boundary and a '{'."""
    h = head.strip()
    if re.search(r"\benum\b", h):
        return "enum", None
    m = None
    for cm in re.finditer(r"\b(?:class|struct|union)\s+([A-Za-z_]\w*)?", h):
        m = cm
    if m is not None and "(" not in h:
        return "class", m.group(1)
    if "(" not in h and re.search(r"\bnamespace(\s+[\w:]+)?\s*$", h):
        nm = re.search(r"\bnamespace\s+([\w:]+)\s*$", h)
        return "namespace", nm.group(1) if nm else None
    return "block", None


def build_scopes(code):
    """Single pass over braces -> scope tree + open_pos -> Scope index."""
    root = Scope("top", None, 0, -1, len(code))
    by_open = {}
    stack = [root]
    last_boundary = 0
    for m in re.finditer(r"[{};]", code):
        ch, pos = m.group(0), m.start()
        if ch == "{":
            kind, name = classify_head(code[last_boundary:pos])
            sc = Scope(kind, name, last_boundary, pos, len(code))
            sc.parent = stack[-1]
            stack[-1].children.append(sc)
            stack.append(sc)
            by_open[pos] = sc
        elif ch == "}":
            if len(stack) > 1:
                stack[-1].close_pos = pos
                stack.pop()
        last_boundary = pos + 1
    return root, by_open


def innermost_scope(root, pos):
    sc = root
    while True:
        nxt = next((c for c in sc.children if c.open_pos < pos <= c.close_pos), None)
        if nxt is None:
            return sc
        sc = nxt


def direct_statements(code, scope):
    """(start_pos, text) of the scope's own statements, child scopes elided
    to `{}` so nested bodies/initializers never leak into the split."""
    stmts = []
    buf, cur_start = [], None
    i = scope.open_pos + 1
    children = scope.children
    ci = 0
    while i < scope.close_pos:
        if ci < len(children) and i == children[ci].open_pos:
            buf.append("{}")
            i = children[ci].close_pos + 1
            ci += 1
            continue
        c = code[i]
        if c == ";":
            text = "".join(buf)
            if text.strip():
                stmts.append((cur_start if cur_start is not None else i, text))
            buf, cur_start = [], None
        else:
            if cur_start is None and not c.isspace():
                cur_start = i
            buf.append(c)
        i += 1
    text = "".join(buf)
    if text.strip():
        stmts.append((cur_start, text))
    return stmts


def elide_parens(s):
    out, depth = [], 0
    for c in s:
        if c == "(":
            depth += 1
            if depth == 1:
                out.append("(")
        elif c == ")":
            if depth > 0:
                depth -= 1
                if depth == 0:
                    out.append(")")
            else:
                out.append(")")
        elif depth == 0:
            out.append(c)
    return "".join(out)


def strip_angles(s):
    prev = None
    while prev != s:
        prev = s
        s = re.sub(r"<[^<>]*>", "", s)
    return s


def find_init_eq(s):
    """Index of the first initializer '=' (not ==, <=, +=, ...), else None."""
    for i, c in enumerate(s):
        if c != "=":
            continue
        prev = s[i - 1] if i else ""
        nxt = s[i + 1] if i + 1 < len(s) else ""
        if prev in "=!<>+-*/%&|^" or nxt == "=":
            continue
        return i
    return None


ACCESS_RE = re.compile(r"\b(?:public|private|protected)\s*:")
NON_MEMBER_KW_RE = re.compile(
    r"\b(?:using|typedef|friend|static_assert|template|operator|requires|concept"
    r"|namespace|extern|asm)\b")
FN_QUALS_RE = re.compile(r"(?:\b(?:const|noexcept|override|final)\b\s*|->\s*[\w:<>&*\s]+\s*)+$")


def _decl_tail_name(s):
    """Name of a variable declaration statement (parens already elided), or
    None if the statement is a function/type/alias/... instead."""
    cut = find_init_eq(s)
    if cut is not None:
        s = s[:cut]
    s = s.rstrip()
    while s.endswith("{}"):
        s = s[:-2].rstrip()
        bare = FN_QUALS_RE.sub("", s).rstrip()
        if bare.endswith(")"):
            return None  # function definition (body elided to {})
        if re.search(r"\b(?:class|struct|union|enum)\s+[A-Za-z_]\w*\s*(?::[^{}]*)?$", s):
            return None  # nested type definition (body elided to {})
    # Inline function/type bodies end at `}` with no `;`, so the statement
    # split gloms them onto the next declaration. Only the text after the
    # last elided body is this declaration; anything before it (and its
    # `&`/`*`/qualifiers) belongs to the earlier definitions.
    last = s.rfind("{}")
    if last != -1:
        s = s[last + 2:]
        if not s.strip():
            return None
    s = FN_QUALS_RE.sub("", s).rstrip()
    if s.endswith(")"):
        return None  # function declaration (or unsupported fn-pointer decl)
    while re.search(r"\[[^\[\]]*\]$", s):
        s = re.sub(r"\s*\[[^\[\]]*\]$", "", s)
        s = s.rstrip()
    m = re.search(r"([A-Za-z_]\w*)$", s)
    if not m or not s[: m.start()].strip():
        return None
    return m.group(1), s[: m.start()]


def parse_member(stmt):
    """Parse one class-body statement into a member record, or None."""
    s = ACCESS_RE.sub(" ", stmt)
    s = elide_parens(s).strip()
    if not s or NON_MEMBER_KW_RE.search(s):
        return None
    if re.match(r"(?:class|struct|union|enum)\b", s):
        # `enum class Pattern {...} pattern = ...;` also declares a member.
        m = re.match(r"\s*([A-Za-z_]\w*)\s*(?:=|$)", s[s.rfind("{}") + 2:]) if "{}" in s else None
        return {"name": m.group(1), "is_ref": False, "is_pool": False, "type": ""} if m else None
    got = _decl_tail_name(s)
    if got is None:
        return None
    name, pre = got
    if re.search(r"\b(?:static|constexpr|constinit)\b", pre):
        return None  # class-level constants, not instance state
    pre_flat = strip_angles(pre)
    is_ref = "&" in pre_flat
    is_pool = bool(
        re.search(r"\bCreditPool\b", pre)
        and not is_ref
        and "*" not in pre_flat
        and "Snapshot" not in pre
    )
    return {"name": name, "is_ref": is_ref, "is_pool": is_pool, "type": pre}


# `restore(const Snapshot&)` is the composition-root spelling of load_state
# (core::HostSystem); it only counts when the parameter is a Snapshot.
SAVELOAD_RE = re.compile(
    r"(?:([A-Za-z_]\w*)\s*::\s*)?\b(save_state|load_state|restore)\s*\(([^)]*)\)")
ACCESSOR_RE = re.compile(
    r"CreditPool\s*&\s*([A-Za-z_]\w*)\s*\(\s*\)[^{};]*\{\s*return\s+([A-Za-z_]\w*)\s*;")
REG_CALL_RE = re.compile(r"\badd(?:_interior)?\s*\(")
REG_RECEIVER_RE = re.compile(r"(?:registr\w*|domains)\s*(?:\(\s*\))?\s*(?:\.|->)\s*$")
STATIC_RE = re.compile(r"\b(?:static|thread_local)\b")
VISIT_DEF_RE = re.compile(r"\bvoid\s+visit_fields\s*\(")
VISIT_ENTRY_RE = re.compile(r'\b[A-Za-z_]\w*\s*\(\s*"')


def word_in(name, body):
    return re.search(r"\b" + re.escape(name) + r"\b", body) is not None


def balanced_args(code, open_pos):
    """Text inside the parens starting at code[open_pos] == '('."""
    depth = 0
    for i in range(open_pos, len(code)):
        if code[i] == "(":
            depth += 1
        elif code[i] == ")":
            depth -= 1
            if depth == 0:
                return code[open_pos + 1 : i]
    return code[open_pos + 1 :]


class FileModel:
    """Parsed view of one file: scopes, classes, directives, purity events."""

    def __init__(self, path, display_path):
        self.path = path
        self.display = display_path
        with open(path, encoding="utf-8", errors="replace") as f:
            text = f.read()
        self.text = text
        self.raw_lines = text.splitlines()
        self.code = blank_preprocessor(strip_comments_and_strings(text))
        self.nl = [i for i, c in enumerate(self.code) if c == "\n"]
        self.root, self.by_open = build_scopes(self.code)
        self.classes = []       # class records (dicts)
        self.out_of_line = []   # (class name, kind, record)
        self.skips = []         # (line, field, reason)
        self.allows = {}        # line -> [(check, reason, directive_line)]
        self.directive_errors = []  # (line, message)
        self._parse_directives()
        self._parse_classes()
        self._parse_saveload()

    def line_of(self, pos):
        return bisect.bisect_right(self.nl, pos) + 1

    # -- directives -----------------------------------------------------------
    def _parse_directives(self):
        for idx, line in enumerate(self.raw_lines, start=1):
            dm = DIRECTIVE_RE.search(line)
            if not dm:
                continue
            sm = SKIP_RE.search(line)
            am = ALLOW_RE.search(line)
            if sm:
                field, reason = sm.group(1), (sm.group(2) or "").strip()
                if not reason:
                    self.directive_errors.append(
                        (idx, f"skip({field}) has no reason; write "
                              f"skip({field}, why it is not snapshot state)"))
                else:
                    self.skips.append((idx, field, reason))
            elif am:
                check, reason = am.group(1), (am.group(2) or "").strip()
                if check not in CHECKS:
                    self.directive_errors.append(
                        (idx, f"allow() names unknown check id '{check}'"))
                elif check not in ALLOWABLE:
                    self.directive_errors.append(
                        (idx, f"'{check}' findings cannot be allow()ed; fix the "
                              "code or use a per-field skip()"))
                elif not reason:
                    self.directive_errors.append(
                        (idx, f"allow({check}) has no reason; write "
                              f"allow({check}, why)"))
                else:
                    entry = (check, reason, idx)
                    self.allows.setdefault(idx, []).append(entry)
                    if line.split("//")[0].strip() == "":
                        self.allows.setdefault(idx + 1, []).append(entry)
            else:
                self.directive_errors.append(
                    (idx, f"unrecognized hostnet-audit directive '{dm.group(1)}'; "
                          "expected skip(field, reason) or allow(check, reason)"))

    # -- classes + members ----------------------------------------------------
    def _parse_classes(self):
        def walk(scope, path):
            for child in scope.children:
                if child.kind == "class":
                    qual = path + [child.name or "<anon>"]
                    rec = self._class_record(child, qual)
                    self.classes.append(rec)
                    walk(child, qual)
                elif child.kind in ("namespace", "top", "block"):
                    walk(child, path)
        walk(self.root, [])

    def _class_record(self, scope, qual):
        members = []
        for spos, stmt in direct_statements(self.code, scope):
            got = parse_member(stmt)
            if got:
                got["line"] = self.line_of(spos)
                members.append(got)
        accessors = {}
        for m in ACCESSOR_RE.finditer(self.code, scope.open_pos, scope.close_pos):
            accessors.setdefault(m.group(2), set()).add(m.group(1))
        snap = next((c for c in scope.children
                     if c.kind == "class" and c.name == "Snapshot"), None)
        return {
            "file": self.display,
            "name": qual[-1],
            "qual": "::".join(qual),
            "line": self.line_of(scope.open_pos),
            "span": (self.line_of(scope.head_start), self.line_of(scope.close_pos)),
            "scope": scope,
            "members": members,
            "accessors": accessors,
            "snapshot_scope": snap,
            "snapshot_fields": ([
                {"name": m["name"], "line": m["line"]}
                for m in (self._snapshot_members(snap) if snap else [])
            ]),
            "save": None,
            "load": None,
            "model": self,
        }

    def _snapshot_members(self, snap):
        out = []
        for spos, stmt in direct_statements(self.code, snap):
            got = parse_member(stmt)
            if got:
                got["line"] = self.line_of(spos)
                out.append(got)
        return out

    # -- save_state / load_state ----------------------------------------------
    def _parse_saveload(self):
        by_scope = {id(c["scope"]): c for c in self.classes}
        for m in SAVELOAD_RE.finditer(self.code):
            qualifier, kind, params = m.group(1), m.group(2), m.group(3)
            if kind == "restore":
                if "Snapshot" not in params:
                    continue
                kind = "load_state"
            k = m.start(2) if qualifier else m.start()
            before = self.code[:k].rstrip()
            if before.endswith(".") or before.endswith("->") or before.endswith("::") and not qualifier:
                continue  # member call or deeper qualification
            if qualifier is None and (before.endswith(".") or before.endswith("->")):
                continue
            # body or declaration?
            j = m.end()
            while True:
                while j < len(self.code) and self.code[j].isspace():
                    j += 1
                km = re.match(r"(?:const|noexcept|override|final)\b", self.code[j:])
                if km:
                    j += km.end()
                    continue
                break
            body = None
            if j < len(self.code) and self.code[j] == "{":
                sc = self.by_open.get(j)
                if sc is not None:
                    body = self.code[sc.open_pos + 1 : sc.close_pos]
            elif j < len(self.code) and self.code[j] not in ";":
                continue  # something else (expression, pointer-to-member, ...)
            names = re.findall(r"[A-Za-z_]\w*", params)
            rec = {
                "param": names[-1] if names else None,
                "body": body,
                "line": self.line_of(m.start()),
                "file": self.display,
            }
            if qualifier:
                self.out_of_line.append((qualifier, kind, rec))
            else:
                sc = innermost_scope(self.root, m.start() + 1)
                while sc is not None and sc.kind != "class":
                    sc = sc.parent
                if sc is None:
                    continue
                cls = by_scope.get(id(sc))
                if cls is None:
                    continue
                key = "save" if kind == "save_state" else "load"
                cur = cls[key]
                if cur is None or (cur["body"] is None and body is not None):
                    cls[key] = rec

    # -- purity events --------------------------------------------------------
    def local_statics(self):
        for m in STATIC_RE.finditer(self.code):
            sc = innermost_scope(self.root, m.start() + 1)
            if sc.kind != "block":
                continue
            stop = self.code.find(";", m.start())
            decl = self.code[m.start(): stop if stop != -1 else m.start() + 160]
            if re.search(r"\b(?:const|constexpr|constinit)\b", decl):
                continue
            yield self.line_of(m.start()), decl.split("\n")[0].strip()

    def namespace_vars(self):
        def walk(scope):
            if scope.kind in ("top", "namespace"):
                for spos, stmt in direct_statements(self.code, scope):
                    name = self._global_var(stmt)
                    if name:
                        yield self.line_of(spos), name
            for child in scope.children:
                if child.kind in ("namespace", "top"):
                    yield from walk(child)
        yield from walk(self.root)

    @staticmethod
    def _global_var(stmt):
        s = elide_parens(stmt).strip()
        if not s:
            return None
        if re.search(r"\b(?:using|typedef|namespace|class|struct|union|enum|template"
                     r"|friend|static_assert|extern|operator|concept|asm)\b", s):
            return None
        if re.search(r"\b(?:constexpr|constinit|consteval)\b", s):
            return None
        if re.match(r"(?:inline\s+|static\s+|thread_local\s+)*const\b", s):
            return None
        got = _decl_tail_name(s)
        if got is None:
            return None
        return got[0]

    def config_tables(self):
        """(head, [(line, path, member expression)]) per visit_fields()
        definition. Paths are string literals, so they are read from the raw
        text at the positions the blanked code keeps."""
        def walk(scope):
            for child in scope.children:
                yield child
                yield from walk(child)
        for sc in walk(self.root):
            head = self.code[sc.head_start:sc.open_pos]
            if sc.kind != "block" or not VISIT_DEF_RE.search(head):
                continue
            entries = []
            for m in VISIT_ENTRY_RE.finditer(self.code, sc.open_pos, sc.close_pos):
                close = self.code.find('"', m.end())
                expr = re.match(r'\s*,\s*([^,)]*)', self.code[close + 1:sc.close_pos])
                path = self.text[m.end():close]
                entries.append((self.line_of(m.start()), path,
                                re.sub(r"\s+", "", expr.group(1)) if expr else ""))
            yield head, entries

    def registered_ids(self):
        ids = set()
        for m in REG_CALL_RE.finditer(self.code):
            ctx = self.code[max(0, m.start() - 64): m.start()]
            if not REG_RECEIVER_RE.search(ctx):
                continue
            open_pos = self.code.find("(", m.start())
            ids.update(re.findall(r"[A-Za-z_]\w*", balanced_args(self.code, open_pos)))
        return ids


class Finding:
    __slots__ = ("path", "line", "check", "message")

    def __init__(self, path, line, check, message):
        self.path = path
        self.line = line
        self.check = check
        self.message = message

    def __str__(self):
        return f"{self.path}:{self.line}: [{self.check}] {self.message}"


def path_in(display_path, dirs):
    return any(display_path.startswith(d + "/") or ("/" + d + "/") in display_path
               for d in dirs)


class Auditor:
    def __init__(self):
        self.models = []
        self.findings = []
        self.used_allows = set()   # (file display, directive line, check)

    def add_file(self, path, display):
        self.models.append(FileModel(path, display))

    def report(self, model, line, check, message):
        for (c, _reason, directive_line) in model.allows.get(line, []):
            if c == check:
                self.used_allows.add((model.display, directive_line, check))
                return
        self.findings.append(Finding(model.display, line, check, message))

    # -- whole-program tables -------------------------------------------------
    def audited_classes(self):
        """Classes with a Snapshot struct or save/load, out-of-line bodies
        attached, each with its bound skip() directives."""
        by_name = {}
        for model in self.models:
            for cls in model.classes:
                by_name.setdefault(cls["name"], []).append(cls)
        for model in self.models:
            for qualifier, kind, rec in model.out_of_line:
                key = "save" if kind == "save_state" else "load"
                for cls in by_name.get(qualifier, []):
                    cur = cls[key]
                    if cur is None or cur["body"] is None:
                        cls[key] = rec
        audited = []
        for model in self.models:
            for cls in model.classes:
                if cls["snapshot_scope"] is None and cls["save"] is None \
                        and cls["load"] is None:
                    continue
                if cls["name"] == "Snapshot":
                    continue
                audited.append(cls)
        # bind skip() directives to the innermost audited class spanning them
        for model in self.models:
            for (line, field, reason) in model.skips:
                best = None
                for cls in audited:
                    if cls["model"] is not model:
                        continue
                    lo, hi = cls["span"]
                    if lo <= line <= hi and (
                            best is None
                            or hi - lo < best["span"][1] - best["span"][0]):
                        best = cls
                if best is None:
                    self.report(model, line, "bad-directive",
                                f"skip({field}, ...) is not inside a snapshot-"
                                "audited class")
                else:
                    best.setdefault("skips", []).append((line, field, reason))
        return audited

    # -- checks ---------------------------------------------------------------
    def run(self):
        for model in self.models:
            for (line, msg) in model.directive_errors:
                self.report(model, line, "bad-directive", msg)

        audited = self.audited_classes()
        registered = set()
        for model in self.models:
            registered |= model.registered_ids()

        for cls in audited:
            self._audit_snapshot(cls)
        for model in self.models:
            self._audit_pools(model, registered)
            if path_in(model.display, HANDLER_DIRS):
                self._audit_purity(model)
        self._audit_config_fields()
        self._audit_stale_allows()
        self.findings.sort(key=lambda f: (f.path, f.line, f.check))
        return audited

    def _audit_snapshot(self, cls):
        model = cls["model"]
        save, load = cls["save"], cls["load"]
        sbody = save["body"] if save else None
        lbody = load["body"] if load else None
        if cls["snapshot_scope"] is not None and (sbody is None or lbody is None):
            missing = [k for k, b in (("save_state", sbody), ("load_state", lbody))
                       if b is None]
            self.report(model, cls["line"], "snapshot-asymmetry",
                        f"'{cls['qual']}' has a Snapshot struct but no "
                        f"{' or '.join(missing)} definition in the scanned set")
        skips = {field: (line, reason) for (line, field, reason)
                 in cls.get("skips", [])}
        member_names = {m["name"] for m in cls["members"]}
        for m in cls["members"]:
            if m["is_ref"] or m["name"] in skips:
                continue
            if sbody is not None and not word_in(m["name"], sbody):
                self.report(model, m["line"], "snapshot-save-missing",
                            f"'{cls['qual']}::{m['name']}' is never mentioned in "
                            "save_state(); checkpoint/fork will silently drop it. "
                            "Save it or annotate "
                            f"'// hostnet-audit: skip({m['name']}, reason)'")
            if lbody is not None and not word_in(m["name"], lbody):
                self.report(model, m["line"], "snapshot-load-missing",
                            f"'{cls['qual']}::{m['name']}' is never mentioned in "
                            "load_state(); restore will silently keep stale state. "
                            "Restore it or annotate "
                            f"'// hostnet-audit: skip({m['name']}, reason)'")
        for field, (line, _reason) in skips.items():
            if field not in member_names:
                self.report(model, line, "snapshot-skip",
                            f"skip({field}) names no data member of "
                            f"'{cls['qual']}'")
            elif sbody is not None and lbody is not None \
                    and word_in(field, sbody) and word_in(field, lbody):
                self.report(model, line, "snapshot-dead-skip",
                            f"skip({field}) is dead: '{field}' is mentioned by "
                            "both save_state() and load_state(); drop the skip")
        if cls["snapshot_scope"] is not None and sbody and lbody:
            out = (save.get("param") or "out")
            src = (load.get("param") or "s")
            for f in cls["snapshot_fields"]:
                wrote = re.search(
                    r"\b" + re.escape(out) + r"\s*\.\s*" + re.escape(f["name"]) + r"\b",
                    sbody)
                read = re.search(
                    r"\b" + re.escape(src) + r"\s*\.\s*" + re.escape(f["name"]) + r"\b",
                    lbody)
                if wrote and not read:
                    self.report(model, f["line"], "snapshot-asymmetry",
                                f"Snapshot field '{f['name']}' is written by "
                                f"save_state() but never read back by load_state()")
                elif read and not wrote:
                    self.report(model, f["line"], "snapshot-asymmetry",
                                f"Snapshot field '{f['name']}' is read by "
                                f"load_state() but never written by save_state()")
                elif not wrote and not read:
                    self.report(model, f["line"], "snapshot-asymmetry",
                                f"Snapshot field '{f['name']}' is dead: neither "
                                "saved nor restored")

    def _audit_pools(self, model, registered):
        if path_in(model.display, POOL_EXEMPT_DIRS):
            return
        for cls in model.classes:
            for m in cls["members"]:
                if not m["is_pool"]:
                    continue
                names = {m["name"]} | cls["accessors"].get(m["name"], set())
                if names & registered:
                    continue
                self.report(model, m["line"], "pool-unregistered",
                            f"'{cls['qual']}::{m['name']}' is a flow::CreditPool "
                            "that never reaches a DomainRegistry add()/"
                            "add_interior() call; register it (DESIGN.md 4d) or "
                            "annotate '// hostnet-audit: allow(pool-unregistered, "
                            "why)'")

    def _audit_purity(self, model):
        for line, decl in model.local_statics():
            self.report(model, line, "handler-static-state",
                        f"function-local static mutable state ('{decl[:60]}') in "
                        "a handler subsystem; fork/replay would diverge -- hoist "
                        "it into the component and snapshot it")
        for line, name in model.namespace_vars():
            self.report(model, line, "handler-global-state",
                        f"namespace-scope mutable variable '{name}' in a handler "
                        "subsystem; fork/replay would diverge -- make it a "
                        "component member (snapshotted) or const/constexpr")

    def _audit_config_fields(self):
        structs = {}
        for model in self.models:
            for cls in model.classes:
                structs.setdefault(cls["name"], cls)

        def struct_of(member):
            """The config struct a member holds (through std::optional), if any."""
            for ident in re.findall(r"[A-Za-z_]\w*", member["type"]):
                if ident in structs and structs[ident]["members"]:
                    return structs[ident]
            return None

        def resolves(cls, path):
            for seg in path.split("."):
                m = next((m for m in cls["members"] if m["name"] == seg), None) if cls else None
                if m is None:
                    return False
                cls = struct_of(m)
            return cls is None

        tables = {}
        for model in self.models:
            for head, entries in model.config_tables():
                root = next((r for r in CONFIG_ROOTS if word_in(r, head)), None)
                if root is None:
                    continue
                paths = tables.setdefault(root, set())
                for line, path, expr in entries:
                    paths.add(path)
                    chain = re.sub(r"^[*(]*[A-Za-z_]\w*\.", "", expr.replace("->", "."))
                    if chain != path or root not in structs \
                            or not resolves(structs[root], path):
                        self.report(model, line, "config-bad-path",
                                    f"visit_fields path '{path}' must spell the {root} "
                                    f"member chain of the field it visits ('{expr}')")

        def walk(root, cls, prefix, stack):
            for m in cls["members"]:
                path = prefix + m["name"]
                sub = struct_of(m)
                if sub is not None and sub["qual"] not in stack:
                    walk(root, sub, path + ".", stack | {sub["qual"]})
                elif path not in tables.get(root, ()):
                    self.report(cls["model"], m["line"], "config-unvisited",
                                f"'{cls['qual']}::{m['name']}' is reachable from {root} as "
                                f"'{path}' but no visit_fields() entry visits it, so "
                                "config_fingerprint() would alias configs that differ "
                                "only in it")

        for root in CONFIG_ROOTS:
            if root in structs:
                walk(root, structs[root], "", {structs[root]["qual"]})

    def _audit_stale_allows(self):
        for model in self.models:
            seen = set()
            for entries in model.allows.values():
                for (check, _reason, directive_line) in entries:
                    key = (model.display, directive_line, check)
                    if key in seen:
                        continue
                    seen.add(key)
                    if key not in self.used_allows:
                        self.report(model, directive_line, "stale-allow",
                                    f"allow({check}) no longer suppresses any "
                                    "finding; delete the stale directive")

    # -- manifest -------------------------------------------------------------
    def manifest(self, audited):
        classes = {}
        for cls in sorted(audited, key=lambda c: (c["qual"], c["file"])):
            skips = {field: reason for (_line, field, reason)
                     in cls.get("skips", [])}
            for m in cls["members"]:
                if m["is_ref"]:
                    skips.setdefault(m["name"], REFERENCE_SKIP_REASON)
            state = sorted(m["name"] for m in cls["members"]
                           if not m["is_ref"] and m["name"] not in skips)
            entry = {
                "file": cls["file"],
                "state": state,
                "skipped": {k: skips[k] for k in sorted(skips)},
                "snapshot": sorted(f["name"] for f in cls["snapshot_fields"]),
            }
            key = cls["qual"]
            if key in classes:
                key = f"{key} ({cls['file']})"
            classes[key] = entry
        return {
            "comment": "Generated by tools/hostnet_audit.py --write-manifest. "
                       "Field-level snapshot coverage record: 'state' members "
                       "round-trip through save_state()/load_state(); 'skipped' "
                       "members carry the audited reason they are not state. "
                       "Do not edit by hand.",
            "classes": classes,
        }

    def check_manifest(self, audited, manifest_path, display):
        current = self.manifest(audited)
        try:
            with open(manifest_path, encoding="utf-8") as f:
                on_disk = json.load(f)
        except (OSError, ValueError):
            self.findings.append(Finding(
                display, 1, "manifest-drift",
                f"missing or unreadable manifest; run "
                "'python3 tools/hostnet_audit.py --write-manifest' and commit"))
            return
        cur_cls = current["classes"]
        old_cls = on_disk.get("classes", {})
        for name in sorted(set(cur_cls) | set(old_cls)):
            if cur_cls.get(name) != old_cls.get(name):
                self.findings.append(Finding(
                    display, 1, "manifest-drift",
                    f"entry for '{name}' is out of date (fields or skips "
                    "changed); run 'python3 tools/hostnet_audit.py "
                    "--write-manifest' and commit"))


def rel(path, root):
    try:
        return os.path.relpath(path, root).replace(os.sep, "/")
    except ValueError:
        return path.replace(os.sep, "/")


def iter_files(paths, root):
    for p in paths:
        ap = os.path.join(root, p) if not os.path.isabs(p) else p
        if os.path.isfile(ap):
            yield ap
        elif os.path.isdir(ap):
            for dirpath, dirnames, filenames in os.walk(ap):
                dirnames[:] = sorted(
                    d for d in dirnames
                    if d not in SKIP_DIR_NAMES and not d.startswith(SKIP_DIR_PREFIXES)
                )
                for fn in sorted(filenames):
                    if fn.endswith(CXX_EXTENSIONS):
                        yield os.path.join(dirpath, fn)
        else:
            raise FileNotFoundError(p)


def main(argv=None):
    ap = argparse.ArgumentParser(
        description="field-level snapshot/pool/purity auditor for hostnet")
    ap.add_argument("paths", nargs="*",
                    help=f"files or directories to audit (default: {' '.join(DEFAULT_ROOTS)})")
    ap.add_argument("--root",
                    default=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                    help="repository root used to resolve default paths and the manifest")
    ap.add_argument("--json", action="store_true",
                    help="emit a machine-readable JSON report on stdout")
    ap.add_argument("--write-manifest", action="store_true",
                    help=f"regenerate {MANIFEST_REL} from the tree and exit")
    ap.add_argument("--manifest", default=None,
                    help=f"manifest path (default: <root>/{MANIFEST_REL})")
    ap.add_argument("--list-checks", action="store_true",
                    help="print check ids and exit")
    ap.add_argument("--list-skips", action="store_true",
                    help="print every skip()/allow() directive in the scanned tree and exit")
    args = ap.parse_args(argv)

    if args.list_checks:
        for cid, desc in CHECKS.items():
            print(f"{cid:<24} {desc}")
        return 0

    root = os.path.abspath(args.root)
    explicit = bool(args.paths)
    paths = args.paths or [p for p in DEFAULT_ROOTS
                           if os.path.isdir(os.path.join(root, p))]
    try:
        files = sorted(set(iter_files(paths, root)))
    except FileNotFoundError as e:
        print(f"hostnet-audit: no such file or directory: {e}", file=sys.stderr)
        return 2

    auditor = Auditor()
    for f in files:
        auditor.add_file(f, rel(f, root))

    if args.list_skips:
        for model in auditor.models:
            for (line, field, reason) in model.skips:
                print(f"{model.display}:{line}: skip({field}) -- {reason}")
            seen = set()
            for entries in model.allows.values():
                for (check, reason, dline) in entries:
                    if (dline, check) in seen:
                        continue
                    seen.add((dline, check))
                    print(f"{model.display}:{dline}: allow({check}) -- {reason}")
        return 0

    audited = auditor.run()
    manifest_path = args.manifest or os.path.join(root, MANIFEST_REL)

    if args.write_manifest:
        blocking = [f for f in auditor.findings if f.check != "manifest-drift"]
        if blocking:
            for f in blocking:
                print(f)
            print(f"\nhostnet-audit: refusing to write manifest with "
                  f"{len(blocking)} outstanding finding(s)", file=sys.stderr)
            return 1
        with open(manifest_path, "w", encoding="utf-8") as f:
            json.dump(auditor.manifest(audited), f, indent=2, sort_keys=False)
            f.write("\n")
        print(f"hostnet-audit: wrote {rel(manifest_path, root)} "
              f"({len(audited)} class(es))")
        return 0

    if not explicit:
        auditor.check_manifest(audited, manifest_path, rel(manifest_path, root))
        auditor.findings.sort(key=lambda f: (f.path, f.line, f.check))

    if args.json:
        print(json.dumps({
            "files": len(files),
            "classes": sorted(c["qual"] for c in audited),
            "findings": [
                {"path": f.path, "line": f.line, "check": f.check,
                 "message": f.message}
                for f in auditor.findings
            ],
            "ok": not auditor.findings,
        }, indent=2))
        return 1 if auditor.findings else 0

    for finding in auditor.findings:
        print(finding)
    if auditor.findings:
        print(f"\nhostnet-audit: {len(auditor.findings)} finding(s) in "
              f"{len(files)} file(s); fix them, skip(field, reason) derived/"
              "config members, or allow(check, reason) audited exceptions",
              file=sys.stderr)
        return 1
    print(f"hostnet-audit: OK ({len(files)} file(s), "
          f"{len(audited)} audited class(es))")
    return 0


if __name__ == "__main__":
    sys.exit(main())
