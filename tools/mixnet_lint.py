#!/usr/bin/env python3
"""mixnet-lint: project-specific static analysis for the MixNet repo.

Three analyzers (DESIGN.md §10). The layer graph is the build's own: each
src/<layer>/CMakeLists.txt's mixnet_add_layer(<layer> ... DEPS ...). The
other two are driven by a declarative config under tools/lint/, so the
invariants live in-tree next to the code they guard:

  dag          Layer-DAG include checker. Fails on any `#include` edge in
               src/ that is not a DEPS entry of the including layer, checks
               that the DEPS graph is acyclic and that every src/ directory
               with sources declares a layer, and rejects relative or
               unprefixed quoted includes.

  cache-key    Cache-key completeness checker. For each gate in
               tools/lint/cache_key.json (TrainingConfig, ServeConfig,
               GateConfig) it parses the config struct (and, recursively,
               every nested config struct) out of the C++ headers and
               verifies each leaf field is either serialized as
               `<variable>.<path>` in the gate's impl file or listed in its
               allowlist of non-semantic fields. A nested struct with a gate
               of its own is covered only by passing it whole to that gate's
               writer (TrainingConfig's `gate` goes through
               moe::canonicalize_gate), so each struct has one writer. This
               is the machine check behind DESIGN.md §9's schema discipline:
               a field the key cannot see means the cache silently serves
               stale results. Stale serializer lines and stale allowlist
               entries are errors too.

  determinism  Determinism lint. Bans wall-clock and libc-RNG calls
               (`rand()`, `std::random_device`, `time()`,
               `std::chrono::system_clock`, ...) across src/ outside
               allowlisted seed sites, and bans `unordered_map`/
               `unordered_set` in the canonical-serialization and table-emit
               translation units, where iteration order leaks into output
               bytes. Matching runs on comment- and string-stripped source,
               so prose never trips it.

Exit codes: 0 clean, 1 violations found, 2 configuration/usage error.
Diagnostics are one per line, `path:line: [analyzer] message`, relative to
--root, deterministic order.
"""

import argparse
import json
import re
import sys
from pathlib import Path

ANALYZERS = ("dag", "cache-key", "determinism")


class LintConfigError(Exception):
    """Bad config or unparseable input: exit 2, not a lint finding."""


class Diagnostic:
    def __init__(self, path, line, analyzer, message):
        self.path = str(path)
        self.line = line
        self.analyzer = analyzer
        self.message = message

    def render(self):
        return f"{self.path}:{self.line}: [{self.analyzer}] {self.message}"

    def sort_key(self):
        return (self.path, self.line, self.analyzer, self.message)


def strip_comments_and_strings(text, keep_strings=False):
    """Blank out comments and (unless keep_strings) string/char literal
    contents, preserving line structure and column positions so diagnostics
    stay accurate. keep_strings is for scans that read literal contents,
    e.g. #include paths."""
    out = []
    i, n = 0, len(text)
    state = "code"  # code | line_comment | block_comment | string | char
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line_comment"
                out.append("  ")
                i += 2
            elif c == "/" and nxt == "*":
                state = "block_comment"
                out.append("  ")
                i += 2
            elif c == '"':
                state = "string"
                out.append('"')
                i += 1
            elif c == "'":
                state = "char"
                out.append("'")
                i += 1
            else:
                out.append(c)
                i += 1
        elif state == "line_comment":
            if c == "\n":
                state = "code"
                out.append("\n")
            else:
                out.append(" ")
            i += 1
        elif state == "block_comment":
            if c == "*" and nxt == "/":
                state = "code"
                out.append("  ")
                i += 2
            else:
                out.append("\n" if c == "\n" else " ")
                i += 1
        else:  # string or char literal
            quote = '"' if state == "string" else "'"
            if c == "\\" and i + 1 < n:
                out.append(text[i : i + 2] if keep_strings else "  ")
                i += 2
            elif c == quote:
                state = "code"
                out.append(quote)
                i += 1
            else:
                if keep_strings:
                    out.append(c)
                else:
                    out.append("\n" if c == "\n" else " ")
                i += 1
    return "".join(out)


def read_text(path):
    try:
        return path.read_text()
    except OSError as e:
        raise LintConfigError(f"cannot read {path}: {e}")


def load_json(path):
    try:
        return json.loads(read_text(path))
    except json.JSONDecodeError as e:
        raise LintConfigError(f"{path}: invalid JSON: {e}")


def rel(path, root):
    try:
        return Path(path).resolve().relative_to(Path(root).resolve())
    except ValueError:
        return Path(path)


def source_files(base, suffixes=(".h", ".cc")):
    return sorted(
        p for p in base.rglob("*") if p.is_file() and p.suffix in suffixes
    )


# ---------------------------------------------------------------------------
# Analyzer 1: layer-DAG include checker
# ---------------------------------------------------------------------------

INCLUDE_RE = re.compile(r'^\s*#\s*include\s+"([^"]+)"', re.MULTILINE)
CMAKE_LAYER_RE = re.compile(
    r"mixnet_add_layer\s*\(\s*(\w+)(.*?)\)", re.DOTALL
)


def cmake_declared_deps(cmake_text, layer):
    """DEPS list of mixnet_add_layer(<layer> ... DEPS mixnet_a ...), as
    layer names; None if the file declares no mixnet_add_layer(<layer>)."""
    for m in CMAKE_LAYER_RE.finditer(cmake_text):
        if m.group(1) != layer:
            continue
        body = m.group(2)
        deps_m = re.search(r"\bDEPS\b(.*)", body, re.DOTALL)
        if not deps_m:
            return []
        deps = []
        for tok in deps_m.group(1).split():
            if tok in ("SOURCES",):
                break
            if tok.startswith("mixnet_"):
                deps.append(tok[len("mixnet_"):])
        return deps
    return None


def cmake_layer_graph(root, src):
    """The layer graph as the build declares it: each src/ subdirectory with
    sources -> the DEPS of its mixnet_add_layer() call."""
    layers = {}
    for d in sorted(p for p in src.iterdir() if p.is_dir()):
        if not source_files(d):
            continue
        cml = d / "CMakeLists.txt"
        deps = cmake_declared_deps(read_text(cml), d.name) \
            if cml.is_file() else None
        if deps is None:
            raise LintConfigError(
                f"{rel(cml, root)}: src/{d.name}/ has sources but no "
                f"mixnet_add_layer({d.name} ...)")
        layers[d.name] = deps
    for layer, deps in layers.items():
        for d in deps:
            if d not in layers:
                raise LintConfigError(
                    f"src/{layer}/CMakeLists.txt: layer '{layer}' DEPS "
                    f"mixnet_{d}, which is not a layer")

    # Acyclicity: Kahn's algorithm over the declared graph.
    indeg = {l: 0 for l in layers}
    for deps in layers.values():
        for d in deps:
            indeg[d] += 1
    queue = sorted(l for l, k in indeg.items() if k == 0)
    seen = 0
    while queue:
        l = queue.pop()
        seen += 1
        for d in sorted(layers[l]):
            indeg[d] -= 1
            if indeg[d] == 0:
                queue.append(d)
    if seen != len(layers):
        cyc = sorted(l for l, k in indeg.items() if k > 0)
        raise LintConfigError(
            f"layer DEPS have a cycle through {{{', '.join(cyc)}}}")
    return layers


def check_dag(root):
    src = root / "src"
    if not src.is_dir():
        raise LintConfigError(f"{src}: no src/ directory under --root")
    layers = cmake_layer_graph(root, src)

    diags = []
    for f in source_files(src):
        layer = rel(f, root).parts[1]
        if layer not in layers:
            continue  # a source file directly under src/
        allowed = set(layers[layer]) | {layer}
        text = strip_comments_and_strings(read_text(f), keep_strings=True)
        for m in INCLUDE_RE.finditer(text):
            inc = m.group(1)
            line = text.count("\n", 0, m.start()) + 1
            if inc.startswith(("./", "../")) or "/./" in inc or "/../" in inc:
                diags.append(Diagnostic(rel(f, root), line, "dag",
                    f'relative include "{inc}" — use the "<layer>/<file>" form'))
                continue
            first = inc.split("/", 1)[0]
            if "/" not in inc or first not in layers:
                diags.append(Diagnostic(rel(f, root), line, "dag",
                    f'quoted include "{inc}" does not name a layer — use '
                    f'"<layer>/<file>" (or <...> for system headers)'))
                continue
            if first not in allowed:
                deps = ", ".join(sorted(layers[layer])) or "<none>"
                diags.append(Diagnostic(rel(f, root), line, "dag",
                    f"include edge '{layer}' -> '{first}' is not in the DEPS "
                    f"of src/{layer}/CMakeLists.txt (declared deps of "
                    f"'{layer}': {deps})"))
    return diags


# ---------------------------------------------------------------------------
# Analyzer 2: cache-key completeness checker
# ---------------------------------------------------------------------------

STRUCT_RE = re.compile(r"\bstruct\s+([A-Za-z_]\w*)\s*(?:final\s*)?\{")
FIELD_NAME_RE = re.compile(r"([A-Za-z_]\w*)\s*$")


def parse_struct_fields(text, open_brace):
    """Fields of the struct whose body starts at text[open_brace] == '{'.
    Returns [(type, name, line)]; skips member functions, nested types,
    using/typedef/static members."""
    fields = []
    i = open_brace + 1
    depth = 1
    buf = []
    n = len(text)
    while i < n and depth > 0:
        c = text[i]
        if c == "{":
            # Initializer brace (buffer ends with '=' or '= ...') is part of
            # the statement; any other brace group (member function body,
            # nested struct/enum/union) voids the buffered declarator.
            stripped = "".join(buf).rstrip()
            is_init = stripped.endswith("=") or re.search(r"=\s*[^;{]*$", stripped)
            d = 1
            i += 1
            while i < n and d > 0:
                if text[i] == "{":
                    d += 1
                elif text[i] == "}":
                    d -= 1
                i += 1
            if not is_init:
                buf = []
            continue
        if c == "}":
            depth -= 1
            i += 1
            continue
        if c == ";":
            stmt = "".join(buf).strip()
            buf = []
            i += 1
            decl = stmt.split("=", 1)[0].strip()
            if (not decl or "(" in decl or
                    decl.startswith(("using ", "typedef ", "friend ",
                                     "static ", "enum ", "struct ", "class "))):
                continue
            m = FIELD_NAME_RE.search(decl)
            if not m:
                continue
            name = m.group(1)
            ftype = decl[: m.start(1)].strip()
            if not ftype:
                continue
            line = text.count("\n", 0, i) + 1
            fields.append((ftype, name, line))
            continue
        buf.append(c)
        i += 1
    return fields


def build_struct_index(root, search_dirs):
    """Map simple struct name -> (relpath, fields). Later definitions of the
    same simple name are ignored (first wins, deterministic scan order);
    config structs in this repo have unique simple names."""
    index = {}
    for d in search_dirs:
        base = root / d
        if not base.is_dir():
            raise LintConfigError(f"{base}: search dir does not exist")
        for f in source_files(base, suffixes=(".h",)):
            text = strip_comments_and_strings(read_text(f))
            for m in STRUCT_RE.finditer(text):
                name = m.group(1)
                if name in index:
                    continue
                fields = parse_struct_fields(text, m.end() - 1)
                index[name] = (rel(f, root), fields)
    return index


def expand_leaf_paths(index, struct_name, prefix, out, stack, delegates,
                      delegated):
    """Leaf field paths of struct_name into `out`. A nested struct with a
    writer of its own (`delegates`: struct -> writer) stays one path, noted
    in `delegated`: its fields are that writer's to serialize."""
    if struct_name in stack:
        raise LintConfigError(
            f"config struct cycle through '{struct_name}'")
    relpath, fields = index[struct_name]
    for ftype, fname, line in fields:
        simple = ftype.split("<", 1)[0].split("::")[-1].strip("&* ")
        if "<" not in ftype and simple in delegates:
            out[prefix + fname] = (relpath, line)
            delegated[prefix + fname] = simple
        elif "<" not in ftype and simple in index:
            expand_leaf_paths(index, simple, prefix + fname + ".", out,
                              stack | {struct_name}, delegates, delegated)
        else:
            out[prefix + fname] = (relpath, line)


def check_cache_key(root, config_path):
    cfg = load_json(config_path)
    gates = cfg.get("gates")
    if not isinstance(gates, list) or not gates:
        raise LintConfigError(f"{config_path}: expected a non-empty 'gates' list")
    for g in gates:
        for k in ("struct", "header", "impl", "variable", "writer"):
            if k not in g:
                raise LintConfigError(f"{config_path}: a gate is missing '{k}'")
    index = build_struct_index(root, cfg.get("search", ["src"]))
    writers = {g["struct"]: g["writer"] for g in gates}
    diags = []
    for g in gates:
        diags.extend(check_gate(root, config_path, index, writers, g))
    return diags


def check_gate(root, config_path, index, writers, gate):
    struct_name = gate["struct"]
    header = root / gate["header"]
    impl = root / gate["impl"]
    var = gate["variable"]
    writer = writers[struct_name]

    if struct_name not in index:
        raise LintConfigError(
            f"{header}: struct '{struct_name}' not found in search dirs")
    if rel(header, root) != index[struct_name][0]:
        raise LintConfigError(
            f"struct '{struct_name}' found in {index[struct_name][0]}, "
            f"but config names {rel(header, root)}")

    impl_text = strip_comments_and_strings(read_text(impl))
    if not re.search(rf"\b{re.escape(writer)}\s*\(\s*const\s+(?:\w+::)*"
                     rf"{re.escape(struct_name)}\s*&\s*{re.escape(var)}\b",
                     impl_text):
        raise LintConfigError(
            f"{rel(impl, root)}: no definition of "
            f"{writer}(const {struct_name}& {var}, ...)")

    leaves, delegated = {}, {}
    delegates = {s: w for s, w in writers.items() if s != struct_name}
    expand_leaf_paths(index, struct_name, "", leaves, frozenset(), delegates,
                      delegated)

    def line_of(pos):
        return impl_text.count("\n", 0, pos) + 1

    # A delegated subtree is covered only by passing it whole to its
    # struct's writer: `writer(var.path, ...)`.
    calls, call_spans = {}, []
    for path, sub in delegated.items():
        for m in re.finditer(rf"\b{re.escape(writers[sub])}\s*\(\s*"
                             rf"{re.escape(var)}\.{re.escape(path)}\s*,",
                             impl_text):
            calls.setdefault(path, line_of(m.start()))
            call_spans.append(m.span())

    # \b: the `cfg` gate must not read `scfg.` lines as its own.
    serial_re = re.compile(r"\b" + re.escape(var) + r"\.([A-Za-z_][\w.]*)")
    serialized = {}  # path -> first line
    for m in serial_re.finditer(impl_text):
        if any(a <= m.start() < b for a, b in call_spans):
            continue
        serialized.setdefault(m.group(1).rstrip("."), line_of(m.start()))

    allowed = {}
    for entry in gate.get("allow", []):
        if not isinstance(entry, dict) or "field" not in entry or \
                not entry.get("reason"):
            raise LintConfigError(
                f"{config_path}: allowlist entries need 'field' and 'reason'")
        allowed[entry["field"]] = entry["reason"]

    diags = []
    cfg_rel = rel(config_path, root)
    impl_rel = rel(impl, root)

    # A serialized path must be a leaf exactly: an interior match (e.g.
    # `hash(cfg.model)`) would hide nested-field drops.
    for path in sorted(leaves):
        relpath, line = leaves[path]
        done = calls if path in delegated else serialized
        if path in allowed:
            if path in done:
                diags.append(Diagnostic(impl_rel, done[path], "cache-key",
                    f"field '{path}' is serialized AND allowlisted in "
                    f"{cfg_rel} — remove the stale allowlist entry"))
            continue
        if path not in done:
            how = (f" (pass it whole to {writers[delegated[path]]}, the one "
                   f"writer of {delegated[path]})" if path in delegated else "")
            diags.append(Diagnostic(relpath, line, "cache-key",
                f"{struct_name} field '{path}' is not serialized in "
                f"{impl_rel}{how} and not allowlisted in {cfg_rel} — the "
                f"result cache cannot see it (DESIGN.md §9: stale results)"))

    for path in sorted(serialized):
        owner = next((d for d in delegated
                      if path == d or path.startswith(d + ".")), None)
        if owner is not None:
            diags.append(Diagnostic(impl_rel, serialized[path], "cache-key",
                f"'{var}.{path}' is written outside "
                f"{writers[delegated[owner]]}, the one writer of "
                f"{delegated[owner]}"))
        elif path not in leaves:
            diags.append(Diagnostic(impl_rel, serialized[path], "cache-key",
                f"serialized field '{var}.{path}' does not exist on "
                f"{struct_name} — stale serializer line"))

    for path in sorted(allowed):
        if path not in leaves:
            diags.append(Diagnostic(cfg_rel, 1, "cache-key",
                f"allowlist entry '{path}' matches no {struct_name} field"))
    return diags


# ---------------------------------------------------------------------------
# Analyzer 3: determinism lint
# ---------------------------------------------------------------------------

def compile_banned(entries, config_path, kind):
    out = []
    for e in entries:
        if not isinstance(e, dict) or "pattern" not in e or "name" not in e:
            raise LintConfigError(
                f"{config_path}: each '{kind}' entry needs 'pattern' and 'name'")
        try:
            out.append((re.compile(e["pattern"]), e["name"], e.get("why", "")))
        except re.error as err:
            raise LintConfigError(
                f"{config_path}: bad regex {e['pattern']!r}: {err}")
    return out


def check_determinism(root, config_path):
    cfg = load_json(config_path)
    banned = compile_banned(cfg.get("banned", []), config_path, "banned")
    canonical_banned = compile_banned(
        cfg.get("canonical_banned", []), config_path, "canonical_banned")
    paths = cfg.get("paths", ["src"])
    canonical_prefixes = tuple(cfg.get("canonical_paths", []))
    allow = cfg.get("allow", [])
    for e in allow:
        if not isinstance(e, dict) or "file" not in e or "name" not in e or \
                not e.get("reason"):
            raise LintConfigError(
                f"{config_path}: allow entries need 'file', 'name', 'reason'")

    def allowed(relpath, name):
        return any(e["file"] == str(relpath) and e["name"] == name
                   for e in allow)

    diags = []
    used_allows = set()
    for d in paths:
        base = root / d
        if not base.is_dir():
            raise LintConfigError(f"{base}: lint path does not exist")
        for f in source_files(base):
            relpath = rel(f, root)
            text = strip_comments_and_strings(read_text(f))
            checks = list(banned)
            if str(relpath).startswith(canonical_prefixes):
                checks += canonical_banned
            for pat, name, why in checks:
                for m in pat.finditer(text):
                    if allowed(relpath, name):
                        used_allows.add((str(relpath), name))
                        continue
                    line = text.count("\n", 0, m.start()) + 1
                    suffix = f" — {why}" if why else ""
                    diags.append(Diagnostic(relpath, line, "determinism",
                        f"banned call/construct '{name}'{suffix} "
                        f"(allowlist: {rel(config_path, root)})"))

    for e in allow:
        if (e["file"], e["name"]) not in used_allows:
            diags.append(Diagnostic(rel(config_path, root), 1, "determinism",
                f"stale allowlist entry: '{e['name']}' no longer occurs in "
                f"{e['file']}"))
    return diags


# ---------------------------------------------------------------------------


def main(argv=None):
    ap = argparse.ArgumentParser(
        prog="mixnet-lint", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("analyzers", nargs="*", choices=[[], *ANALYZERS],
                    metavar="analyzer",
                    help=f"subset of {{{', '.join(ANALYZERS)}}} (default all)")
    ap.add_argument("--root", default=None,
                    help="repo root (default: parent of this script's dir)")
    ap.add_argument("--cache-key-config", default=None,
                    help="cache-key checker config "
                         "(default tools/lint/cache_key.json)")
    ap.add_argument("--determinism-config", default=None,
                    help="determinism lint config "
                         "(default tools/lint/determinism.json)")
    args = ap.parse_args(argv)

    root = Path(args.root) if args.root else Path(__file__).resolve().parent.parent
    if not root.is_dir():
        print(f"mixnet-lint: --root {root} is not a directory", file=sys.stderr)
        return 2
    selected = args.analyzers or list(ANALYZERS)

    runners = {
        "dag": lambda: check_dag(root),
        "cache-key": lambda: check_cache_key(
            root, Path(args.cache_key_config) if args.cache_key_config
            else root / "tools/lint/cache_key.json"),
        "determinism": lambda: check_determinism(
            root, Path(args.determinism_config) if args.determinism_config
            else root / "tools/lint/determinism.json"),
    }

    diags = []
    try:
        for name in selected:
            diags.extend(runners[name]())
    except LintConfigError as e:
        print(f"mixnet-lint: {e}", file=sys.stderr)
        return 2

    for d in sorted(diags, key=Diagnostic.sort_key):
        print(d.render())
    if diags:
        print(f"mixnet-lint: {len(diags)} violation(s) "
              f"[{', '.join(selected)}]", file=sys.stderr)
        return 1
    print(f"mixnet-lint: clean [{', '.join(selected)}]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
