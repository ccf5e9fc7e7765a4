#!/usr/bin/env python3
"""Fail if a route served by crates/server/src/routes.rs has no matching
section in docs/PROTOCOL.md.

The route inventory is read from the dispatch match arms (the code that
actually serves traffic), not from any hand-maintained table, so adding
a handler without documenting it fails CI. A route's section heading
must be of the form:

    ### `METHOD /path/{name}/segment`

where dynamic path segments (bare identifiers in the match arm) render
as `{name}`.

The same principle covers the routing vocabulary: every variant of the
engine's `Route` (the query-body preference) and `PlanRoute` (the route
taken: the response's `route` and its `timings.plan` routes) enums must
appear in docs/PROTOCOL.md as its backticked wire string (the variant
name in snake_case), so a new route variant cannot ship undocumented.
Those are the only two route vocabularies: any other `pub enum *Route`
under crates/engine/src fails the check, and so does an arm of
`PlanRoute::as_str` that returns anything but its variant's snake_case —
the one wire-string table is what the snake_case check reads. The route
list of the spec's `route` bullet (the backticked names after "planner
routes", in the `POST /graphs/{name}/query` section) must be exactly the
strings of those arms, so a deleted route cannot stay listed there and a
new one cannot be left out.

The metrics vocabulary is not checked here: the `serve.rs` test
`metrics_key_tree_matches_the_protocol_example` compares the key tree
of the document `GET /metrics` emits, on both backends, with the
example in that route's section of docs/PROTOCOL.md, both ways.

And, the other way round, the type names docs/ARCHITECTURE.md leans on:
every backticked `CamelCase` identifier (bare, or the type in an
`a::b::C` / `C::method` path) in its crate map, "The read path" and "The
write path" must be declared (`struct|enum|trait|type|fn|const`)
somewhere under crates/*/src, so a PR that deletes or renames a type
cannot leave its name in the map. And every backticked type-and-member
path (`Catalog::handle`, `Backend::Durable`) in README.md, docs/*.md and
the verify skill names a type declared under crates/*/src,
crates/*/tests or tests/, and a member — a `fn`, field, variant,
associated const or `#[derive]`d trait method — declared in a file that
declares or implements that type, so a deleted method cannot stay in the
docs under a type that survived it either.

And the commands the docs tell a reader to run: every package or target
flag (`-p`, `--bin`, `--example`, `--bench`, `--test`) in
README.md, the justfile, the CI workflow, the verify skill and
docs/*.md must name a package of the workspace (or the repo benchmark
package) or a target one of them declares or auto-discovers — so a PR
that deletes a binary or a test suite cannot leave a command that runs
it. A `--bin NAME` must name a `[[bin]]` a manifest declares (or a
package's `src/main.rs`), not merely a file cargo would pick up, and
when the same line passes `-p PACKAGE` that package must declare it. In the same docs, every backticked path ending in `.rs` must exist,
resolved from the repo root or from crates/ — so a deleted source or
test file cannot stay cited. Every backticked `just NAME` there, and
every dependency of the justfile's `verify:` recipe, must name a recipe
the justfile declares — so a deleted recipe cannot stay named either
(there is no `just` binary to run them offline, so nothing else would
notice).

And the module paths README.md and docs/*.md name: every backticked
lowercase path `crate::x` (`core::rank`, `expfinder_graph::reach_index`,
`expfinder::core::naive`) must resolve under crates/<crate>/src, module
by module, to a module file or to an item the module declares or
re-exports `pub`. A module-qualified path (`bsim::bounded_fixpoint_raw`)
resolves the same way from every module file of that name in any crate —
so a deleted module or item cannot stay named in the prose.

And one rule about the code itself: the `core::naive` oracles judge the
one fixpoint engine, so no release code may call them — every file
under crates/*/src, up to its first `#[cfg(test)]`, outside naive.rs and
the `bench` crate (whose counters are asserted against them), must not
name `naive::` or a `naive_*` function.

And one rule about where memos live: every memo of the library crates
stores through `graph::memo::Memo`, whose one full-policy (start over)
and whose caps are what bound them — so no file under
crates/{graph,pattern,core,compress,incremental}/src but the memo's own
(crates/graph/src/memo.rs) may name `RwLock<`, and a hand-rolled
`RwLock<HashMap>` memo with a policy of its own cannot come back.

And one rule about the offline stand-ins: every package under vendor/
must be named in the `[dependencies]` or `[dev-dependencies]` of the
root package or of a crates/* manifest, so a stand-in cannot outlive
its last user. Fewer than two vendor packages found fails too, so a
moved directory cannot pass the rule vacuously.
"""

import re
import sys
import tomllib
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ROUTES = ROOT / "crates" / "server" / "src" / "routes.rs"
PROTOCOL = ROOT / "docs" / "PROTOCOL.md"
ARCHITECTURE = ROOT / "docs" / "ARCHITECTURE.md"
CRATES = ROOT / "crates"
ENGINE_SRC = ROOT / "crates" / "engine" / "src"
ROUTE_ENUMS = ["Route", "PlanRoute"]

ENUM_VARIANT = re.compile(r"^\s*([A-Z][A-Za-z0-9]*)\s*(?:,|$)")


def snake_case(variant: str) -> str:
    return re.sub(r"(?<!^)(?=[A-Z])", "_", variant).lower()


def enum_variants(name: str, sources: dict):
    """Variant identifiers of `pub enum <name> { ... }`, wherever under
    crates/engine/src it is defined (None if no file defines it) — so
    moving a type between modules cannot silently disable the check."""
    pattern = re.compile(rf"pub enum {name}\s*\{{(.*?)\n\}}", re.DOTALL)
    m = next(filter(None, map(pattern.search, sources.values())), None)
    if not m:
        return None
    variants = []
    for line in m.group(1).splitlines():
        stripped = line.strip()
        if stripped.startswith(("//", "#", "/*")):
            continue
        vm = ENUM_VARIANT.match(line)
        if vm:
            variants.append(vm.group(1))
    return variants


AS_STR_ARM = re.compile(r'PlanRoute::([A-Z][A-Za-z0-9]*)\s*=>\s*"([^"]*)"')
ROUTE_BULLET = re.compile(r"^- `route` reports the route actually taken(.*?)^(?:- |\S)", re.M | re.S)


def listed_routes(spec: str):
    """The backticked route names the spec's `route` bullet lists after
    "planner routes", up to the first parenthesis (None if the bullet or
    the phrase cannot be found)."""
    bullet = ROUTE_BULLET.search(spec)
    if not bullet:
        return None
    _, phrase, rest = re.sub(r"\s+", " ", bullet.group(1)).partition("planner routes")
    if not phrase:
        return None
    return set(re.findall(r"`([a-z_]+)`", rest.partition("(")[0]))


def check_route_enums(spec: str):
    """Wire strings of Route/PlanRoute missing from the spec (an enum
    that cannot be found at all is reported the same way), route enums
    outside ROUTE_ENUMS, `PlanRoute::as_str` arms whose string is not the
    variant's snake_case, and the number of variants checked."""
    missing, checked = [], 0
    sources = {p: p.read_text() for p in sorted(ENGINE_SRC.rglob("*.rs"))}
    for path, src in sources.items():
        for name in re.findall(r"\bpub enum (\w*Route)\b", src):
            if name not in ROUTE_ENUMS:
                missing.append(
                    f"pub enum {name} in {path.relative_to(ROOT)} is a route vocabulary "
                    f"beside {ROUTE_ENUMS}; report the route taken as a PlanRoute"
                )
    as_str = re.compile(r"pub fn as_str\(self\)[^{]*\{(.*?)\n    \}", re.DOTALL)
    arms = [
        arm
        for src in sources.values()
        if "impl PlanRoute" in src
        for body in as_str.findall(src.partition("impl PlanRoute")[2])[:1]
        for arm in AS_STR_ARM.findall(body)
    ]
    if not arms:
        missing.append(
            "no `PlanRoute::as_str` arms found under crates/engine/src — its "
            "shape changed; update scripts/docs_check.py"
        )
    for variant, wire in arms:
        if wire != snake_case(variant):
            missing.append(
                f"PlanRoute::as_str maps {variant} to {wire!r}, not its snake_case "
                f"{snake_case(variant)!r}"
            )
    listed = listed_routes(spec)
    if listed is None:
        missing.append(
            "no route list (\"planner routes `a`, `b` ...\") in the `route` bullet of "
            "docs/PROTOCOL.md — its shape changed; update scripts/docs_check.py"
        )
    elif arms:
        coded = {wire for _, wire in arms}
        for wire in sorted(listed - coded):
            missing.append(
                f"docs/PROTOCOL.md lists planner route `{wire}`, which "
                "PlanRoute::as_str does not return"
            )
        for wire in sorted(coded - listed):
            missing.append(
                f"PlanRoute::as_str returns `{wire}`, missing from the planner "
                "routes listed in docs/PROTOCOL.md's `route` bullet"
            )
    for enum_name in ROUTE_ENUMS:
        variants = enum_variants(enum_name, sources)
        if not variants:
            missing.append(
                f"enum {enum_name} not found in any file under {ENGINE_SRC} — "
                "it moved crates or its shape changed; update scripts/docs_check.py"
            )
            continue
        checked += len(variants)
        for v in variants:
            wire = snake_case(v)
            if f"`{wire}`" not in spec:
                missing.append(
                    f"{enum_name}::{v}: wire string `{wire}` "
                    "not mentioned in docs/PROTOCOL.md"
                )
    return missing, checked


ARCHITECTURE_SECTIONS = ["Crate map", "The read path", "The write path"]
# CamelCase names the architecture text may use that this workspace does
# not declare: std types
NOT_OURS = {"Arc", "Mutex", "OnceLock", "PoisonError", "RwLock", "Vec"}
PATH = re.compile(r"[A-Za-z_][A-Za-z0-9_]*(?:::[A-Za-z_][A-Za-z0-9_]*)*")
CAMEL = re.compile(r"[A-Z][A-Za-z0-9]*[a-z][A-Za-z0-9]*")


MEMBER_DOCS = ["README.md", "docs/*.md", ".claude/skills/verify/SKILL.md"]
# where a documented type may live: release code, and the test types the
# docs name (`Harness::restart`)
MEMBER_SOURCES = ["crates/*/src/**/*.rs", "crates/*/tests/**/*.rs", "tests/**/*.rs"]
# the methods a `#[derive]`d trait gives a type
DERIVED = {
    "Clone": ["clone"],
    "Debug": ["fmt"],
    "Default": ["default"],
    "PartialEq": ["eq", "ne"],
    "Eq": [],
    "Hash": ["hash"],
    "PartialOrd": ["partial_cmp"],
    "Ord": ["cmp"],
}


def camel_paths(span: str):
    """`(type, member)` for every path in `span` whose first CamelCase
    segment (outside NOT_OURS) is followed by another segment."""
    for path in PATH.findall(span):
        segments = path.split("::")
        at = next((i for i, s in enumerate(segments) if CAMEL.fullmatch(s)), None)
        if at is not None and segments[at] not in NOT_OURS and at + 1 < len(segments):
            yield segments[at], segments[at + 1]


def derived_methods(name: str, src: str) -> set:
    """Methods the `#[derive(...)]` on `struct|enum name` in `src` gives it."""
    attrs = rf"#\[derive\(([^)]*)\)\](?:\s*#\[[^\]]*\])*\s*(?:pub(?:\([a-z]+\))?\s+)?(?:struct|enum)\s+{name}\b"
    return {
        method
        for derive in re.findall(attrs, src)
        for trait in derive.split(",")
        for method in DERIVED.get(trait.strip().rpartition("::")[2], [])
    }


def check_doc_members():
    """`file:line: …` for every backticked type-and-member path in
    MEMBER_DOCS whose type no file under MEMBER_SOURCES declares, or whose
    member no file that declares or implements the type has, and the
    number of distinct paths checked."""
    sources = [p.read_text() for pattern in MEMBER_SOURCES for p in sorted(ROOT.glob(pattern))]
    docs = sorted({f for pattern in MEMBER_DOCS for f in ROOT.glob(pattern)})
    missing, checked = [], set()
    for doc in docs:
        text = doc.read_text()
        for span in re.finditer(r"`([^`\n]+)`", text):
            for name, member in camel_paths(span.group(1)):
                checked.add((name, member))
                owner = rf"\b(?:struct|enum|trait|type)\s+{name}\b|\bimpl\b[^{{;]*\b{name}\b"
                files = [src for src in sources if re.search(owner, src)]
                item = (
                    rf"\b(?:fn|const|static|type)\s+{member}\b"
                    rf"|^\s*(?:pub(?:\([a-z]+\))?\s+)?{member}\s*[:,({{]"
                )
                if not files:
                    missing.append(
                        f"{at(doc, text, span)}: `{name}::{member}`: no type `{name}` is "
                        "declared under crates/*/src, crates/*/tests or tests/"
                    )
                elif not any(
                    re.search(item, src, re.MULTILINE) or member in derived_methods(name, src)
                    for src in files
                ):
                    missing.append(
                        f"{at(doc, text, span)}: `{name}::{member}`: no file that declares "
                        f"or implements `{name}` has a fn, field, variant or derived "
                        f"method `{member}`"
                    )
    if len(checked) < 20:
        missing.append(
            f"only {len(checked)} type-and-member paths found in {MEMBER_DOCS}; "
            "update scripts/docs_check.py"
        )
    return missing, len(checked)


def check_architecture_idents():
    """CamelCase identifiers backticked in the checked sections of
    docs/ARCHITECTURE.md that no file under crates/*/src declares, and
    the number of distinct identifiers checked. In a path the first
    CamelCase segment is the type (its member is `check_doc_members`'s)."""
    text = ARCHITECTURE.read_text()
    names, missing = set(), []
    for title in ARCHITECTURE_SECTIONS:
        _, found, rest = text.partition(f"\n## {title}\n")
        if not found:
            missing.append(
                f"docs/ARCHITECTURE.md has no `## {title}` section; "
                "update scripts/docs_check.py"
            )
        section = rest.partition("\n## ")[0]
        for span in re.findall(r"`([^`\n]+)`", section):
            for path in PATH.findall(span):
                segments = path.split("::")
                at = next((i for i, s in enumerate(segments) if CAMEL.fullmatch(s)), None)
                if at is None or segments[at] in NOT_OURS:
                    continue
                names.add(segments[at])
    sources = [p.read_text() for p in sorted(CRATES.glob("*/src/**/*.rs"))]
    declared = r"\b(?:struct|enum|trait|type|fn|const)\s+{}\b"
    for name in sorted(names):
        if not any(re.search(declared.format(name), src) for src in sources):
            missing.append(
                f"`{name}` is named in docs/ARCHITECTURE.md (crate map / read "
                "path / write path) but declared nowhere under crates/*/src"
            )
    return missing, len(names)


TARGET_DOCS = [
    "README.md",
    "justfile",
    ".github/workflows/ci.yml",
    ".claude/skills/verify/SKILL.md",
    "docs/*.md",
]
# a package or target flag and the name after it; `\s+` spans a line
# break, so a command wrapped inside a prose sentence is still read, and
# `mkdir -p DIR` is not a package
TARGET_FLAG = re.compile(
    r"(?<![\w-])(?<!mkdir )(-p|--bin|--example|--bench|--test)\s+([A-Za-z_][\w-]*)"
)
FLAG_KIND = {
    "-p": "package",
    "--bin": "bin",
    "--example": "example",
    "--bench": "bench",
    "--test": "test",
}
# the package a command on one line selects
PACKAGE_FLAG = re.compile(r"(?<![\w-])-p\s+([A-Za-z_][\w-]*)")
# target kind (also its `[[kind]]` manifest array) -> auto-discovery directory
TARGET_DIRS = {"bin": "src/bin", "example": "examples", "bench": "benches", "test": "tests"}
# a backticked source path: `tests/batch.rs`, `engine/src/lib.rs`
RS_PATH = re.compile(r"`([\w./-]*\w\.rs)`")


def workspace_targets() -> dict:
    """Kind -> names over the workspace members and the repo benchmark
    package: packages, plus every bin / example / bench target a
    manifest declares or cargo auto-discovers (`NAME.rs` or
    `NAME/main.rs` in the target's directory, `src/main.rs` as a bin
    named after its package)."""
    members = tomllib.loads((ROOT / "Cargo.toml").read_text())["workspace"]["members"]
    found = {kind: set() for kind in ["package", *TARGET_DIRS]}
    found["bins_of"] = {}
    for pkg in [ROOT / m for m in members] + [ROOT / "benchmark"]:
        manifest = tomllib.loads((pkg / "Cargo.toml").read_text())
        name = manifest["package"]["name"]
        found["package"].add(name)
        bins = {target["name"] for target in manifest.get("bin", [])}
        if (pkg / "src" / "main.rs").exists():
            bins.add(name)
        found["bins_of"][name] = bins
        found["bin"] |= bins
        for kind, sub in TARGET_DIRS.items():
            if kind == "bin":
                continue
            found[kind].update(f.stem for f in (pkg / sub).glob("*.rs"))
            found[kind].update(f.parent.name for f in (pkg / sub).glob("*/main.rs"))
            found[kind].update(target["name"] for target in manifest.get(kind, []))
    return found


def at(doc: Path, text: str, m: re.Match) -> str:
    """`file:line` of match `m` in `doc`, whose contents are `text`."""
    return f"{doc.relative_to(ROOT)}:{text.count(chr(10), 0, m.start()) + 1}"


def check_doc_targets():
    """`file:line: …` for every package or target flag in the checked
    docs that names nothing in the workspace and every backticked `.rs`
    path that names no file, and the number of flags and paths checked."""
    known = workspace_targets()
    docs = sorted({f for pattern in TARGET_DOCS for f in ROOT.glob(pattern)})
    missing, checked, paths = [], 0, 0
    for doc in docs:
        text = doc.read_text()
        for m in TARGET_FLAG.finditer(text):
            checked += 1
            flag, name = m.groups()
            kind = FLAG_KIND[flag]
            if name not in known[kind]:
                what = "`[[bin]]`" if kind == "bin" else kind
                missing.append(f"{at(doc, text, m)}: `{flag} {name}` names no {what} of the workspace")
            elif flag == "--bin":
                line = text[text.rfind("\n", 0, m.start()) + 1 : m.start()]
                packages = PACKAGE_FLAG.findall(line)
                if packages and name not in known["bins_of"].get(packages[-1], set()):
                    missing.append(f"{at(doc, text, m)}: `--bin {name}` is no `[[bin]]` of `{packages[-1]}`")
        for m in RS_PATH.finditer(text):
            paths += 1
            path = m.group(1)
            if not any((base / path).is_file() for base in (ROOT, CRATES)):
                missing.append(f"{at(doc, text, m)}: `{path}` names no file (from the root or crates/)")
    if checked < 10 or paths < 10:
        missing.append(
            f"only {checked} package/target flags and {paths} `.rs` paths found "
            f"in {TARGET_DOCS}; update scripts/docs_check.py"
        )
    return missing, checked + paths


JUSTFILE = ROOT / "justfile"
# a recipe header: its name, its parameters (`*flags=""`), then `:` (not
# `:=`) and its dependencies
RECIPE = re.compile(
    r"^([A-Za-z_][\w-]*)(?:\s+[*+$]?[\w-]+(?:=\"[^\"]*\"|='[^']*'|=[\w-]+)?)*\s*:(?!=)(.*)$",
    re.M,
)
# a backticked `just NAME …` command
JUST_COMMAND = re.compile(r"`just ([A-Za-z_][\w-]*)[^`]*`")


def check_just_recipes():
    """`file:line: …` for every backticked `just NAME` in the checked docs
    and every dependency of `verify:` that names no recipe of the
    justfile, and the number of distinct names checked."""
    text = JUSTFILE.read_text()
    recipes = {m.group(1): m.group(2).split() for m in RECIPE.finditer(text)}
    missing = [
        f"justfile: `verify` depends on `{dep}`, which is no recipe"
        for dep in recipes.get("verify", [])
        if dep not in recipes
    ]
    if "verify" not in recipes:
        missing.append("justfile: no `verify` recipe; update scripts/docs_check.py")
    named = set()
    docs = sorted({f for pattern in TARGET_DOCS for f in ROOT.glob(pattern)})
    for doc in docs:
        doc_text = doc.read_text()
        for m in JUST_COMMAND.finditer(doc_text):
            named.add(m.group(1))
            if m.group(1) not in recipes:
                missing.append(f"{at(doc, doc_text, m)}: `just {m.group(1)}` names no recipe")
    if len(named) < 5:
        missing.append(
            f"only {len(named)} `just` recipes named in {TARGET_DOCS}; "
            "update scripts/docs_check.py"
        )
    return missing, len(named | set(recipes.get("verify", [])))


MODULE_DOCS = ["README.md", "docs/*.md"]
# a lowercase-led `a::b[::c…]` path, not the tail of a longer path
MODULE_PATH = re.compile(r"(?<![\w:])([a-z_][a-z0-9_]*(?:::[A-Za-z_][A-Za-z0-9_]*)+)")
# paths into std and Rust's own path keywords: not ours to resolve
FOREIGN_ROOTS = {"std", "alloc", "self", "super", "crate"}


def module_children(module: Path, name: str) -> list:
    """The file of submodule `name` of the module in file `module`
    (a `lib.rs`, `mod.rs` or `foo.rs`), as a one- or zero-element list."""
    base = module.parent if module.name in ("lib.rs", "mod.rs") else module.with_suffix("")
    return [f for f in (base / f"{name}.rs", base / name / "mod.rs") if f.is_file()]


def declares_pub(module: Path, name: str) -> bool:
    """Does the module in file `module` declare or re-export `name` as
    `pub` (a `pub(crate)` item does not count)?"""
    src = module.read_text()
    item = rf"\bpub\s+(?:unsafe\s+)?(?:fn|struct|enum|trait|type|const|static|mod)\s+{name}\b"
    if re.search(item, src):
        return True
    return any(re.search(rf"\b{name}\b", use) for use in re.findall(r"\bpub use\b[^;]*;", src))


def resolve_module_path(path: str, crates: set) -> str | None:
    """Why `path` resolves to nothing under crates/*/src, or None when it
    resolves (or is not a path into this workspace)."""
    segments = path.split("::")
    if segments[0] == "expfinder" and segments[1] in crates:
        segments = segments[1:]
    elif segments[0].startswith("expfinder_"):
        segments[0] = segments[0].removeprefix("expfinder_")
    head, rest = segments[0], segments[1:]
    if head in FOREIGN_ROOTS:
        return None
    if head in crates:
        modules = [CRATES / head / "src" / "lib.rs"]
    else:
        modules = sorted(
            f
            for f in CRATES.glob("*/src/**/*.rs")
            if f.stem == head or (f.name == "mod.rs" and f.parent.name == head)
        )
        if not modules:
            return f"no crate and no module file named `{head}` under crates/*/src"
    for seg in rest:
        children = [c for m in modules for c in module_children(m, seg)]
        if children:
            modules = children
            continue
        if any(declares_pub(m, seg) for m in modules):
            return None  # an item; what follows it is a member
        where = ", ".join(str(m.relative_to(ROOT)) for m in modules)
        return f"`{seg}` is neither a submodule nor a `pub` item of {where}"
    return None


def check_module_paths():
    """`file:line: …` for every backticked lowercase module path in
    README.md and docs/*.md that does not resolve, and the number of
    paths checked."""
    crates = {p.parent.parent.name for p in CRATES.glob("*/src/lib.rs")}
    docs = sorted({f for pattern in MODULE_DOCS for f in ROOT.glob(pattern)})
    missing, checked = [], 0
    for doc in docs:
        text = doc.read_text()
        for span in re.finditer(r"`([^`\n]+)`", text):
            for path in MODULE_PATH.findall(span.group(1)):
                checked += 1
                why = resolve_module_path(path, crates)
                if why:
                    missing.append(f"{at(doc, text, span)}: `{path}`: {why}")
    if checked < 10:
        missing.append(
            f"only {checked} module paths found in {MODULE_DOCS}; update scripts/docs_check.py"
        )
    return missing, checked


# where the oracles live, and the one crate besides tests that may judge
# by them: `bench_match` asserts its counters' answers against them
ORACLE_HOME = CRATES / "core" / "src" / "naive.rs"
ORACLE_JUDGES = {"bench"}
ORACLE_CALL = re.compile(r"\bnaive::|\bnaive_[a-z_]+\b")


def check_oracle_callers():
    """`file:line: …` for every line of release code that names a
    `core::naive` oracle, and the number of files checked. Release code
    is each file under crates/*/src up to its first `#[cfg(test)]`
    (comment lines skipped), outside ORACLE_HOME and the ORACLE_JUDGES
    crates — so an oracle can be compiled into `core` (the repo benchmark
    imports it) but nothing that serves a request can call one."""
    missing, checked = [], 0
    for src in sorted(CRATES.glob("*/src/**/*.rs")):
        crate = src.relative_to(CRATES).parts[0]
        if src == ORACLE_HOME or crate in ORACLE_JUDGES:
            continue
        checked += 1
        code = src.read_text().partition("#[cfg(test)]")[0]
        for n, line in enumerate(code.splitlines(), 1):
            if not line.lstrip().startswith("//") and ORACLE_CALL.search(line):
                missing.append(
                    f"{src.relative_to(ROOT)}:{n}: release code names a `core::naive` "
                    "oracle; only tests and crates/bench judge by it"
                )
    if checked < 20:
        missing.append(f"only {checked} release source files found; update scripts/docs_check.py")
    return missing, checked


MEMO_HOME = CRATES / "graph" / "src" / "memo.rs"
MEMO_CRATES = ["graph", "pattern", "core", "compress", "incremental"]


def check_memo_home():
    """`file:line: …` for every line under the MEMO_CRATES' src that
    names `RwLock<` outside MEMO_HOME, and the number of files checked."""
    missing, checked = [], 0
    for crate in MEMO_CRATES:
        for src in sorted((CRATES / crate / "src").glob("**/*.rs")):
            if src == MEMO_HOME:
                continue
            checked += 1
            for n, line in enumerate(src.read_text().splitlines(), 1):
                if "RwLock<" in line:
                    missing.append(
                        f"{src.relative_to(ROOT)}:{n}: a lock-guarded map outside "
                        "graph::memo — store the memo through `Memo`"
                    )
    if checked < 20 or not MEMO_HOME.is_file():
        missing.append(f"{MEMO_HOME} or the library sources moved; update scripts/docs_check.py")
    return missing, checked


VENDOR = ROOT / "vendor"
USER_MANIFESTS = [ROOT / "Cargo.toml", *sorted(CRATES.glob("*/Cargo.toml"))]


def check_vendor_users():
    """`path: …` for every package under vendor/ that no manifest in
    USER_MANIFESTS depends on, and the number of vendor packages found."""
    used = set()
    for manifest in USER_MANIFESTS:
        doc = tomllib.loads(manifest.read_text())
        for table in ("dependencies", "dev-dependencies"):
            for key, spec in doc.get(table, {}).items():
                used.add(spec.get("package", key) if isinstance(spec, dict) else key)
    missing, checked = [], 0
    for manifest in sorted(VENDOR.glob("*/Cargo.toml")):
        checked += 1
        name = tomllib.loads(manifest.read_text())["package"]["name"]
        if name not in used:
            missing.append(
                f"{manifest.relative_to(ROOT)}: vendored `{name}` has no user in the "
                "root package or crates/*; delete it"
            )
    if checked < 2:
        missing.append(f"only {checked} vendor packages found; update scripts/docs_check.py")
    return missing, checked


# ("POST", ["graphs", name, "subscribe"]) — including arms wrapped over
# lines; stop at the closing bracket of the segment list
ARM = re.compile(r'\(\s*"(GET|POST|PUT|DELETE|PATCH)"\s*,\s*\[([^\]]*)\]\s*\)')


def arm_to_path(segments: str):
    """Render one match-arm segment list as a URL path, or None for the
    405/404 catch-all arms (alternations and `_` wildcards)."""
    path = []
    for raw in segments.split(","):
        seg = raw.strip()
        if not seg:
            continue
        if "|" in seg or seg == "_":
            return None  # catch-all arm, not a served route
        if seg.startswith('"') and seg.endswith('"'):
            path.append(seg[1:-1])
        elif seg.isidentifier():
            path.append("{name}")
        else:
            return None
    return "/" + "/".join(path)


def main() -> int:
    src = ROUTES.read_text()
    spec = PROTOCOL.read_text()
    routes = []
    for m in ARM.finditer(src):
        path = arm_to_path(m.group(2))
        if path is not None:
            routes.append((m.group(1), path))
    routes = sorted(set(routes))
    if len(routes) < 5:
        print(
            f"docs-check: only {len(routes)} routes parsed from {ROUTES} — "
            "the dispatch match shape changed; update scripts/docs_check.py",
            file=sys.stderr,
        )
        return 1
    missing = [
        f"{method} {path}"
        for method, path in routes
        if f"### `{method} {path}`" not in spec
    ]
    for route in missing:
        print(
            f"docs-check: no `### \\`{route}\\`` section in docs/PROTOCOL.md",
            file=sys.stderr,
        )
    variant_missing, n_variants = check_route_enums(spec)
    for msg in variant_missing:
        print(f"docs-check: {msg}", file=sys.stderr)
    ident_missing, n_idents = check_architecture_idents()
    for msg in ident_missing:
        print(f"docs-check: {msg}", file=sys.stderr)
    member_missing, n_members = check_doc_members()
    for msg in member_missing:
        print(f"docs-check: {msg}", file=sys.stderr)
    target_missing, n_targets = check_doc_targets()
    for msg in target_missing:
        print(f"docs-check: {msg}", file=sys.stderr)
    recipe_missing, n_recipes = check_just_recipes()
    for msg in recipe_missing:
        print(f"docs-check: {msg}", file=sys.stderr)
    path_missing, n_paths = check_module_paths()
    for msg in path_missing:
        print(f"docs-check: {msg}", file=sys.stderr)
    oracle_missing, n_release = check_oracle_callers()
    for msg in oracle_missing:
        print(f"docs-check: {msg}", file=sys.stderr)
    memo_missing, n_memo = check_memo_home()
    for msg in memo_missing:
        print(f"docs-check: {msg}", file=sys.stderr)
    vendor_missing, n_vendor = check_vendor_users()
    for msg in vendor_missing:
        print(f"docs-check: {msg}", file=sys.stderr)
    failed = [
        missing,
        variant_missing,
        ident_missing,
        member_missing,
        target_missing,
        recipe_missing,
    ]
    if any(failed) or path_missing or oracle_missing or memo_missing or vendor_missing:
        return 1
    print(
        f"docs-check OK: {len(routes)} routes and {n_variants} route-enum "
        f"variants, all specified in "
        f"docs/PROTOCOL.md; {n_idents} type names in docs/ARCHITECTURE.md, "
        f"all declared under crates/*/src; {n_members} type-and-member paths "
        "in the docs, all resolving; "
        f"{n_targets} package/target flags and `.rs` paths in the docs, all "
        f"naming live targets and files; {n_recipes} `just` recipes named, all "
        f"declared in the justfile; {n_paths} module paths, all resolving "
        f"under crates/*/src; {n_release} release source files, none calling "
        f"a `core::naive` oracle; {n_memo} library source files, no memo "
        f"outside graph::memo; {n_vendor} vendor packages, each with a user"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
