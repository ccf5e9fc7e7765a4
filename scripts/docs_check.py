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
engine's `Route` (the query-body preference), `EvalRoute` (the reported
evaluation route) and `PlanRoute` (the planner's `timings.plan` routes)
enums must appear in docs/PROTOCOL.md as its backticked wire string
(the variant name in snake_case), so a new route variant cannot ship
undocumented.

And the metrics vocabulary: every key of the `engine` block that
crates/server/src/metrics.rs emits for `GET /metrics` must appear in
that route's section of docs/PROTOCOL.md as `"key":` in the example
document, so a new metrics block cannot ship undocumented either — and,
the other way round, every key of the example's `"engine"` object must
be emitted, so a deleted block cannot stay in the spec.

And, the other way round, the type names docs/ARCHITECTURE.md leans on:
every backticked `CamelCase` identifier (bare, or the type in an
`a::b::C` / `C::method` path) in its crate map, "The read path" and "The
write path" must be declared (`struct|enum|trait|type|fn|const`)
somewhere under crates/*/src, so a PR that deletes or renames a type
cannot leave its name in the map. What follows the type in a path
(`Catalog::handle`, `Backend::Durable`) must be a `fn`, field or variant
declared in a file that declares or implements that type — so a deleted
method cannot stay in the map under a type that survived it either.
"""

import json
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ROUTES = ROOT / "crates" / "server" / "src" / "routes.rs"
PROTOCOL = ROOT / "docs" / "PROTOCOL.md"
ARCHITECTURE = ROOT / "docs" / "ARCHITECTURE.md"
CRATES = ROOT / "crates"
ENGINE_SRC = ROOT / "crates" / "engine" / "src"
ROUTE_ENUMS = ["Route", "EvalRoute", "PlanRoute"]
METRICS_SRC = ROOT / "crates" / "server" / "src" / "metrics.rs"

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


def check_route_enums(spec: str):
    """Wire strings of Route/EvalRoute/PlanRoute missing from the spec
    (an enum that cannot be found at all is reported the same way), and
    the number of variants checked."""
    missing, checked = [], 0
    sources = {p: p.read_text() for p in sorted(ENGINE_SRC.rglob("*.rs"))}
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


def check_engine_metrics(spec: str):
    """Keys of the `engine` block built in metrics.rs that the
    `GET /metrics` section of the spec does not show, keys of the
    section's example `"engine"` object that metrics.rs does not emit,
    and the number of keys checked. The block is the `obj(vec![...])`
    bound to `engine_doc`; its keys are the string literals that open a
    tuple one nesting level inside it. The example is the section's
    first ```json block, which must parse as JSON."""
    src = METRICS_SRC.read_text()
    start = src.find("let engine_doc = obj(vec![")
    if start < 0:
        return [
            f"`let engine_doc = obj(vec![` not found in {METRICS_SRC} — the "
            "metrics document is built differently now; update scripts/docs_check.py"
        ], 0
    keys, depth = [], 0
    body = src[src.index("[", start):]
    for m in re.finditer(r'\(\s*"([a-z_]+)"\s*,|[\[\]]', body):
        if m.group(0) == "[":
            depth += 1
        elif m.group(0) == "]":
            depth -= 1
            if depth == 0:
                break
        elif depth == 1:
            keys.append(m.group(1))
    section = spec.partition("### `GET /metrics`")[2].partition("\n### ")[0]
    missing = [
        f'engine.{key}: emitted by metrics.rs but `"{key}":` is not in the '
        "`GET /metrics` section of docs/PROTOCOL.md"
        for key in keys
        if f'"{key}":' not in section
    ]
    example = re.search(r"```json\n(.*?)```", section, re.DOTALL)
    try:
        documented = json.loads(example.group(1))["engine"] if example else None
    except (ValueError, KeyError, TypeError):
        documented = None
    if not isinstance(documented, dict):
        missing.append(
            'the `GET /metrics` example in docs/PROTOCOL.md has no parseable '
            '`"engine"` object; update scripts/docs_check.py'
        )
    else:
        missing += [
            f"engine.{key}: shown in the `GET /metrics` example of "
            "docs/PROTOCOL.md but not emitted by metrics.rs"
            for key in documented
            if key not in keys
        ]
    if len(keys) < 5:
        missing.append(
            f"only {len(keys)} engine metrics keys parsed from {METRICS_SRC}; "
            "update scripts/docs_check.py"
        )
    return missing, len(keys)


ARCHITECTURE_SECTIONS = ["Crate map", "The read path", "The write path"]
# CamelCase names the architecture text may use that this workspace does
# not declare: std and vendored (`parking_lot`) types
NOT_OURS = {"Arc", "Mutex", "OnceLock", "RwLock", "Vec"}
PATH = re.compile(r"[A-Za-z_][A-Za-z0-9_]*(?:::[A-Za-z_][A-Za-z0-9_]*)*")
CAMEL = re.compile(r"[A-Z][A-Za-z0-9]*[a-z][A-Za-z0-9]*")


def check_architecture_idents():
    """CamelCase identifiers backticked in the checked sections of
    docs/ARCHITECTURE.md that no file under crates/*/src declares, and
    the number of distinct identifiers checked. In a path the first
    CamelCase segment is the type; the segment after it, if any, is a
    method, field or variant, looked for in the files that declare or
    implement the type (a coarse scope, but a name deleted from every
    such file is certainly gone)."""
    text = ARCHITECTURE.read_text()
    names, members, missing = set(), set(), []
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
                if at + 1 < len(segments):
                    members.add((segments[at], segments[at + 1]))
    sources = [p.read_text() for p in sorted(CRATES.glob("*/src/**/*.rs"))]
    declared = r"\b(?:struct|enum|trait|type|fn|const)\s+{}\b"
    for name in sorted(names):
        if not any(re.search(declared.format(name), src) for src in sources):
            missing.append(
                f"`{name}` is named in docs/ARCHITECTURE.md (crate map / read "
                "path / write path) but declared nowhere under crates/*/src"
            )
    for name, member in sorted(members):
        owner = rf"\b(?:struct|enum|trait|type)\s+{name}\b|\bimpl\b[^{{;]*\b{name}\b"
        item = rf"\bfn\s+{member}\b|^\s*(?:pub(?:\([a-z]+\))?\s+)?{member}\s*[:,({{]"
        files = [src for src in sources if re.search(owner, src)]
        if files and not any(re.search(item, src, re.MULTILINE) for src in files):
            missing.append(
                f"`{name}::{member}` is named in docs/ARCHITECTURE.md but no file "
                f"that declares or implements `{name}` has a fn, field or "
                f"variant `{member}`"
            )
    return missing, len(names) + len(members)


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
    metrics_missing, n_metrics = check_engine_metrics(spec)
    for msg in metrics_missing:
        print(f"docs-check: {msg}", file=sys.stderr)
    ident_missing, n_idents = check_architecture_idents()
    for msg in ident_missing:
        print(f"docs-check: {msg}", file=sys.stderr)
    if missing or variant_missing or metrics_missing or ident_missing:
        return 1
    print(
        f"docs-check OK: {len(routes)} routes, {n_variants} route-enum "
        f"variants and {n_metrics} engine metrics blocks, all specified in "
        f"docs/PROTOCOL.md; {n_idents} type and member names in "
        "docs/ARCHITECTURE.md, all declared under crates/*/src"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
