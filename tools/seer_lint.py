#!/usr/bin/env python3
"""The Seer project linter: repo-specific invariants no generic tool knows.

Tree checks (always run; see README "Static analysis"):

 1. Hot-path regions. Code between `// seer-hot-begin(<name>)` and
    `// seer-hot-end(<name>)` markers must not heap-allocate or iterate
    unordered containers — these are the regions PR 8 made
    allocation-free, and the required-region list below keeps the
    markers themselves from silently disappearing. A line may opt out
    with a preceding `// seer-lint: allow(<rule>) <reason>` comment.

 2. Suppression hygiene. Every NOLINT marker in src/ names its check
    and carries a `: reason`; every SEER_NO_THREAD_SAFETY_ANALYSIS
    escape hatch outside its defining header carries a nearby comment.

 3. Fault-site coverage. Every `faultsite::` constant declared in
    src/support/FaultInjector.h is registered in faultSiteNames(),
    checked somewhere in src/, and exercised by at least one test.

 4. Documentation cross-checks. Every metric name registered in src/
    and every `spanname::` constant appears in README.md (brace sets
    like `seer_cost_model_error_{select,prepare,run}` expand); every
    `seer_*` token in the README's Observability section names a real
    metric.

Exposition check (with --metrics FILE; absorbed from the former
tools/metrics_lint.py): the Prometheus text exposition grammar —
`# TYPE` lines, counter `_total` suffix rules, cumulative histogram
buckets with increasing `le` ending in `+Inf` agreeing with `_count`.

Usage: tools/seer_lint.py [--root DIR] [--metrics FILE]
Exit status 0 when clean; 1 with one `seer_lint: ...` line per
violation otherwise.
"""

import argparse
import math
import re
import sys
from pathlib import Path

# --------------------------------------------------------------------------
# Check 1: hot-path regions
# --------------------------------------------------------------------------

# Region name -> file that must contain it. A renamed or deleted marker
# fails here instead of silently un-protecting the region.
REQUIRED_HOT_REGIONS = {
    "flat-tree-predict": "src/ml/FlatTree.h",
    "features-vector-into": "src/core/Features.cpp",
    "features-gathered-into": "src/core/Features.cpp",
    "select-compiled": "src/core/ExecutionPlan.cpp",
    "scoped-span-inline": "src/support/Tracing.h",
}

HOT_RULES = {
    "hot-path-alloc": re.compile(
        r"\bnew\b|\bmalloc\b|\bcalloc\b|\brealloc\b|\bmake_unique\b"
        r"|\bmake_shared\b|\bpush_back\b|\bemplace_back\b|\bemplace\b"
        r"|\bresize\b|\breserve\b|\bstd::string\b|\bstd::vector<"
    ),
    "hot-path-unordered": re.compile(r"\bunordered_map\b|\bunordered_set\b"),
}

HOT_BEGIN_RE = re.compile(r"seer-hot-begin\(([a-z0-9-]+)\)")
HOT_END_RE = re.compile(r"seer-hot-end\(([a-z0-9-]+)\)")
ALLOW_RE = re.compile(r"seer-lint:\s*allow\(([a-z0-9-]+)\)\s*(\S.*)?")

# --------------------------------------------------------------------------
# Name patterns of the documentation and exposition checks
# --------------------------------------------------------------------------

NAME_RE = re.compile(r"^seer(_[a-z0-9]+)+$")
TYPE_RE = re.compile(
    r"^# TYPE ([A-Za-z_:][A-Za-z0-9_:]*) (counter|gauge|histogram)$")
SAMPLE_RE = re.compile(
    r"^([A-Za-z_:][A-Za-z0-9_:]*)"       # metric name (with any suffix)
    r'(?:\{le="([^"]*)"\})?'             # optional histogram le label
    r" (\S+)$"                           # value
)
METRIC_REG_RE = re.compile(r'\.(?:counter|gauge|histogram)\("(seer_[a-z0-9_]+)"\)')
SPANNAME_RE = re.compile(
    r'inline constexpr const char \*\w+ = "([a-z0-9_.]+)";')
FAULTSITE_RE = re.compile(
    r'inline constexpr const char \*(\w+) = "([a-z0-9_.]+)";')


class Lint:
    def __init__(self):
        self.errors = []

    def error(self, where, message):
        self.errors.append(f"seer_lint: {where}: {message}")


def strip_line_comment(line):
    """Drops a // comment tail (good enough: the tree has no multi-line
    /* */ blocks in hot regions and no // inside string literals there)."""
    cut = line.find("//")
    return line if cut < 0 else line[:cut]


def iter_source_files(root, subdirs, suffixes=(".h", ".cpp")):
    for sub in subdirs:
        base = root / sub
        if not base.is_dir():
            continue
        for path in sorted(base.rglob("*")):
            if path.suffix in suffixes and path.is_file():
                yield path


def rel(root, path):
    return str(path.relative_to(root))


# --------------------------------------------------------------------------
# Check 1 implementation
# --------------------------------------------------------------------------

def lint_hot_regions(root, lint):
    found = {}  # name -> relative file
    for path in iter_source_files(root, ["src"]):
        relpath = rel(root, path)
        lines = path.read_text().splitlines()
        region = None        # (name, begin_line)
        allow = {}           # rule -> marker line, armed for next code line
        for line_no, raw in enumerate(lines, start=1):
            begin = HOT_BEGIN_RE.search(raw)
            end = HOT_END_RE.search(raw)
            if begin:
                if region is not None:
                    lint.error(f"{relpath}:{line_no}",
                               f"seer-hot-begin({begin.group(1)}) inside "
                               f"open region '{region[0]}' (no nesting)")
                region = (begin.group(1), line_no)
                if begin.group(1) in found:
                    lint.error(f"{relpath}:{line_no}",
                               f"duplicate hot region "
                               f"'{begin.group(1)}'")
                found[begin.group(1)] = relpath
                continue
            if end:
                if region is None or region[0] != end.group(1):
                    lint.error(f"{relpath}:{line_no}",
                               f"seer-hot-end({end.group(1)}) does not "
                               "close an open region")
                region = None
                allow.clear()
                continue
            if region is None:
                continue
            m = ALLOW_RE.search(raw)
            if m:
                if not m.group(2):
                    lint.error(f"{relpath}:{line_no}",
                               f"seer-lint: allow({m.group(1)}) needs a "
                               "reason after the closing paren")
                allow[m.group(1)] = line_no
                continue
            code = strip_line_comment(raw)
            if not code.strip():
                continue  # blank or comment-only: allow stays armed
            for rule, pattern in HOT_RULES.items():
                if pattern.search(code):
                    if rule in allow:
                        continue
                    lint.error(f"{relpath}:{line_no}",
                               f"{rule} violation in hot region "
                               f"'{region[0]}': {code.strip()!r} (add a "
                               f"'seer-lint: allow({rule}) <reason>' "
                               "comment if intentional)")
            allow.clear()  # an allow covers exactly the next code line
        if region is not None:
            lint.error(f"{relpath}:{region[1]}",
                       f"hot region '{region[0]}' is never closed")

    for name, expected_file in sorted(REQUIRED_HOT_REGIONS.items()):
        if name not in found:
            lint.error(expected_file,
                       f"required hot region '{name}' is missing — its "
                       "markers were removed or renamed")
        elif found[name] != expected_file:
            lint.error(found[name],
                       f"hot region '{name}' moved (expected in "
                       f"{expected_file}) — update REQUIRED_HOT_REGIONS "
                       "if deliberate")


# --------------------------------------------------------------------------
# Check 2 implementation
# --------------------------------------------------------------------------

NOLINT_RE = re.compile(r"NOLINT(NEXTLINE|BEGIN|END)?")
NOLINT_OK_RE = re.compile(r"NOLINT(?:NEXTLINE|BEGIN)?\([^)]+\):\s*\S")


def lint_suppressions(root, lint):
    for path in iter_source_files(root, ["src"]):
        relpath = rel(root, path)
        lines = path.read_text().splitlines()
        for line_no, raw in enumerate(lines, start=1):
            for m in NOLINT_RE.finditer(raw):
                if m.group(1) == "END":
                    continue
                if not NOLINT_OK_RE.search(raw):
                    lint.error(f"{relpath}:{line_no}",
                               "NOLINT must name its check and carry a "
                               "reason: // NOLINT...(check): why")
            if relpath == "src/support/ThreadAnnotations.h":
                continue
            code = strip_line_comment(raw)
            if "SEER_NO_THREAD_SAFETY_ANALYSIS" in code:
                context = lines[max(0, line_no - 7):line_no - 1]
                if not any(line.lstrip().startswith(("//", "///"))
                           for line in context):
                    lint.error(f"{relpath}:{line_no}",
                               "SEER_NO_THREAD_SAFETY_ANALYSIS needs a "
                               "justification comment in the 6 lines "
                               "above it")


# --------------------------------------------------------------------------
# Check 3 implementation
# --------------------------------------------------------------------------

def lint_fault_sites(root, lint):
    header = root / "src/support/FaultInjector.h"
    text = header.read_text()
    m = re.search(r"namespace faultsite \{(.*?)\} // namespace faultsite",
                  text, re.DOTALL)
    if not m:
        lint.error("src/support/FaultInjector.h",
                   "cannot find 'namespace faultsite { ... }'")
        return
    sites = dict(FAULTSITE_RE.findall(m.group(1)))
    if not sites:
        lint.error("src/support/FaultInjector.h",
                   "namespace faultsite declares no constants")
        return

    registry = (root / "src/support/FaultInjector.cpp").read_text()
    src_text = "".join(p.read_text()
                       for p in iter_source_files(root, ["src"])
                       if p.name not in ("FaultInjector.h",
                                         "FaultInjector.cpp"))
    test_text = "".join(p.read_text()
                        for p in iter_source_files(root, ["tests"]))

    for name, literal in sorted(sites.items()):
        qualified = f"faultsite::{name}"
        if qualified not in registry:
            lint.error("src/support/FaultInjector.h",
                       f"{qualified} (\"{literal}\") is not listed in "
                       "faultSiteNames()")
        if qualified not in src_text:
            lint.error("src/support/FaultInjector.h",
                       f"{qualified} (\"{literal}\") is never checked by "
                       "any code outside FaultInjector — dead fault site")
        if qualified not in test_text and literal not in test_text:
            lint.error("src/support/FaultInjector.h",
                       f"{qualified} (\"{literal}\") is not exercised by "
                       "any test or fault plan under tests/")


# --------------------------------------------------------------------------
# Check 4 implementation
# --------------------------------------------------------------------------

BRACE_SET_RE = re.compile(r"([a-z0-9_.]+)\{([a-z0-9_,]+)\}")
README_METRIC_RE = re.compile(r"\bseer_[a-z0-9_]+")


def registered_metric_names(root):
    names = set()
    for path in iter_source_files(root, ["src"]):
        names.update(METRIC_REG_RE.findall(path.read_text()))
    return names


def declared_span_names(root):
    text = (root / "src/support/Tracing.h").read_text()
    m = re.search(r"namespace spanname \{(.*?)\} // namespace spanname",
                  text, re.DOTALL)
    return SPANNAME_RE.findall(m.group(1)) if m else []


def expand_braces(text):
    """`seer_x_{a,b}` -> {'seer_x_a', 'seer_x_b'} for README prose."""
    out = set()
    for prefix, alts in BRACE_SET_RE.findall(text):
        for alt in alts.split(","):
            out.add(prefix + alt)
    return out


def lint_doc_cross_checks(root, lint):
    readme = (root / "README.md").read_text()
    expanded = expand_braces(readme)
    metrics = registered_metric_names(root)
    spans = declared_span_names(root)

    if not metrics:
        lint.error("src", "found no registered metric names — the "
                          "METRIC_REG_RE idiom changed?")
    if not spans:
        lint.error("src/support/Tracing.h",
                   "cannot parse 'namespace spanname' constants")

    for name in sorted(metrics):
        if name not in readme and name not in expanded:
            lint.error("README.md",
                       f"registered metric '{name}' is undocumented — add "
                       "it to the Observability metric reference")
    for name in spans:
        if name not in readme:
            lint.error("README.md",
                       f"span name '{name}' is undocumented — add it to "
                       "the Observability span list")

    # Reverse direction, scoped to the Observability section so build
    # instructions mentioning e.g. seer_lint.py don't false-positive.
    section = re.search(r"## Observability(.*?)\n## ", readme, re.DOTALL)
    if section is None:
        lint.error("README.md", "cannot find the '## Observability' section")
    else:
        text = section.group(1)
        mentioned = set()
        for m in README_METRIC_RE.finditer(text):
            nxt = text[m.end():m.end() + 1]
            if nxt in (".", "/", "-"):
                continue  # part of a filename/path, not a metric mention
            mentioned.add(m.group(0))
        mentioned |= expand_braces(text)
        for name in sorted(mentioned):
            base = name.rstrip("_")
            if name in metrics or base in metrics:
                continue
            if any(m.startswith(base) for m in metrics):
                continue  # documented as a family prefix
            lint.error("README.md",
                       f"Observability section mentions '{name}' which "
                       "is not a registered metric")
    return metrics


# --------------------------------------------------------------------------
# Exposition grammar (absorbed from tools/metrics_lint.py)
# --------------------------------------------------------------------------

def parse_value(text):
    if text == "+Inf":
        return math.inf
    try:
        return float(text)
    except ValueError:
        return None


def lint_exposition(lines, lint):
    """Checks the grammar; returns the set of base metric names seen."""
    seen = set()
    current = None        # (name, type)
    hist = None           # histogram accumulation state

    def close_histogram(line_no):
        if hist is None:
            return
        name = hist["name"]
        if not hist["inf"]:
            lint.error(f"line {line_no}",
                       f"histogram '{name}' has no +Inf bucket")
        if hist["count"] is None:
            lint.error(f"line {line_no}",
                       f"histogram '{name}' has no _count sample")
        if hist["sum"] is None:
            lint.error(f"line {line_no}",
                       f"histogram '{name}' has no _sum sample")
        if (
            hist["count"] is not None
            and hist["last_cumulative"] is not None
            and hist["count"] != hist["last_cumulative"]
        ):
            lint.error(
                f"line {line_no}",
                f"histogram '{name}': +Inf bucket "
                f"{hist['last_cumulative']} != _count {hist['count']}",
            )

    for line_no, raw in enumerate(lines, start=1):
        line = raw.rstrip("\n")
        if not line:
            continue

        m = TYPE_RE.match(line)
        if m:
            close_histogram(line_no)
            hist = None
            name, kind = m.groups()
            if not NAME_RE.match(name):
                lint.error(
                    f"line {line_no}",
                    f"metric name '{name}' violates the "
                    "seer_<noun>[_<unit>][_total] scheme",
                )
            if kind == "counter" and not name.endswith("_total"):
                lint.error(f"line {line_no}",
                           f"counter '{name}' must end in _total")
            if kind != "counter" and name.endswith("_total"):
                lint.error(f"line {line_no}",
                           f"{kind} '{name}' must not end in _total")
            if name in seen:
                lint.error(f"line {line_no}",
                           f"duplicate TYPE for metric '{name}'")
            seen.add(name)
            current = (name, kind)
            if kind == "histogram":
                hist = {
                    "name": name,
                    "prev_le": None,
                    "prev_cumulative": None,
                    "last_cumulative": None,
                    "inf": False,
                    "count": None,
                    "sum": None,
                }
            continue

        if line.startswith("#"):
            lint.error(f"line {line_no}",
                       f"unexpected comment '{line}' (only # TYPE)")
            continue

        m = SAMPLE_RE.match(line)
        if not m:
            lint.error(f"line {line_no}", f"unparseable sample line '{line}'")
            continue
        sample_name, le, value_text = m.groups()
        value = parse_value(value_text)
        if value is None or (math.isinf(value) and value_text != "+Inf"):
            lint.error(f"line {line_no}", f"unparseable value '{value_text}'")
            continue

        if current is None:
            lint.error(f"line {line_no}",
                       f"sample '{sample_name}' before any # TYPE")
            continue
        name, kind = current

        if kind in ("counter", "gauge"):
            if sample_name != name or le is not None:
                lint.error(
                    f"line {line_no}",
                    f"sample '{line}' does not match preceding "
                    f"# TYPE {name} {kind}",
                )
                continue
            if kind == "counter" and value != int(value):
                lint.error(f"line {line_no}",
                           f"counter '{name}' value {value_text} "
                           "is not integral")
            if value < 0:
                lint.error(f"line {line_no}",
                           f"negative {kind} sample '{line}'")
            continue

        # Histogram samples: _bucket{le=...}, _sum, _count.
        if sample_name == name + "_bucket":
            if le is None:
                lint.error(f"line {line_no}",
                           f"bucket sample without le label: '{line}'")
                continue
            bound = parse_value(le)
            if bound is None:
                lint.error(f"line {line_no}",
                           f"unparseable le boundary '{le}'")
                continue
            if value != int(value) or value < 0:
                lint.error(f"line {line_no}",
                           f"bucket count '{value_text}' must be a "
                           "non-negative integer")
                continue
            if hist["inf"]:
                lint.error(f"line {line_no}", f"bucket after +Inf in '{name}'")
            if hist["prev_le"] is not None and bound <= hist["prev_le"]:
                lint.error(f"line {line_no}",
                           f"le boundaries not increasing in '{name}'")
            if (
                hist["prev_cumulative"] is not None
                and value < hist["prev_cumulative"]
            ):
                lint.error(f"line {line_no}",
                           f"bucket counts not cumulative in '{name}'")
            hist["prev_le"] = bound
            hist["prev_cumulative"] = value
            hist["last_cumulative"] = int(value)
            if math.isinf(bound):
                hist["inf"] = True
        elif sample_name == name + "_sum":
            hist["sum"] = value
        elif sample_name == name + "_count":
            if value != int(value):
                lint.error(f"line {line_no}",
                           f"_count '{value_text}' is not integral")
            hist["count"] = int(value)
        else:
            lint.error(
                f"line {line_no}",
                f"sample '{sample_name}' does not match preceding "
                f"# TYPE {name} histogram",
            )

    close_histogram(len(lines))
    return seen


def lint_metrics_file(metrics_file, lint):
    lines = Path(metrics_file).read_text().splitlines()
    if not lines:
        lint.error(metrics_file, "exposition file is empty")
    return lint_exposition(lines, lint)


# --------------------------------------------------------------------------
# Driver
# --------------------------------------------------------------------------

def main():
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument(
        "--root",
        default=str(Path(__file__).resolve().parent.parent),
        help="repository root to lint (default: this script's repo)")
    parser.add_argument(
        "--metrics", metavar="FILE", default=None,
        help="also lint a Prometheus exposition produced by seer-serve")
    args = parser.parse_args()
    root = Path(args.root).resolve()

    lint = Lint()
    lint_hot_regions(root, lint)
    lint_suppressions(root, lint)
    lint_fault_sites(root, lint)
    metrics = lint_doc_cross_checks(root, lint)

    seen = set()
    if args.metrics is not None:
        seen = lint_metrics_file(args.metrics, lint)

    for error in lint.errors:
        print(error, file=sys.stderr)
    if lint.errors:
        return 1
    summary = (f"seer_lint: OK ({len(REQUIRED_HOT_REGIONS)} hot regions, "
               f"{len(metrics)} metrics documented")
    if args.metrics is not None:
        summary += f", {len(seen)} exposition metrics"
    print(summary + ")")
    return 0


if __name__ == "__main__":
    sys.exit(main())
