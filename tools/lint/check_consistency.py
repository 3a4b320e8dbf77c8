#!/usr/bin/env python3
"""Repo-specific consistency lint: wire protocol vs docs vs metrics vs
tests, and bench baselines vs bench sources vs EXPERIMENTS.md.

Every fact about a daemon verb lives in one row of the verb table,
`kVerbs` in src/server/verbs.h: its wire name, its Verb enumerator,
its argument bounds and usage text, and its flags (inline, session,
mutation, idempotent, payload, envelope). A row therefore always has a
name and an inline-or-pooled class (pooled verbs get a latency
histogram); the C++ compiler checks that the rows follow the enum. What
can still drift is everything outside the table: the command table and
the concurrency notes in docs/server.md, and the contract tests.
UNDEFINE-style rot — a verb added to the wire but never documented or
tested — is exactly what this pass fails CI for.

Checks (each failure is one line on stderr; exit 1 if any):
  1. Every wire verb has a command row in docs/server.md ("## 2.
     Commands" table, rows starting with the verb in backticks).
  2. The inline verbs listed in docs/server.md section 3 (the
     "**Inline verbs**" bullet) are exactly the rows kVerbs flags
     kInline.
  3. Every wire verb is mentioned in tests/server_test.cc or
     tests/cluster_test.cc (case-insensitive — the test client wraps
     verbs in methods; the cluster verbs REPL/FORWARD live in the
     cluster suite).
  4. Every docs/server.md command row names a real wire verb (no
     documented-but-unimplemented commands).
  5. Every BENCH_<x>.json baseline has bench/bench_<x>.cc, a
     registration in bench/CMakeLists.txt, and a `bench_<x>` reference
     in an experiment heading of EXPERIMENTS.md.
  6. Every bench/bench_<x>.cc is registered in bench/CMakeLists.txt.
  7. The daemon bench artifact agrees with its source and docs: the
     pipeline-depth sweep in bench/bench_server.cc matches the
     `pipeline_depths` field of BENCH_server.json, the protocol list is
     text,binary, the checked-in baseline is green (no transport errors
     or verdict mismatches), and every headline field is documented in
     docs/server.md.
  8. The cluster bench artifact agrees with its source: the fields of
     BENCH_cluster.json are exactly the literal json.Add keys of
     bench/bench_cluster.cc, and the checked-in baseline is a green run
     (zero verdict mismatches, transport errors and failover failures;
     1->4 scaling at or above the 2.5x acceptance gate).
  9. Every `oodb_cluster_*` / `oodb_loop_*` metric name emitted by a
     source file under src/ is documented in docs/observability.md
     (the cluster-observability catalog, section 6) — fleet dashboards
     are built from the docs, so an undocumented series is invisible.

Run locally:  python3 tools/lint/check_consistency.py [--root DIR]
"""

import argparse
import json
import pathlib
import re
import sys


def read(root: pathlib.Path, rel: str) -> str:
    return (root / rel).read_text(encoding="utf-8")


def parse_verb_table(verbs_h: str) -> list[tuple[str, set[str]]]:
    """(wire name, flag names) for each row of kVerbs, in order."""
    m = re.search(r"constexpr VerbSpec kVerbs\[\]\s*=\s*\{(.*?)\n\};",
                  verbs_h, re.S)
    if not m:
        sys.exit("check_consistency: cannot find the kVerbs table "
                 "in src/server/verbs.h")
    rows = re.findall(r'\{"([A-Z]+)",\s*Verb::k\w+,[^{}]*?,\s*(\w[\w |]*)\}',
                      m.group(1))
    if not rows or len(rows) != m.group(1).count('{"'):
        sys.exit("check_consistency: cannot parse every row of the kVerbs "
                 "table in src/server/verbs.h")
    return [(name, set(re.findall(r"k[A-Z]\w*", flags)))
            for name, flags in rows]


def parse_doc_verbs(server_md: str) -> set[str]:
    """First backticked token of each command-table row."""
    section = re.search(r"## 2\. Commands(.*?)(?:\n## |\Z)", server_md, re.S)
    if not section:
        sys.exit("check_consistency: cannot find the '## 2. Commands' "
                 "section in docs/server.md")
    return set(re.findall(r"^\|\s*`([A-Z]+)\b", section.group(1), re.M))


def parse_doc_inline_verbs(server_md: str) -> set[str]:
    """Backticked verbs of the '**Inline verbs**' bullet in section 3."""
    section = re.search(r"## 3\. Concurrency model(.*?)(?:\n## |\Z)",
                        server_md, re.S)
    bullet = section and re.search(r"^- \*\*Inline verbs\*\*(.*?)(?=^- |\Z)",
                                   section.group(1), re.S | re.M)
    if not bullet:
        sys.exit("check_consistency: cannot find the '**Inline verbs**' "
                 "bullet in section 3 of docs/server.md")
    return set(re.findall(r"`([A-Z]+)`", bullet.group(1)))


def check_wire(root: pathlib.Path, errors: list[str]) -> None:
    verbs_h = read(root, "src/server/verbs.h")
    server_md = read(root, "docs/server.md")
    server_test = (read(root, "tests/server_test.cc") +
                   read(root, "tests/cluster_test.cc")).lower()

    table = parse_verb_table(verbs_h)
    documented = parse_doc_verbs(server_md)

    for verb, _ in table:
        if verb not in documented:
            errors.append(f"wire verb {verb} has no command row in "
                          "docs/server.md (section '## 2. Commands')")
        if verb.lower() not in server_test:
            errors.append(f"wire verb {verb} is never mentioned in "
                          "tests/server_test.cc or tests/cluster_test.cc")

    inline = {verb for verb, flags in table if "kInline" in flags}
    doc_inline = parse_doc_inline_verbs(server_md)
    for verb in sorted(inline - doc_inline):
        errors.append(f"wire verb {verb} is flagged kInline in "
                      "src/server/verbs.h but missing from the inline "
                      "verbs of docs/server.md section 3")
    for verb in sorted(doc_inline - inline):
        errors.append(f"docs/server.md section 3 lists {verb} as an "
                      "inline verb, but src/server/verbs.h does not flag "
                      "it kInline")

    implemented = {verb for verb, _ in table}
    for verb in sorted(documented - implemented):
        errors.append(f"docs/server.md documents command {verb} which is "
                      "not a wire verb in src/server/verbs.h")


def check_bench(root: pathlib.Path, errors: list[str]) -> None:
    cmake = read(root, "bench/CMakeLists.txt")
    experiments = read(root, "EXPERIMENTS.md")
    registered = set(re.findall(r"\b(bench_\w+)\b", cmake))
    headings = [line for line in experiments.splitlines()
                if line.startswith("## ")]
    heading_text = "\n".join(headings)

    for baseline in sorted(root.glob("BENCH_*.json")):
        bench = "bench_" + baseline.stem[len("BENCH_"):]
        if not (root / "bench" / f"{bench}.cc").exists():
            errors.append(f"{baseline.name} has no bench/{bench}.cc")
        if bench not in registered:
            errors.append(f"{baseline.name}: {bench} is not registered "
                          "in bench/CMakeLists.txt")
        if bench not in heading_text:
            errors.append(f"{baseline.name}: no experiment heading in "
                          f"EXPERIMENTS.md references {bench}")

    for source in sorted((root / "bench").glob("bench_*.cc")):
        if source.stem not in registered:
            errors.append(f"bench/{source.name} is not registered in "
                          "bench/CMakeLists.txt")


def check_server_bench(root: pathlib.Path, errors: list[str]) -> None:
    """BENCH_server.json fields vs bench/bench_server.cc vs docs/server.md."""
    bench_cc = read(root, "bench/bench_server.cc")
    server_md = read(root, "docs/server.md")
    try:
        baseline = json.loads(read(root, "BENCH_server.json"))
    except (OSError, json.JSONDecodeError) as e:
        errors.append(f"BENCH_server.json is missing or unparsable: {e}")
        return

    m = re.search(r"kDepths\s*=\s*\{([0-9,\s]+)\}", bench_cc)
    if not m:
        errors.append("cannot find the kDepths sweep in "
                      "bench/bench_server.cc")
        return
    src_depths = [int(x) for x in m.group(1).split(",") if x.strip()]
    json_depths = [int(x) for x in
                   str(baseline.get("pipeline_depths", "")).split(",")
                   if x.strip()]
    if src_depths != json_depths:
        errors.append(
            f"pipeline depth sweep drifted: bench/bench_server.cc sweeps "
            f"{src_depths} but BENCH_server.json records {json_depths}")

    if baseline.get("protocol_modes") != "text,binary":
        errors.append("BENCH_server.json protocol_modes is "
                      f"{baseline.get('protocol_modes')!r}, expected "
                      "'text,binary'")

    for gate in ("transport_errors", "verdict_mismatches"):
        if baseline.get(gate) != 0:
            errors.append(f"checked-in BENCH_server.json has {gate}="
                          f"{baseline.get(gate)!r} — the baseline must be "
                          "a green run")

    headline = ("text_rps", "binary_best_rps", "speedup_vs_text",
                "bcheck_checks_per_sec", "idle_connections")
    for field in headline:
        if field not in baseline:
            errors.append(f"BENCH_server.json lacks headline field {field}")
        if field not in server_md:
            errors.append(f"docs/server.md does not document the "
                          f"BENCH_server.json field {field}")


def check_cluster_bench(root: pathlib.Path, errors: list[str]) -> None:
    """BENCH_cluster.json fields vs bench/bench_cluster.cc emitted schema."""
    bench_cc = read(root, "bench/bench_cluster.cc")
    try:
        baseline = json.loads(read(root, "BENCH_cluster.json"))
    except (OSError, json.JSONDecodeError) as e:
        errors.append(f"BENCH_cluster.json is missing or unparsable: {e}")
        return

    emitted = set(re.findall(r'json\.Add\("(\w+)"', bench_cc))
    fields = set(baseline.keys())
    for field in sorted(emitted - fields):
        errors.append(f"BENCH_cluster.json lacks field {field}, which "
                      "bench/bench_cluster.cc emits")
    for field in sorted(fields - emitted):
        errors.append(f"BENCH_cluster.json field {field} is not emitted "
                      "by bench/bench_cluster.cc")

    for gate in ("transport_errors", "verdict_mismatches",
                 "failover_failures"):
        if baseline.get(gate) != 0:
            errors.append(f"checked-in BENCH_cluster.json has {gate}="
                          f"{baseline.get(gate)!r} — the baseline must be "
                          "a green run")
    scaling = baseline.get("scaling_1_to_4", 0)
    if not isinstance(scaling, (int, float)) or scaling < 2.5:
        errors.append(f"checked-in BENCH_cluster.json has scaling_1_to_4="
                      f"{scaling!r}, below the 2.5x acceptance gate — "
                      "re-run bench_cluster (full mode) for the baseline")


def check_cluster_metrics_docs(root: pathlib.Path,
                               errors: list[str]) -> None:
    """Every oodb_cluster_*/oodb_loop_* name in src/ is in the docs."""
    obs_md = read(root, "docs/observability.md")
    pattern = re.compile(r'"(oodb_(?:cluster|loop)_[a-z0-9_]+)"')
    for source in sorted(root.glob("src/**/*.cc")):
        for name in pattern.findall(source.read_text(encoding="utf-8")):
            if name not in obs_md:
                errors.append(
                    f"{source.relative_to(root)} emits metric {name}, "
                    "which docs/observability.md does not document")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    default_root = pathlib.Path(__file__).resolve().parent.parent.parent
    parser.add_argument("--root", type=pathlib.Path, default=default_root,
                        help="repository root (default: two levels up "
                             "from this script)")
    args = parser.parse_args()

    errors: list[str] = []
    check_wire(args.root, errors)
    check_bench(args.root, errors)
    check_server_bench(args.root, errors)
    check_cluster_bench(args.root, errors)
    check_cluster_metrics_docs(args.root, errors)

    if errors:
        for error in errors:
            print(f"check_consistency: {error}", file=sys.stderr)
        print(f"check_consistency: {len(errors)} error(s)", file=sys.stderr)
        return 1
    print("check_consistency: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
