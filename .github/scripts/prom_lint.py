#!/usr/bin/env python3
"""Lint a Prometheus text exposition (format 0.0.4) scraped from /metrics.

Usage:
  prom_lint.py FILE [--typed FAMILY]... [--contains TEXT]...
               [--serving-doc docs/SERVING.md]

Every exposition gets the structural checks:
  * the text is non-empty and ends with a newline;
  * every line is `# TYPE <family> counter|gauge|histogram` or a sample
    `name{labels} value` (no other comments);
  * each family has at most one `# TYPE` line, and it comes before the
    family's first sample (`_bucket`/`_count`/`_sum` belong to their
    histogram).

--typed FAMILY requires a `# TYPE` line for FAMILY; --contains TEXT requires
TEXT somewhere in the exposition. --serving-doc requires every `citl_serve_*`
family listed in the "Metrics" table of that file: a plain family must have
a sample, and a per-session family (listed with a `{session="N"}` label) must
have exactly one sample per live session (`citl_serve_sessions_active`).
"""
import argparse
import re
import sys

SAMPLE = re.compile(
    r'^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^{}]*\})? '
    r'(NaN|[+-]Inf|[-+]?[0-9][0-9eE.+-]*)$')
TYPES = {"counter", "gauge", "histogram"}


def lint(text):
    """Checks the structure; returns ({family: type}, {series: value})."""
    assert text and text.endswith("\n"), "exposition must end with newline"
    typed = {}
    samples = {}
    for line in text.splitlines():
        if line.startswith("# TYPE "):
            parts = line.split()
            assert len(parts) == 4, line
            assert parts[3] in TYPES, line
            assert parts[2] not in typed, "second # TYPE line: " + line
            typed[parts[2]] = parts[3]
            continue
        assert not line.startswith("#"), line
        m = SAMPLE.match(line)
        assert m, "bad sample line: " + line
        family = m.group(1)
        for suffix in ("_bucket", "_count", "_sum"):
            base = family[:-len(suffix)]
            if family.endswith(suffix) and typed.get(base) == "histogram":
                family = base
        assert family in typed, "sample before its # TYPE line: " + line
        samples[m.group(1) + (m.group(2) or "")] = float(m.group(3))
    return typed, samples


def documented_serve_families(path):
    """{family: per_session} for the citl_serve_* rows of the Metrics table."""
    families = {}
    in_metrics = False
    for line in open(path, encoding="utf-8"):
        if line.startswith("## "):
            in_metrics = line.strip() == "## Metrics"
        if not in_metrics or not line.startswith("| `citl_serve_"):
            continue
        first_cell = line.split("|")[1]
        for name in re.findall(r"`(citl_serve_[a-z_]+)(\{[^`]*\})?`",
                               first_cell):
            families[name[0]] = 'session="N"' in name[1]
    assert families, "no citl_serve_* rows in the Metrics table of " + path
    return families


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("file")
    ap.add_argument("--typed", action="append", default=[])
    ap.add_argument("--contains", action="append", default=[])
    ap.add_argument("--serving-doc")
    args = ap.parse_args()

    text = open(args.file, encoding="utf-8").read()
    typed, samples = lint(text)
    for family in args.typed:
        assert family in typed, "no # TYPE line for " + family
    for needle in args.contains:
        assert needle in text, "missing: " + needle
    if args.serving_doc:
        assert "citl_serve_sessions_active" in samples, "no live-session gauge"
        live = samples["citl_serve_sessions_active"]
        for family, per_session in documented_serve_families(
                args.serving_doc).items():
            found = [s for s in samples
                     if s == family or s.startswith(family + "{")]
            if per_session:
                assert len(found) == live, (
                    "%s: %d series for %d live sessions"
                    % (family, len(found), live))
            else:
                assert found, "documented series missing: " + family
    print("scrape lint ok:", len(text.splitlines()), "lines")


if __name__ == "__main__":
    try:
        main()
    except AssertionError as e:
        print("scrape lint FAILED:", e, file=sys.stderr)
        sys.exit(1)
