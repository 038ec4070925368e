"""Documentation checks: runnable examples, resolvable links, honest --help.

Run by the CI ``docs`` job (and locally via ``PYTHONPATH=src python
tools/check_docs.py``).  Three families of checks, all blocking:

1. **Examples** — every fenced ``python`` code block in ``docs/*.md`` is
   executed, top to bottom, in one namespace per file (so a later block may
   build on an earlier one).  A raising example means the docs drifted from
   the code.  Blocks in README.md are *not* executed (several are
   intentionally elliptical); docs/ examples must be self-contained.
2. **Links** — every relative markdown link in ``README.md`` and
   ``docs/*.md`` must point at an existing file (and, when it carries a
   ``#fragment``, at an existing heading in that file).
3. **CLI help** — the ``--help`` output of ``python -m repro`` and the
   subcommands the docs lean on must still mention the flags the docs
   describe (backends, ``bench --kernels``, fuzz backend axis) — and none
   of them may offer the removed job-level SQL backend again (``sql`` as a
   ``--backend`` choice, ``--sql-db``, ``bench --sql``).

Exit code 0 when everything passes, 1 otherwise, with one line per failure.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

#: Files whose fenced python blocks are executed.
EXAMPLE_FILES = sorted((REPO / "docs").glob("*.md"))

#: Files whose relative links are checked.
LINK_FILES = [REPO / "README.md", *sorted((REPO / "docs").glob("*.md"))]

#: (argv, required substrings) pairs checked against parser help text.
HELP_CHECKS = [
    (
        [],
        ["query", "plan", "auto", "serve", "generate", "experiment",
         "bench", "fuzz", "delta", "trace"],
    ),
    (["query"], ["--backend", "{serial,parallel,sharded}",
                 "--kernel-mode", "--workers", "--shards", "--data-plane",
                 "{auto,shm,pickle}"]),
    (["bench"], ["--kernels", "--guard-tuples"]),
    (["fuzz"], ["--backend", "{serial,parallel,sharded,both,all}", "--profile",
                "--incremental", "--shards", "--data-plane"]),
    (["delta"], ["--backend", "--insert-fraction"]),
    (["trace"], ["--backend", "--trace-out"]),
    (["serve"], ["--sharded", "--shards", "--max-queue", "--request-timeout"]),
]

_FENCE = re.compile(r"^```(\w*)\s*$")
# Inline markdown links; images and reference-style links are not used in
# these docs.  Skips autolinks and raw URLs.
_LINK = re.compile(r"(?<!\!)\[[^\]]+\]\(([^)\s]+)\)")
_HEADING = re.compile(r"^#{1,6}\s+(.*)$")


def _python_blocks(path: Path):
    """Yield (start_line, source) for every fenced python block."""
    lines = path.read_text().splitlines()
    block, start, language = [], None, None
    for number, line in enumerate(lines, 1):
        fence = _FENCE.match(line)
        if fence and start is None:
            start, language, block = number, fence.group(1).lower(), []
        elif line.strip() == "```" and start is not None:
            if language == "python":
                yield start, "\n".join(block)
            start, language = None, None
        elif start is not None:
            block.append(line)


def _github_slug(heading: str) -> str:
    """GitHub's anchor slug for a heading (same rules the web UI applies)."""
    text = re.sub(r"[`*_]", "", heading.strip().lower())
    text = re.sub(r"[^\w\- ]", "", text)
    return text.replace(" ", "-")


def _anchors(path: Path) -> set:
    return {
        _github_slug(match.group(1))
        for line in path.read_text().splitlines()
        if (match := _HEADING.match(line))
    }


def check_examples() -> list:
    failures = []
    for path in EXAMPLE_FILES:
        namespace: dict = {"__name__": "__docs__"}
        for start, source in _python_blocks(path):
            try:
                exec(compile(source, f"{path.name}:{start}", "exec"), namespace)
            except Exception as exc:  # noqa: BLE001 - report, don't crash
                failures.append(
                    f"{path.relative_to(REPO)}:{start}: example raised "
                    f"{type(exc).__name__}: {exc}"
                )
    return failures


def check_links() -> list:
    failures = []
    for path in LINK_FILES:
        for number, line in enumerate(path.read_text().splitlines(), 1):
            for target in _LINK.findall(line):
                if target.startswith(("http://", "https://", "mailto:")):
                    continue
                file_part, _, fragment = target.partition("#")
                resolved = (
                    (path.parent / file_part).resolve() if file_part else path
                )
                if not resolved.exists():
                    failures.append(
                        f"{path.relative_to(REPO)}:{number}: broken link "
                        f"target {target!r}"
                    )
                    continue
                if fragment and resolved.suffix == ".md":
                    if fragment not in _anchors(resolved):
                        failures.append(
                            f"{path.relative_to(REPO)}:{number}: link "
                            f"{target!r} names a missing heading anchor"
                        )
    return failures


def check_cli_help() -> list:
    from repro.cli import build_parser

    failures = []
    parser = build_parser()
    subparsers = next(
        action
        for action in parser._actions  # noqa: SLF001 - argparse offers no API
        if hasattr(action, "choices") and action.choices
    )
    for argv, expected in HELP_CHECKS:
        target = subparsers.choices[argv[0]] if argv else parser
        help_text = target.format_help()
        label = "repro " + " ".join(argv) if argv else "repro"
        for needle in expected:
            if needle not in help_text:
                failures.append(f"{label} --help no longer mentions {needle!r}")
        # Lower case: the backend choice and both flags, not "SQL oracle" prose.
        if "sql" in help_text:
            failures.append(f"{label} --help offers the removed sql backend again")
    return failures


def main() -> int:
    failures = check_examples() + check_links() + check_cli_help()
    examples = sum(1 for path in EXAMPLE_FILES for _ in _python_blocks(path))
    if failures:
        print(f"check_docs: {len(failures)} failure(s)")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print(
        f"check_docs: ok ({examples} doc examples executed, "
        f"{len(LINK_FILES)} files link-checked, "
        f"{len(HELP_CHECKS)} --help surfaces verified)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
