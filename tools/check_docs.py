"""Documentation checks: runnable examples, resolvable links, honest --help.

Run by the CI ``docs`` job (and locally via ``PYTHONPATH=src python
tools/check_docs.py``).  Five families of checks, all blocking:

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
   describe (backends, kernel mode, fuzz backend axis, the serve, delta and
   trace flags) — and none of them
   may offer the removed job-level SQL backend again (``sql`` as a
   ``--backend`` choice, ``--sql-db``).
4. **Documented flags** — the other direction of 3: every ``--flag`` on a
   fenced ``python -m repro <command> …`` line in ``README.md`` and
   ``docs/*.md`` (backslash continuations joined, ``#`` comments dropped)
   must appear in that command's ``--help``, and the command must exist, so
   a removed flag or subcommand cannot survive in the docs.
5. **Cited docs** — every ``*.md`` path a ``.py`` file under ``src/``,
   ``tools/``, ``tests/`` or top-level ``benchmarks/`` cites must exist,
   relative to the repository root or to the citing file.

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

#: Python files whose cited ``*.md`` paths are checked.
CITING_FILES = sorted(
    [
        *(REPO / "src").rglob("*.py"),
        *(REPO / "tools").rglob("*.py"),
        *(REPO / "tests").rglob("*.py"),
        *(REPO / "benchmarks").glob("*.py"),
    ]
)

#: (argv, required substrings) pairs checked against parser help text.
HELP_CHECKS = [
    (
        [],
        ["query", "plan", "auto", "serve", "generate", "experiment",
         "fuzz", "delta", "trace"],
    ),
    (["query"], ["--backend", "{serial,parallel,sharded}",
                 "--kernel-mode", "--workers", "--shards"]),
    (["fuzz"], ["--backend", "{serial,parallel,sharded,both,all}", "--profile",
                "--incremental", "--shards"]),
    (["delta"], ["--backend", "--insert-fraction"]),
    (["trace"], ["--backend", "--trace-out", "--trace-format", "--metrics-out"]),
    (["serve"], ["--sharded", "--shards", "--max-queue", "--request-timeout",
                 "--stats-json", "--incremental", "--insert-tuples", "--verify"]),
]

_FENCE = re.compile(r"^```(\w*)\s*$")
# Inline markdown links; images and reference-style links are not used in
# these docs.  Skips autolinks and raw URLs.
_LINK = re.compile(r"(?<!\!)\[[^\]]+\]\(([^)\s]+)\)")
_HEADING = re.compile(r"^#{1,6}\s+(.*)$")
_MD_PATH = re.compile(r"[\w./-]*\w\.md\b")
_REPRO_COMMAND = re.compile(r"python3? -m repro\s+(\S+)(.*)")
_FLAG = re.compile(r"(?<![\w-])--[\w-]+")
_COMMENT = re.compile(r"(^|\s)#.*")


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


def _fenced_commands(path: Path):
    """Yield (line number, command) for every line inside a fence, with
    backslash continuations joined and ``#`` comments dropped."""
    in_fence, pending, start = False, "", None
    for number, line in enumerate(path.read_text().splitlines(), 1):
        if _FENCE.match(line):
            in_fence = not in_fence
            continue
        if not in_fence:
            continue
        text = _COMMENT.sub("", line).strip()
        start = start or number
        if text.endswith("\\"):
            pending += text[:-1] + " "
            continue
        yield start, pending + text
        pending, start = "", None


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


def check_cited_docs() -> list:
    failures = []
    for path in CITING_FILES:
        for number, line in enumerate(path.read_text().splitlines(), 1):
            for cited in _MD_PATH.findall(line):
                if not ((REPO / cited).exists() or (path.parent / cited).exists()):
                    failures.append(
                        f"{path.relative_to(REPO)}:{number}: cites missing {cited!r}"
                    )
    return failures


def _parsers():
    """The ``repro`` parser and its subcommand parsers by name."""
    from repro.cli import build_parser

    parser = build_parser()
    subparsers = next(
        action
        for action in parser._actions  # noqa: SLF001 - argparse offers no API
        if hasattr(action, "choices") and action.choices
    )
    return parser, subparsers.choices


def check_cli_help() -> list:
    failures = []
    parser, subparsers = _parsers()
    for argv, expected in HELP_CHECKS:
        target = subparsers[argv[0]] if argv else parser
        help_text = target.format_help()
        label = "repro " + " ".join(argv) if argv else "repro"
        for needle in expected:
            if needle not in help_text:
                failures.append(f"{label} --help no longer mentions {needle!r}")
    # Every subcommand, not only the ones above.  Lower case: the backend
    # choice and both flags, not "SQL oracle" prose.
    for name, target in [("", parser), *subparsers.items()]:
        if "sql" in target.format_help():
            label = f"repro {name}".rstrip()
            failures.append(f"{label} --help offers the removed sql backend again")
    return failures


def check_documented_flags() -> list:
    failures = []
    parser, subparsers = _parsers()
    for path in LINK_FILES:
        for number, command in _fenced_commands(path):
            match = _REPRO_COMMAND.search(command)
            if not match:
                continue
            name, rest = match.groups()
            where = f"{path.relative_to(REPO)}:{number}"
            if name.startswith("-"):
                name, target, rest = "", parser, f"{name}{rest}"
            elif name in subparsers:
                target = subparsers[name]
            else:
                failures.append(f"{where}: no command 'repro {name}'")
                continue
            help_text = target.format_help()
            for flag in _FLAG.findall(rest):
                if not re.search(rf"(?<![\w-]){re.escape(flag)}(?![\w-])", help_text):
                    label = f"repro {name}".rstrip()
                    failures.append(f"{where}: {label} --help has no {flag}")
    return failures


def main() -> int:
    failures = (
        check_examples()
        + check_links()
        + check_cli_help()
        + check_documented_flags()
        + check_cited_docs()
    )
    examples = sum(1 for path in EXAMPLE_FILES for _ in _python_blocks(path))
    commands = sum(
        1
        for path in LINK_FILES
        for _, command in _fenced_commands(path)
        if _REPRO_COMMAND.search(command)
    )
    if failures:
        print(f"check_docs: {len(failures)} failure(s)")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print(
        f"check_docs: ok ({examples} doc examples executed, "
        f"{len(LINK_FILES)} files link-checked, "
        f"{len(HELP_CHECKS)} --help surfaces verified, "
        f"{commands} documented commands' flags found in --help, "
        f"{len(CITING_FILES)} Python files' doc citations resolved)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
