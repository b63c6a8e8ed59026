"""The contract table's light rows, the runner's own failure reports, and README's citations.

The light rows run through `python -m hiddenpoly.cli`, so they need no
console script on PATH; `python tests/contracts.py` runs every row
against the installed one.
"""

import re
import sys
from functools import cache
from pathlib import Path

import contracts
import pytest
import test_golden

from hiddenpoly.cli import build_parser

CLI = (sys.executable, "-m", "hiddenpoly.cli")
LIGHT = [row for row in contracts.ROWS if row.light]


@cache
def _failures(row: contracts.Row) -> tuple[str, ...]:
    return tuple(contracts.run_row(row, CLI))


@pytest.mark.parametrize("row", LIGHT, ids=[row.id for row in LIGHT])
def test_light_row(row):
    assert _failures(row) == ()


def test_report_determinism(verdicts):
    threaded = [row for row in LIGHT if len(row.threads) > 1]
    failed = [row.id for row in threaded if _failures(row)]
    counts = ", ".join(map(str, sorted({t for row in threaded for t in row.threads})))
    verdicts.append(
        f"[{'FAIL' if failed else 'PASS'}] report determinism: {len(threaded) - len(failed)}/"
        f"{len(threaded)} commands byte-identical across thread counts {counts}")
    assert not failed, failed


# (stub command, its row, the start of the one failure it must give): the stub
# breaks one contract of the row
STUBS = [
    ("import sys; sys.stderr.write('error: a\\nerror: b\\n'); sys.exit(2)",
     contracts.refusal("two-error-lines", "x"), "not a one-line refusal"),
    ("import sys; print(sys.argv[-1])",
     contracts.Row("reads-threads", "x", threads=(1, 2)), "output at --threads 2 differs"),
    ("print('{\"total_queries\": 190868}')",
     contracts.Row("wrong-field", "x", report="total_queries == 190869"), "report fails"),
]


@pytest.mark.parametrize("code, row, problem", STUBS, ids=[row.id for _, row, _ in STUBS])
def test_runner_fails_a_broken_contract(code, row, problem):
    failures = contracts.run_row(row, [sys.executable, "-c", code])
    assert len(failures) == 1 and failures[0].startswith(f"{row.id}: {problem}"), failures


def test_peak_rss_is_the_child_own():
    # a child spawned from a large process starts its ru_maxrss at that process's
    # resident set; the launcher between them keeps the reading the child's own
    ballast = b"x" * (64 << 20)
    run = contracts.launch([sys.executable, "-c", "pass"], [])
    assert run.code == 0 and run.rss_mb < 32, run.rss_mb
    del ballast


def test_pinned_sha256_is_the_golden_one():
    assert contracts.DEFAULT_BOUNDS_SHA256 == test_golden.DEFAULT_BOUNDS_SHA256


def test_row_ids_are_unique():
    ids = [row.id for row in contracts.ROWS]
    assert len(set(ids)) == len(ids)


def test_every_row_parses():
    parser = build_parser()
    for row in contracts.ROWS:
        for threads in row.threads:
            parser.parse_args([*row.argv.split(), "--threads", str(threads)])


def test_readme_cites_rows_for_every_contract():
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    section = readme.split("## Determinism and budgets\n", 1)[1].split("\n## ", 1)[0]
    bullets = section.split("\n* ")[1:]
    ids = {row.id for row in contracts.ROWS}
    assert bullets
    for bullet in bullets:
        (cited,) = re.findall(r"\[rows: ([^\]]+)\]", bullet)
        assert set(re.split(r",\s+", cited)) <= ids, cited
