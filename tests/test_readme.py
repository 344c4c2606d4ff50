"""The README's self-check section names rows the battery has, and counts
them as the battery does: rows are renamed when criteria change, and
nothing else ties the prose to ``selfcheck.CRITERIA``."""

import fnmatch
import re
from pathlib import Path

from avgvar import selfcheck

README = Path(__file__).resolve().parents[1] / "README.md"
ROWS = [name for check in selfcheck.CRITERIA for name in check.rows]


def self_check_section():
    text = README.read_text()
    start = text.index("One battery of correctness criteria")
    return text[start:text.index("\n## CLI", start)]


def test_every_row_the_readme_names_is_a_row_of_the_battery():
    """A backticked snake_case name, or a glob of such names, in the
    section's bullets and tables, and the first cell of each table row,
    matches at least one row."""
    section = self_check_section()
    named = re.findall(r"`([a-z][a-z0-9]*(?:_[a-z0-9*]+)+)`", section)
    named += re.findall(r"^\| `([^`]+)` \|", section, re.M)
    assert named
    assert [name for name in named if not fnmatch.filter(ROWS, name)] == []


def test_the_readme_counts_the_rows_of_the_battery():
    """The stated row count, and the false-alarm table's named rows plus
    "the other N rows", both equal the battery's number of rows."""
    section = self_check_section()
    assert int(re.search(r"the battery's (\d+) rows", section).group(1)) == len(ROWS)
    listed = re.findall(r"^\| `([^`]+)` \|", section, re.M)
    others = int(re.search(r"^\| the other (\d+) rows \|", section, re.M).group(1))
    assert len(set(listed)) + others == len(ROWS)
