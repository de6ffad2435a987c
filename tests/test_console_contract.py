"""tests/console_contract.sh and the tier-1 tests read every pinned sha256
from one table, tests/data/pins.txt: each name either side looks up is a
row of it, each row is looked up, and no digest is written anywhere else."""

import re
import subprocess
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SCRIPT = TESTS / "console_contract.sh"
ROWS = [line.split() for line in (TESTS / "data" / "pins.txt").read_text().splitlines()]


def test_contract_script_parses():
    subprocess.run(["bash", "-n", str(SCRIPT)], check=True)


def test_pin_rows_are_distinct_names_of_sha256_digests():
    names = [row[0] for row in ROWS]
    assert len(set(names)) == len(names)
    for row in ROWS:
        assert len(row) == 2 and re.fullmatch("[0-9a-f]{64}", row[1]), row


def test_every_pin_names_a_row_and_every_row_is_pinned():
    names = {row[0] for row in ROWS}
    script = set(re.findall(r"^pin (\S+) ", SCRIPT.read_text(), re.M))
    tier1 = set()
    for path in TESTS.glob("test_*.py"):
        tier1.update(re.findall(r'PINS\["([^"]+)"\]', path.read_text()))
    assert script - names == set()
    assert tier1 - names == set()
    assert names - script - tier1 == set()


def test_each_digest_is_written_only_in_the_table():
    texts = [p.read_text() for p in TESTS.glob("*") if p.is_file()]
    texts += [p.read_text() for p in (TESTS.parent / ".github").rglob("*") if p.is_file()]
    for name, digest in ROWS:
        assert not [text for text in texts if digest in text], name
