"""The committed list of lines allowed to stay unexecuted stays true to the
sources: every entry names executable lines of its function by their
stripped text, counts exactly the lines of the function that carry it, and
says why they may stay unexecuted.  The traced run that checks the list
against what tier-1 executes is `tests/line_coverage.py`, which is
opt-in."""

from line_coverage import entry_key, load_allowed, miscounted_entries

ENTRIES = load_allowed()


def test_every_entry_matches_a_line_of_its_function():
    assert all(type(e["count"]) is int and e["count"] >= 1 for e in ENTRIES)
    assert miscounted_entries(ENTRIES) == []


def test_every_entry_is_listed_once_with_a_reason():
    keys = [entry_key(e) for e in ENTRIES]
    assert len(set(keys)) == len(keys)
    assert all(
        set(e) == {"module", "function", "text", "count", "reason"} for e in ENTRIES
    )
    assert all(e["reason"].strip() for e in ENTRIES)
