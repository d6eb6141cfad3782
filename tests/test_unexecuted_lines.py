"""The committed list of lines allowed to stay unexecuted stays true to the
sources: every entry names an executable line of its function, by its
stripped text, and says why it may stay unexecuted.  The traced run that
checks the list against what tier-1 executes is `tests/line_coverage.py`,
which is opt-in."""

from line_coverage import entry_key, load_allowed, stale_entries

ENTRIES = load_allowed()


def test_every_entry_matches_a_line_of_its_function():
    assert stale_entries(ENTRIES) == []


def test_every_entry_is_listed_once_with_a_reason():
    keys = [entry_key(e) for e in ENTRIES]
    assert len(set(keys)) == len(keys)
    assert all(set(e) == {"module", "function", "text", "reason"} for e in ENTRIES)
    assert all(e["reason"].strip() for e in ENTRIES)
