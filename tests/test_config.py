"""Flat key=value config round-trips."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liouville.config import RunConfig

_KEYS = st.from_regex(r"[a-z][a-z0-9_]{0,15}", fullmatch=True)


def _plain_string(text):
    """True when the text survives the typed parser as a string."""
    t = text.strip()
    if t != text or not t or t in ("true", "false") or "\n" in t:
        return False
    for cast in (int, float):
        try:
            cast(t)
            return False
        except ValueError:
            pass
    return True


_VALUES = st.one_of(
    st.booleans(),
    st.integers(-10**12, 10**12),
    st.floats(allow_nan=False),
    st.from_regex(r"[A-Za-z][A-Za-z0-9 ./:=_-]{0,30}",
                  fullmatch=True).filter(_plain_string),
)


@given(st.dictionaries(_KEYS, _VALUES, max_size=8))
@settings(max_examples=80, deadline=None)
def test_round_trip_is_lossless(tmp_path_factory, entries):
    path = tmp_path_factory.mktemp("cfg") / "run.cfg"
    cfg = RunConfig()
    for key, value in entries.items():
        cfg[key] = value
    cfg.save(path)
    back = RunConfig.load(path)
    assert back.values == entries
    for key, value in entries.items():
        assert type(back[key]) is type(value)


def test_file_is_sorted_and_typed(tmp_path):
    cfg = RunConfig()
    cfg["zeta"] = 1e-10
    cfg["alpha"] = True
    cfg["midpoint"] = 42
    path = tmp_path / "run.cfg"
    cfg.save(path)
    lines = path.read_text().splitlines()
    assert lines == ["alpha=true", "midpoint=42", "zeta=1e-10"]


def test_load_skips_comments_and_splits_on_first_equals(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("# tolerances\n\nrule=a=b\n  spaced = text  \n")
    cfg = RunConfig.load(path)
    assert cfg["rule"] == "a=b"
    assert cfg["spaced"] == "text"


def test_malformed_line_reports_location(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("good=1\nnot a pair\n")
    with pytest.raises(ValueError, match="run.cfg:2"):
        RunConfig.load(path)


def test_bad_keys_rejected():
    cfg = RunConfig()
    for key in ("a=b", " padded", ""):
        with pytest.raises(ValueError, match="bad config key"):
            cfg[key] = 1


def test_get_with_default():
    cfg = RunConfig()
    cfg["present"] = 2.5
    assert cfg.get("present") == 2.5
    assert cfg.get("absent", 7) == 7
    assert cfg["present"] == 2.5

