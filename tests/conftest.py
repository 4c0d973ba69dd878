import pytest

from spinfanout import core


@pytest.fixture
def lower_caps(monkeypatch):
    """``lower_caps(dense, l2, state)`` sets the size caps for one test."""

    def lower(dense: int, l2: int, state: int) -> None:
        monkeypatch.setattr(core, "DENSE_CAP", dense)
        monkeypatch.setattr(core, "L2_CAP", l2)
        monkeypatch.setattr(core, "STATE_CAP", state)

    return lower
