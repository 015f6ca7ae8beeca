"""Fixtures shared by the test modules."""

import pytest

from haarmult import haar


@pytest.fixture
def grid_builds(monkeypatch):
    """The grids built while the test runs, one entry per `haar._Grid`:
    (max_level, levels bytes, positions bytes), so equal supports compare
    equal. The test may clear the list between the calls it counts."""
    built = []
    init = haar._Grid.__init__

    def counting(grid, max_level, levels, positions):
        built.append((max_level, levels.tobytes(), positions.tobytes()))
        init(grid, max_level, levels, positions)

    monkeypatch.setattr(haar._Grid, "__init__", counting)
    return built
