import pytest

from contactfatigue.cli import selection_groups
from contactfatigue.domain import DataError
from contactfatigue.simulator import ScenarioConfig, simulate_panel


@pytest.fixture(scope="module")
def panel():
    return simulate_panel(ScenarioConfig(waves=3, panel_size=60, seed=7))[0]


class TestSelectionGroups:
    def test_default_skips_a_wave_of_first_timers_only(self, panel):
        wave1 = [r for r in panel if r.wave == 1]
        assert wave1 and all(r.repeat == 0 for r in wave1)
        first, repeat = selection_groups(panel)
        assert first and repeat
        assert {r.wave for r in first} == {r.wave for r in repeat} == {2}
        assert all(r.repeat == 0 for r in first)
        assert all(r.repeat >= 1 for r in repeat)

    def test_explicit_wave(self, panel):
        first, repeat = selection_groups(panel, 3)
        assert {r.wave for r in first + repeat} == {3}

    def test_wave_without_both_groups(self, panel):
        with pytest.raises(DataError, match="wave 1 lacks"):
            selection_groups(panel, 1)
        with pytest.raises(DataError, match="no wave has both"):
            selection_groups([r for r in panel if r.wave == 1])
