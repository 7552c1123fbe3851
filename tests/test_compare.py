"""The drift comparator of scripts/compare.py, on small files."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "scripts" / "compare.py"
_SPEC = importlib.util.spec_from_file_location("compare", _PATH)
compare = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(compare)


@pytest.fixture
def pair(tmp_path):
    def write(text_a, text_b):
        a, b = tmp_path / "a", tmp_path / "b"
        a.write_text(text_a)
        b.write_text(text_b)
        return a, b
    return write


class TestDrift:
    def test_identical_bytes(self, pair):
        a, b = pair('{"ci": 0.61, "grid": [1.5, 2e-05]}\n', '{"ci": 0.61, "grid": [1.5, 2e-05]}\n')
        assert compare.drift(a, b) is None
        assert compare.describe(a, b) == "identical"

    def test_json_numbers(self, pair):
        a, b = pair('{"ci": 0.5, "w": [[1.0, -2.0]], "step": 3}',
                    '{"ci": 0.5, "w": [[1.0, -2.5]], "step": 3}')
        assert compare.drift(a, b) == (0.5, 0.2)
        assert compare.describe(a, b) == "max abs drift 0.5, max rel drift 0.2"

    def test_csv_exponents_and_ids(self, pair):
        a, b = pair("id,time,event,e0\np1,3.0,1,1e-300\np2,4.0,0,-7\n",
                    "id,time,event,e0\np1,3.0,1,3e-300\np2,4.0,0,-7.0\n")
        # the same value spelt two ways is no drift
        gap = 3e-300 - 1e-300
        assert compare.drift(a, b) == (gap, gap / 3e-300)

    def test_non_finite_is_text(self, pair):
        assert compare.drift(*pair("[NaN, Infinity, 1]", "[NaN, Infinity, 1.0]")) == (0.0, 0.0)
        assert compare.describe(*pair("[1.0, inf]", "[1.0, 5.0]")) == "differs beyond its numbers"

    def test_text_between_numbers_must_match(self, pair):
        a, b = pair('{"ci": 0.5}', '{"auc": 0.5}')
        with pytest.raises(ValueError, match="differs beyond its numbers"):
            compare.drift(a, b)
        assert compare.describe(a, b) == "differs beyond its numbers"
        a, b = pair("1,2", "1,2,3")
        assert compare.describe(a, b) == "differs beyond its numbers"

    def test_missing_file(self, tmp_path, pair):
        a, _ = pair("1", "1")
        assert compare.describe(tmp_path / "gone", a) == "missing in base"
        assert compare.describe(a, tmp_path / "gone") == "missing in this tree"
