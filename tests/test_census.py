"""The reachability census matches each def to its code object by first line."""

import importlib.util
import sys

from .census import defined, profiled

FIXTURE = '''\
import functools


def called():
    return 1


def uncalled():
    return 2


@functools.lru_cache(maxsize=None)
def decorated():
    return 3


class Box:
    @property
    def size(self):
        return 4

    @staticmethod
    def never():
        return 5
'''


def test_census_lists_exactly_the_uncalled_defs(tmp_path):
    path = tmp_path / "census_fixture.py"
    path.write_text(FIXTURE)
    spec = importlib.util.spec_from_file_location("census_fixture", path)
    mod = importlib.util.module_from_spec(spec)
    seen: set = set()
    with profiled(seen):
        spec.loader.exec_module(mod)
        mod.called()
        mod.decorated()
        assert mod.Box().size == 4
    assert sys.getprofile() is None
    defs = defined(tmp_path)
    # decorated defs are keyed by their first decorator's line
    assert defs[(str(path), 12)] == "decorated"
    assert defs[(str(path), 18)] == "Box.size"
    missed = sorted(name for key, name in defs.items() if key not in seen)
    assert missed == ["Box.never", "uncalled"]
