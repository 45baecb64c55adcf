"""The traced benchmark patches randcp's layer functions by name; a rename
or a move into another object would make it raise KeyError.  These names
must stay where ``bench/tracing.py`` looks them up."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"
_spec = importlib.util.spec_from_file_location("bench_tracing", _PATH)
tracing = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracing)

NAMES = sorted({(owner, attr) for owner, attr, _ in tracing.SETUP_SPANS + tracing.DECOMPOSE_SPANS}
               | set(tracing.COUNTERS), key=lambda oa: (oa[0].__name__, oa[1]))


@pytest.mark.parametrize("owner,attr", NAMES,
                         ids=["%s.%s" % (o.__name__.rsplit(".", 1)[-1], a) for o, a in NAMES])
def test_traced_name_is_patchable(owner, attr):
    assert attr in owner.__dict__
    assert callable(owner.__dict__[attr])
