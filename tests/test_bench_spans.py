"""The library names that bench/spans.py wraps, resolved without running the benchmark.

A traced benchmark round wraps each function of ``LAYER_CALLS`` by its
qualified name, so a rename in the library breaks the traced round. This
reads the list from bench/spans.py, without writing bytecode there, and
resolves every name in ``skewbrace``.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def _layer_calls():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    write_bytecode = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = write_bytecode
    return module.LAYER_CALLS


LAYER_CALLS = _layer_calls()


@pytest.mark.parametrize("module_name,qualname", [call[:2] for call in LAYER_CALLS],
                         ids=[".".join(call[:2]) for call in LAYER_CALLS])
def test_every_wrapped_name_resolves(module_name, qualname):
    owner = importlib.import_module(f"skewbrace.{module_name}")
    for part in qualname.split("."):
        owner = getattr(owner, part)
    assert callable(owner)
