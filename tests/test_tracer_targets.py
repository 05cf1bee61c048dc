"""Every name that `perfbench/tracer.py` wraps still exists in `planarpi`.

The tracer installs its timers on these (module, attribute) pairs from
outside the program, so a renamed or deleted target would break the traced
benchmark run.  The tracer file is loaded as it is, not copied.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.TARGETS


TARGETS = _targets()


@pytest.mark.parametrize(
    "module_name,attr",
    [target[1:] for target in TARGETS],
    ids=[f"{module_name}.{attr}" for _, module_name, attr in TARGETS],
)
def test_tracer_target_resolves(module_name, attr):
    module = importlib.import_module(module_name)
    if "." in attr:
        # methods are wrapped where the class defines them, as in Tracer.install
        cls_name, meth = attr.split(".")
        assert callable(vars(getattr(module, cls_name)).get(meth))
    else:
        assert callable(getattr(module, attr, None))
