import sys

import pytest

import wittflow


def test_lazy_exports_resolve():
    # the re-exports are imported on first use: every advertised name must
    # be listed by dir() and resolve to the object its submodule defines
    listed = dir(wittflow)
    for name in wittflow.__all__:
        assert name in listed
        value = getattr(wittflow, name)
        assert value is getattr(sys.modules[value.__module__], name)
    assert wittflow.kernels is sys.modules["wittflow.kernels"]
    with pytest.raises(AttributeError, match="no_such_name"):
        wittflow.no_such_name
