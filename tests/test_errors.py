"""The error taxonomy: every exception class cognet defines is bad input, an overflowing option, or on a list.

``cli.run`` maps an ``artifact.DataError`` (or an ``OSError``) to exit 2 and
a ``FloatingPointError`` or ``cli.UsageError`` to exit 1; anything else is a
bug and escapes as a traceback.  A new exception class must pick a side.
"""

import importlib
import inspect
import pkgutil

import cognet
from cognet import artifact

# programming errors (a caller broke a contract) and option errors, which the
# CLI checks or wraps as usage errors itself
NEITHER = {
    "cognet.neural.ops.ShapeMismatch", "cognet.svm.DimensionMismatch", "cognet.metrics.LengthMismatch",
    "cognet.neural.model.InvalidSpec", "cognet.phoneme.UnknownSymbol", "cognet.cli.UsageError",
}


def _exception_classes() -> dict[str, type]:
    """Every exception class defined in a cognet module, by qualified name."""
    found = {}
    for info in pkgutil.walk_packages(cognet.__path__, "cognet."):
        module = importlib.import_module(info.name)
        for _, obj in inspect.getmembers(module, inspect.isclass):
            if issubclass(obj, BaseException) and obj.__module__ == info.name:
                found[f"{obj.__module__}.{obj.__qualname__}"] = obj
    return found


def test_every_exception_class_picks_a_side():
    classes = _exception_classes()
    assert "cognet.artifact.ArtifactError" in classes and "cognet.pmi.NonFinitePMI" in classes
    assert NEITHER <= set(classes)
    sides = (artifact.DataError, FloatingPointError)
    assert [name for name, cls in classes.items() if issubclass(cls, sides) == (name in NEITHER)] == []
