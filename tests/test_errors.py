"""The failure taxonomy: every deliberate error has exactly one of two roots."""

import importlib
import inspect
import pkgutil

import pytest

import ionspins
from ionspins import phases
from ionspins.errors import NumericalFailure, TransitionLost


def library_exceptions():
    found = set()
    for info in pkgutil.iter_modules(ionspins.__path__):
        module = importlib.import_module(f"ionspins.{info.name}")
        for obj in vars(module).values():
            if (
                inspect.isclass(obj)
                and issubclass(obj, BaseException)
                and obj.__module__.startswith("ionspins")
            ):
                found.add(obj)
    return found


def test_every_library_exception_has_exactly_one_root():
    classes = library_exceptions()
    names = {cls.__name__ for cls in classes}
    assert {"ResonanceError", "NoConvergence", "TransitionLost", "CheckFailure"} <= names
    for cls in classes:
        assert issubclass(cls, ValueError) != issubclass(cls, NumericalFailure), cls


def test_fm_kink_interval_without_the_order_change_raises_transition_lost(
    without_fm_kink_transition,
):
    with pytest.raises(TransitionLost, match="no FM->kink transition"):
        phases.fm_kink_interval(5, 10.0)
