"""Package errors survive pickling, which is how a worker's error reaches its parent."""

import inspect
import pickle

import pytest

from spboost import errors

# one instance of each class, with the attributes it carries
INSTANCES = {
    errors.SpboostError: (errors.SpboostError("base"), {}),
    errors.ValidationError: (errors.ValidationError("bad input"), {}),
    errors.ParseError: (errors.ParseError("no y column", row=7), {"row": 7}),
    errors.UnbalancedPanelError: (errors.UnbalancedPanelError("missing cells"), {}),
    errors.DegenerateGeometryError: (errors.DegenerateGeometryError("coincident"), {}),
    errors.IsolatedUnitError: (errors.IsolatedUnitError("a"), {"location": "a"}),
    errors.FixedEffectsInfeasibleError: (
        errors.FixedEffectsInfeasibleError("x1"),
        {"column": "x1"},
    ),
    errors.AlignmentError: (errors.AlignmentError("names differ"), {}),
    errors.EstimationError: (errors.EstimationError("failed"), {}),
    errors.ConditioningError: (
        errors.ConditioningError("between block", 1e-18),
        {"min_eigenvalue": 1e-18},
    ),
    errors.SingularFilterError: (errors.SingularFilterError("singular"), {}),
    errors.RankError: (errors.RankError("rank deficient"), {}),
    errors.NoLearnerError: (errors.NoLearnerError("all zero"), {}),
    errors.EstimationFailureError: (
        errors.EstimationFailureError("no finite objective", (0.5, -0.25), 2.5),
        {"candidate": (0.5, -0.25), "residual_norm": 2.5},
    ),
}


def test_every_error_class_is_covered():
    defined = {
        cls
        for _, cls in inspect.getmembers(errors, inspect.isclass)
        if issubclass(cls, errors.SpboostError)
    }
    assert defined == set(INSTANCES)


@pytest.mark.parametrize("cls", list(INSTANCES), ids=lambda cls: cls.__name__)
def test_errors_survive_pickling(cls):
    exc, attributes = INSTANCES[cls]
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        copy = pickle.loads(pickle.dumps(exc, protocol=protocol))
        assert type(copy) is cls
        assert str(copy) == str(exc)
        assert {name: getattr(copy, name) for name in attributes} == attributes
