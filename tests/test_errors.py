import inspect
import pickle

import pytest

from diabrisk import errors

# a sample value for each constructor parameter of an error class
SAMPLES = {"name": "Income", "row": 4, "col": "BMI", "value": "abc",
           "expected": "integers in [1, inf]", "key": "seed",
           "message": "bad value"}

CLASSES = [cls for _, cls in inspect.getmembers(errors, inspect.isclass)
           if issubclass(cls, Exception) and cls.__module__ == errors.__name__]


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_round_trips_through_pickle(cls):
    # a pool job's error reaches the caller pickled
    params = list(inspect.signature(cls.__init__).parameters)[1:]  # no self
    if "args" in params:  # Exception's own constructor
        error = cls("some message")
    else:
        error = cls(*(SAMPLES[name] for name in params))
    back = pickle.loads(pickle.dumps(error))
    assert type(back) is cls
    assert str(back) == str(error)
    assert back.args == error.args
    assert vars(back) == vars(error)
