"""Exception hierarchy shared across the pipeline.

Exit-code mapping used by the CLI: DataError -> 2, TrainingError -> 3,
ConfigError -> 4, any other PipelineError -> 3.

DimensionMismatch is every disagreement in shape or length between
arguments: X that is not 2-D or has the wrong width, labels, counts or scores
with one entry too many or too few, consensus inputs of unequal length.

BadParams is a parameter value out of range, such as a params dataclass
field, a lambda or a split fraction. It is a ValueError too, so a caller
that catches the ValueError of a bad argument value still catches it.
"""


def _rebuild(cls, args):
    """An exception of ``cls`` holding ``args``, made without ``__init__``."""
    return cls.__new__(cls, *args)


class PipelineError(Exception):
    def __reduce__(self):
        # Exception rebuilds from ``args``, the message alone, by calling the
        # class; a subclass whose constructor takes fields would raise, and a
        # pool job's error would surface as a broken pool. The fields come
        # back as the instance's state.
        return _rebuild, (type(self), self.args), self.__dict__


class DataError(PipelineError):
    pass


class MissingColumn(DataError):
    def __init__(self, name):
        self.name = name
        super().__init__(f"missing column: {name}")


class NonNumericCell(DataError):
    def __init__(self, row, col, value):
        self.row = row
        self.col = col
        self.value = value
        super().__init__(f"non-numeric cell {value!r} at row {row}, column {col}")


class OutOfRange(DataError):
    def __init__(self, row, col, value, expected):
        self.row = row
        self.col = col
        self.value = value
        super().__init__(
            f"value {value!r} at row {row}, column {col} outside {expected}"
        )


class EmptyData(DataError):
    pass


class InsufficientRows(DataError):
    pass


class TrainingError(PipelineError):
    pass


class SingleClass(TrainingError):
    pass


class TooFewMinority(TrainingError):
    pass


class DimensionMismatch(PipelineError):
    pass


class NonBinary(PipelineError):
    pass


class EmptyNode(PipelineError):
    pass


class BadParams(PipelineError, ValueError):
    pass


class FoldDegenerate(TrainingError):
    pass


class ConfigError(PipelineError):
    def __init__(self, key, message):
        self.key = key
        super().__init__(f"{key}: {message}")
