import pickle

import pytest

from esdirkopt.errors import (BatchRowError, ConfigError, ContractViolation,
                              DomainError, EvaluationError, NewtonDivergence,
                              SingularMatrix)


@pytest.mark.parametrize("cls", [BatchRowError, DomainError,
                                 NewtonDivergence, SingularMatrix],
                         ids=lambda cls: cls.__name__)
def test_row_error_message_follows_its_row(cls):
    exc = cls("zero pivot", 0)
    exc.batch_row = 3                 # renumbered, as the integrator does
    assert str(exc) == "zero pivot in batch row 3"
    assert repr(exc) == f"{cls.__name__}('zero pivot', 3)"
    back = pickle.loads(pickle.dumps(exc))
    assert (repr(back), str(back), back.batch_row) == (repr(exc), str(exc), 3)
    err = EvaluationError(exc)
    assert err.interval == 3
    assert str(err) == ("evaluation failed on interval 3: zero pivot in "
                        "batch row 3")


@pytest.mark.parametrize("exc", [
    BatchRowError("zero pivot", 1), DomainError("negative tank mass", 2),
    NewtonDivergence("stage 2", 0), SingularMatrix("zero pivot", 5),
    EvaluationError(SingularMatrix("zero pivot", 2)),
    ConfigError("tau: expected a number"), ContractViolation("bad shape")],
    ids=lambda exc: type(exc).__name__)
def test_errors_survive_a_pickle_round_trip(exc):
    # a worker process reports its failure to the parent through pickle
    if isinstance(exc, BatchRowError):
        exc.batch_row += 1
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is type(exc)
    assert str(back) == str(exc)
    for name in ("batch_row", "interval"):
        assert getattr(back, name, None) == getattr(exc, name, None)
    if isinstance(exc, EvaluationError):
        assert type(back.cause) is type(exc.cause)
        assert back.cause.batch_row == exc.cause.batch_row
