"""The result and config records are read-only NamedTuples: what they keep of
the frozen dataclasses they replaced, and RunConfig's checks on every path
that builds one. A check's result is a plain dict, its report record; what
each task returns across the suite pool is pickled here whole."""

import pickle

import pytest

from grouplab import FactoredInteger, suite
from grouplab.analysis import RadicalCertificate
from grouplab.catalog import GroupSpec
from grouplab.perm import DEFAULT_CAP, ConjugacyClass
from grouplab.sol import SolResult
from grouplab.suite import RunConfig

RECORDS = {
    "grouplab.perm": (FactoredInteger, ConjugacyClass),
    "grouplab.analysis": (RadicalCertificate,),
    "grouplab.catalog": (GroupSpec,),
    "grouplab.sol": (SolResult,),
    "grouplab.suite": (RunConfig,),
}
ALL_RECORDS = [cls for group in RECORDS.values() for cls in group]


def _instance(cls):
    # RunConfig checks its fields; every other record takes any values
    return RunConfig() if cls is RunConfig else cls._make(range(len(cls._fields)))


def test_six_records_keep_their_modules():
    assert len(ALL_RECORDS) == 6
    for module, classes in RECORDS.items():
        for cls in classes:
            assert cls.__module__ == module
            assert issubclass(cls, tuple)


@pytest.mark.parametrize("cls", ALL_RECORDS, ids=lambda cls: cls.__name__)
def test_record_attributes_are_read_only(cls):
    record = _instance(cls)
    with pytest.raises(AttributeError):
        setattr(record, cls._fields[0], None)
    with pytest.raises(AttributeError):
        record.extra = None
    assert record == _instance(cls)


# one small task of each kind that a runner hands to suite.pool_map, with the
# function that runs it; what it returns is what crosses the pool
POOL_TASKS = [
    (suite._group_task, "A:5", [0, 1, 2], 0, DEFAULT_CAP),
    (suite._quotient_task, "SL2:7", "center", DEFAULT_CAP),
    (suite._product_task, 1, DEFAULT_CAP),
    (suite._explore_task, "A:5", [1, 2], DEFAULT_CAP),
    (suite._table1_row, "A:5", DEFAULT_CAP),
    (suite._scan_group_task, "A:5", [1, 2], DEFAULT_CAP),
]


def _shape(value):
    """value's type, and those of everything it holds, as one nested tuple."""
    if isinstance(value, dict):
        return dict, tuple((k, _shape(v)) for k, v in value.items())
    if isinstance(value, (list, tuple)):
        return type(value), tuple(map(_shape, value))
    return type(value)


@pytest.mark.parametrize("task", POOL_TASKS, ids=lambda task: task[0].__name__)
def test_task_results_pickle_round_trip(task):
    result, _ = suite._run_task(task)
    back = pickle.loads(pickle.dumps(result))
    assert back == result
    assert _shape(back) == _shape(result)


@pytest.mark.parametrize(
    "bad",
    [{"workers": -1}, {"selector": "everything"}, {"cap": True}, {"groups": ("A:5", "A:5")},
     {"orders": (2, "3")}, {"product_powers": 4}],
    ids=lambda bad: next(iter(bad)),
)
def test_run_config_checks_every_construction_path(bad):
    with pytest.raises(ValueError):
        RunConfig(**bad)
    with pytest.raises(ValueError):
        RunConfig.from_json({k: list(v) if isinstance(v, tuple) else v for k, v in bad.items()})
    with pytest.raises(ValueError):
        RunConfig()._replace(**bad)
    with pytest.raises(ValueError):
        RunConfig._make({**RunConfig()._asdict(), **bad}.values())


def test_run_config_replace_keeps_its_type_and_fields():
    config = RunConfig(groups=("A:5",), workers=2)
    changed = config._replace(seed=7)
    assert type(changed) is RunConfig
    assert changed == RunConfig(groups=("A:5",), workers=2, seed=7)
    assert pickle.loads(pickle.dumps(changed)) == changed
