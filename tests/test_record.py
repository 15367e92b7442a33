"""The package's record types: fields, construction, immutability, equality, repr, copies."""

import copy
import pickle

import numpy as np
import pytest

import ggchain as gg
from ggchain import GraphKind, GraphSpec

OPEN4 = GraphSpec(GraphKind.OPEN_CHAIN, 4)
SWEEP = gg.sweep(GraphKind.OPEN_CHAIN, 1, 2, 0.4, 3, 200)

# one instance of each record type, built the way the package builds it
VALUE_RECORDS = {
    "GraphSpec": GraphSpec(GraphKind.CYCLE, 5),
    "DecayParams": gg.decay_params(0.4),
    "GffParams": gg.GffParams(beta=1.0, mass=0.5),
    "ConvergenceRecord": next(iter(SWEEP)),
    "ConvergenceSweep": SWEEP,
    "RateFit": gg.fit_abs_error_rate(SWEEP),
    "GffRow": gg.gff_table([0.5])[0],
}
ARRAY_HOLDERS = {
    "CycleCorrelation": gg.cycle_correlation_sequence(5, 0.4),
    "CorrelationResult": gg.model_correlation(OPEN4, 0.4),
    "SampleBatch": gg.sample(OPEN4, 0.4, 100, 1),
}
RECORDS = VALUE_RECORDS | ARRAY_HOLDERS

FIELDS = {
    "GraphSpec": ("kind", "n"),
    "DecayParams": ("tau", "rate", "base"),
    "GffParams": ("beta", "mass"),
    "ConvergenceRecord": ("n", "exact", "limit", "abs_err", "rel_err", "scaled_rel"),
    "ConvergenceSweep": ("kind", "i", "j", "tau", "rate", "n_min", "n_max"),
    "RateFit": ("slope", "intercept", "r_squared", "expected_slope", "relative_slope_error", "n_points"),
    "GffRow": ("mass", "tau", "rate", "gff_rate", "discrepancy"),
    "CycleCorrelation": ("n", "tau", "covariances", "correlations", "limits"),
    "CorrelationResult": ("scale", "correlation"),
    "SampleBatch": (
        "seed", "count", "coordinate_sums", "cross_products", "correlation", "fisher_stderr", "method",
    ),
}


def values(record) -> tuple:
    return tuple(getattr(record, name) for name in type(record)._fields)


def assert_same_fields(a, b) -> None:
    """Field by field: arrays equal element-wise, everything else equal."""
    for x, y in zip(values(a), values(b), strict=True):
        if isinstance(x, np.ndarray):
            np.testing.assert_array_equal(x, y)
        else:
            assert x == y


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_fields_in_declaration_order(name):
    record = RECORDS[name]
    assert type(record) is getattr(gg, name)
    assert type(record).__name__ == name
    assert type(record)._fields == FIELDS[name] == tuple(type(record).__annotations__)
    assert type(record).__match_args__ == FIELDS[name]


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_assignment_and_deletion_raise(name):
    record = RECORDS[name]
    before = values(record)
    for field in (*type(record)._fields, "extra"):
        with pytest.raises(AttributeError, match=f"cannot assign to field '{field}'"):
            setattr(record, field, 0)
        with pytest.raises(AttributeError, match=f"cannot delete field '{field}'"):
            delattr(record, field)
    assert all(x is y for x, y in zip(values(record), before))
    assert not hasattr(record, "extra")


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_positional_keyword_and_mixed_construction(name):
    record = RECORDS[name]
    cls, fields = type(record), type(record)._fields
    by_keyword = dict(zip(fields, values(record)))
    for built in (
        cls(*values(record)),
        cls(**by_keyword),
        cls(**dict(reversed(by_keyword.items()))),
        cls(values(record)[0], **dict(list(by_keyword.items())[1:])),
    ):
        assert_same_fields(built, record)
        assert all(x is y for x, y in zip(values(built), values(record)))


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_construction_errors(name):
    record = RECORDS[name]
    cls, fields = type(record), type(record)._fields
    given = values(record)
    with pytest.raises(TypeError, match=f"missing field\\(s\\): {fields[-1]}"):
        cls(*given[:-1])
    with pytest.raises(TypeError, match="missing field"):
        cls()
    with pytest.raises(TypeError, match="an unexpected field 'extra'"):
        cls(*given, extra=1)
    with pytest.raises(TypeError, match=f"multiple values for field '{fields[0]}'"):
        cls(*given, **{fields[0]: given[0]})
    with pytest.raises(TypeError, match=f"takes {len(fields)} fields"):
        cls(*given, given[0])


def test_post_init_runs_on_every_construction():
    """Validation runs whether the fields come by position or by keyword."""
    with pytest.raises(gg.DomainError):
        GraphSpec(kind="cycle", n=2)
    with pytest.raises(gg.DomainError):
        gg.GffParams(1.0, -1.0)
    assert GraphSpec(kind="open", n=np.int64(3)).n.__class__ is int


@pytest.mark.parametrize("name", sorted(VALUE_RECORDS))
def test_value_records_compare_and_hash_by_fields(name):
    record = VALUE_RECORDS[name]
    twin = type(record)(*values(record))
    assert twin is not record
    assert twin == record and not twin != record
    assert hash(twin) == hash(record)
    assert len({record, twin}) == 1
    assert record != values(record)
    assert record.__eq__(values(record)) is NotImplemented
    # 7 is a valid last field of each, and none holds it
    assert type(record)(*values(record)[:-1], 7) != record


def test_equal_values_of_different_records_differ():
    assert gg.GffParams(beta=1.0, mass=0.5) == gg.GffParams(1.0, 0.5)
    assert GraphSpec(GraphKind.OPEN_CHAIN, 4) != GraphSpec(GraphKind.CENTERED_CHAIN, 4)


@pytest.mark.parametrize("name", sorted(ARRAY_HOLDERS))
def test_array_holders_compare_by_identity(name):
    record = ARRAY_HOLDERS[name]
    twin = type(record)(*values(record))
    assert record == record
    assert twin != record
    assert hash(record) == object.__hash__(record)
    assert len({record, twin}) == 2


def test_repr():
    assert repr(GraphSpec("cycle", 5)) == "GraphSpec(kind=<GraphKind.CYCLE: 'cycle'>, n=5)"
    assert repr(gg.decay_params(0.4)) == "DecayParams(tau=0.4, rate=0.6931471805599453, base=0.5)"
    assert repr(gg.GffParams(beta=1.0, mass=0.5)) == "GffParams(beta=1.0, mass=0.5)"
    assert repr(gg.cycle_correlation_sequence(3, 0.0)) == (
        "CycleCorrelation(n=3, tau=0.0, covariances=(1.0, 0.0, 0.0), "
        "correlations=(1.0, 0.0, 0.0), limits=(1.0, 0.0, 0.0))"
    )


def test_sweep_repr_leaves_out_its_records():
    assert repr(SWEEP) == (
        "ConvergenceSweep(kind=<GraphKind.OPEN_CHAIN: 'open'>, i=1, j=2, tau=0.4, "
        "rate=0.6931471805599453, n_min=3, n_max=200)"
    )


@pytest.mark.parametrize("name", sorted(RECORDS))
@pytest.mark.parametrize(
    "round_trip",
    [copy.copy, copy.deepcopy, lambda r: pickle.loads(pickle.dumps(r))],
    ids=["copy", "deepcopy", "pickle"],
)
def test_copies_are_equal_frozen_records(name, round_trip):
    record = RECORDS[name]
    twin = round_trip(record)
    assert type(twin) is type(record) and twin is not record
    assert_same_fields(twin, record)
    if name in VALUE_RECORDS:
        assert twin == record and hash(twin) == hash(record)
    with pytest.raises(AttributeError):
        twin.__setattr__(type(record)._fields[0], None)


def test_sweep_iterates_its_records():
    """Each pass evaluates the records afresh, and every pass yields the same ones."""
    first, second = list(SWEEP), list(SWEEP)
    assert [r.n for r in first] == list(range(3, 201))
    assert first == second and all(a is not b for a, b in zip(first, second))
