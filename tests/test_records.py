"""The package's record types behave as frozen value records.

Each of the ten classes takes its fields in order, positionally or by
keyword, and refuses its derived fields as arguments. Its instances refuse
assignment and deletion, compare equal field by field against their own
class only, hash by their field tuple (so records holding arrays are
unhashable), show every field in their repr, and survive copy and pickle.
"""

import copy
import inspect
import pickle

import numpy as np
import pytest

from dgft import (
    DirectedLaplacian,
    EigenvalueMultiplicity,
    FrequencyOrdering,
    Graph,
    GraphSignal,
    InvalidValueError,
    JordanBlock,
    MultiplicityReport,
    ShiftInvariance,
    SpectralDecomposition,
    Spectrum,
    build_graph,
    decompose,
    demo_graph,
    ring_graph,
)
from dgft.filters import COMMUTATOR_TOL

_DEC = decompose(demo_graph())
_MULTIPLICITY = EigenvalueMultiplicity(2j, 2, 1)

# class: (constructor arguments in field order, derived fields with their values)
RECORDS = {
    Graph: ((np.array([[0.0, 1.0], [0.0, 0.0]]),), {"n": 2}),
    GraphSignal: (([2.5, -1.0],), {"n": 2}),
    DirectedLaplacian: ((np.array([[1.0, -1.0], [0.0, 0.0]]),), {"n": 2}),
    JordanBlock: ((1 + 0j, 2, 0), {}),
    SpectralDecomposition: (
        (_DEC.v, _DEC.eigenvalues, _DEC.proper_indices, _DEC.v_inv, False, 1e-9, 3e-15),
        {"basis_condition": _DEC.basis_condition, "n": 5},
    ),
    FrequencyOrdering: (((1, 0, 2), ((1, 0),)), {"ranks": (1, 0, 2)}),
    Spectrum: (
        (np.array([0.0, 1.0]), np.array([1.0, 2.0])),
        {"ordering": FrequencyOrdering((0, 1), ()), "n": 2},
    ),
    ShiftInvariance: ((1e-12,), {}),
    EigenvalueMultiplicity: ((2j, 2, 1), {}),
    MultiplicityReport: (((_MULTIPLICITY,),), {"polynomials_span_commutant": True}),
}
HASHABLE = {JordanBlock, FrequencyOrdering, ShiftInvariance, EigenvalueMultiplicity,
            MultiplicityReport}
CASES = [pytest.param(cls, id=cls.__name__) for cls in RECORDS]


def _init_names(cls) -> list[str]:
    return list(inspect.signature(cls).parameters)


def _fields(cls) -> list[str]:
    """Every field in order: the constructor's, then the derived ones."""
    return _init_names(cls) + list(RECORDS[cls][1])


def _build(cls, keyword=False):
    args = RECORDS[cls][0]
    return cls(**dict(zip(_init_names(cls), args))) if keyword else cls(*args)


def _same(a, b) -> bool:
    """Field by field, arrays by value."""
    return type(a) is type(b) and all(
        np.array_equal(getattr(a, f), getattr(b, f)) if isinstance(getattr(a, f), np.ndarray)
        else getattr(a, f) == getattr(b, f)
        for f in _fields(type(a))
    )


def test_every_record_type_of_the_package_is_covered():
    import dgft

    assert set(RECORDS) == {
        getattr(dgft, name) for name in dgft.__all__
        if inspect.isclass(getattr(dgft, name))
        and not issubclass(getattr(dgft, name), (Exception, Warning))
    }


@pytest.mark.parametrize("cls", CASES)
def test_constructor_takes_fields_in_order_and_refuses_derived_ones(cls):
    args, derived = RECORDS[cls]
    assert len(_init_names(cls)) == len(args)
    positional, keyword = _build(cls), _build(cls, keyword=True)
    assert _same(positional, keyword)
    for name, value in derived.items():
        got = getattr(positional, name)
        assert got == value
        with pytest.raises(TypeError):
            cls(*args, **{name: got})


@pytest.mark.parametrize("cls", CASES)
def test_fields_can_be_neither_assigned_nor_deleted(cls):
    record = _build(cls)
    for name in _fields(cls) + ["extra"]:
        with pytest.raises(AttributeError):
            setattr(record, name, 0)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert _same(record, _build(cls))


@pytest.mark.parametrize("cls", CASES)
def test_equality_is_per_field_and_per_class(cls):
    record = _build(cls)
    assert record.__eq__(object()) is NotImplemented
    assert record != "record" and record is not None
    assert record == _build(cls, keyword=True)  # array fields by value
    if cls in HASHABLE:
        first, *rest = RECORDS[cls][0]
        assert record != cls(type(first)(), *rest)  # the first field empty, zero or false


def test_records_holding_arrays_compare_by_value():
    # Array fields compare with np.array_equal, so a comparison answers
    # rather than raising numpy's ValueError.
    assert demo_graph() == demo_graph()
    assert decompose(demo_graph()) == decompose(demo_graph())
    assert demo_graph() != ring_graph(5)  # the same n, other weights
    assert GraphSignal([1.0, 2.0]) != GraphSignal([1.0, 3.0])
    assert GraphSignal([1.0, 2.0]) != GraphSignal([1.0, 2.0, 3.0])  # arrays of two shapes


@pytest.mark.parametrize("cls", CASES)
def test_hash_is_the_field_tuple_and_arrays_are_unhashable(cls):
    record = _build(cls)
    if cls in HASHABLE:
        assert hash(record) == hash(tuple(getattr(record, f) for f in _fields(cls)))
        assert {record: 1}[_build(cls, keyword=True)] == 1
    else:
        with pytest.raises(TypeError):
            hash(record)


@pytest.mark.parametrize("cls", CASES)
def test_repr_names_every_field_in_order(cls):
    record = _build(cls)
    shown = ", ".join(f"{f}={getattr(record, f)!r}" for f in _fields(cls))
    assert repr(record) == f"{cls.__name__}({shown})"


def test_repr_text():
    assert repr(GraphSignal([2.5])) == "GraphSignal(values=array([2.5]), n=1)"
    assert repr(JordanBlock(1 + 0j, 2, 0)) == "JordanBlock(eigenvalue=(1+0j), size=2, start=0)"
    assert repr(MultiplicityReport((_MULTIPLICITY,))) == (
        "MultiplicityReport(entries=(EigenvalueMultiplicity(eigenvalue=2j, algebraic=2, "
        "geometric=1),), polynomials_span_commutant=True)"
    )
    assert repr(Spectrum([0.0], [1.0])) == (
        "Spectrum(eigenvalues=array([0.]), coefficients=array([1.]), "
        "ordering=FrequencyOrdering(order=(0,), tie_groups=(), ranks=(0,)), n=1)"
    )


@pytest.mark.parametrize("cls", CASES)
def test_copy_and_pickle_keep_every_field(cls):
    record = _build(cls)
    for twin in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert _same(twin, record)


def test_a_subclass_keeps_the_fields_and_its_own_class():
    class Block(JordanBlock):
        pass

    block = Block(1 + 0j, 2, 0)
    assert repr(block) == f"{Block.__qualname__}(eigenvalue=(1+0j), size=2, start=0)"
    assert block == Block(1 + 0j, 2, 0) and block != Block(1 + 0j, 2, 1)
    assert block != JordanBlock(1 + 0j, 2, 0)
    with pytest.raises(AttributeError):
        block.size = 3


def test_shift_invariance_is_truthy_exactly_when_invariant():
    # The verdict is its evidence: residual within COMMUTATOR_TOL, a NaN never.
    assert ShiftInvariance(0.0) and ShiftInvariance(COMMUTATOR_TOL)
    assert not ShiftInvariance(2 * COMMUTATOR_TOL)
    assert not ShiftInvariance(float("nan"))
    assert bool(ShiftInvariance(np.float64(COMMUTATOR_TOL / 2))) is True


def test_blocks_are_computed_once():
    dec = decompose(demo_graph())
    assert dec.blocks is dec.blocks
    assert [b.size for b in dec.blocks] == [1] * 5


def test_a_decomposition_holds_no_square_array_but_its_basis():
    # J is kept as its eigenvalues and chain heads: the basis and its
    # inverse are the only n x n arrays, in the record and in J's layout.
    chain = build_graph(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)])
    for g in (demo_graph(), ring_graph(6), chain):
        dec = decompose(g)
        assert dec.blocks  # cached in the record from here on
        held = {**vars(dec), **vars(dec._bidiagonal)}
        square = sorted(k for k, x in held.items() if np.shape(x) == (dec.n, dec.n))
        assert square == ["v", "v_inv"]


def test_decomposition_refuses_a_j_that_does_not_fit_its_basis():
    basis = dict(is_unitary_basis=True, cluster_tol=1e-9, residual=0.0)

    def build(eigenvalues, proper_indices):
        return SpectralDecomposition(np.eye(3), eigenvalues, proper_indices, np.eye(3), **basis)

    dec = build(np.array([0.0, 1.0, 1.0]), (0, 1))  # a 1x1 and a 2x2 block
    assert [(b.size, b.start) for b in dec.blocks] == [(1, 0), (2, 1)]
    for eigenvalues in (np.zeros(2), np.zeros(4), np.zeros((3, 1)), np.zeros((1, 3))):
        with pytest.raises(InvalidValueError, match="eigenvalues of shape"):
            build(eigenvalues, (0, 1, 2))
    # Column 0 continues no chain; heads ascend strictly, as integers, below n.
    for proper in ((), (1, 2), (0, 2, 1), (0, 0, 1), (0, 3), (-1, 0), (0, 1.0), [[0, 1]]):
        with pytest.raises(InvalidValueError, match="proper indices"):
            build(np.zeros(3), proper)
