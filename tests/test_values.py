"""The frozen value classes against ``@dataclass(frozen=True)`` twins.

Every value class is built by :func:`tilescope.core.frozen`; each test
here builds a frozen dataclass of the same shape (fields, ``__post_init__``
and name) and asks both for the same behaviour.  The last test checks that
importing the CLI does not import ``dataclasses`` at all.
"""

import pickle
import subprocess
import sys
from dataclasses import FrozenInstanceError, dataclass
from functools import cache
from pathlib import Path

import pytest

import tilescope.skewform
from tilescope import (
    DigitSet,
    IntPolynomial,
    PeriodicSet,
    RationalSpectrum,
    SkewDecomposition,
    approx,
    build_spectral_data,
    expand,
    is_tile,
    measure_report,
    replicating_chain,
    skew_decompose,
    support,
)
from tilescope.core import frozen

SRC = Path(__file__).resolve().parent.parent / "src"


@cache
def twin(cls):
    """A frozen dataclass with the name, fields and ``__post_init__`` of ``cls``."""
    namespace = {
        "__annotations__": dict(cls.__annotations__),
        "__qualname__": cls.__qualname__,
        "__module__": cls.__module__,
    }
    if hasattr(cls, "__post_init__"):
        namespace["__post_init__"] = cls.__post_init__
    return dataclass(frozen=True)(type(cls.__name__, (), namespace))


def fields(value) -> tuple:
    return tuple(getattr(value, name) for name in type(value).__match_args__)


def _samples() -> list:
    d = DigitSet(4, (9, 0, 8, 1))  # stored sorted by __post_init__
    dec = skew_decompose(d.digits, 4, 1)
    return [
        d,
        expand(d, 2),
        PeriodicSet(6, (4, 0, 2)),
        IntPolynomial((1, -1, 0, 0)),  # trailing zeros dropped
        support(d.digits),
        RationalSpectrum((3, 0, 1), 4),
        is_tile(DigitSet(3, (0, 1, 3)))[1],
        replicating_chain(d, 3),
        dec,
        build_spectral_data(dec),
        approx(d, 2),
        measure_report(d, 2, PeriodicSet(1, (0,))),
    ]


SAMPLES = _samples()
IDS = [type(value).__name__ for value in SAMPLES]


def test_every_value_class_is_sampled():
    assert sorted(IDS) == sorted(
        "DigitSet ExpandedDigits PeriodicSet IntPolynomial PrimePowerSupport "
        "RationalSpectrum TileWitness ReplicatingChain SkewDecomposition "
        "AnLaiReport IntervalUnion MeasureReport".split()
    )


@pytest.mark.parametrize("value", SAMPLES, ids=IDS)
class TestParity:
    def test_repr_eq_hash(self, value):
        cls, args = type(value), fields(value)
        other = twin(cls)(*args)
        assert repr(value) == repr(other)
        assert value == cls(*args) and not value != cls(*args)
        assert hash(value) == hash(cls(*args)) == hash(other) == hash(args)

    def test_not_equal_to_the_twin(self, value):
        other = twin(type(value))(*fields(value))
        assert value != other and other != value

    def test_frozen(self, value):
        other = twin(type(value))(*fields(value))
        name = type(value).__match_args__[0]
        for obj in (value, other):
            with pytest.raises(AttributeError):
                setattr(obj, name, None)
            with pytest.raises(AttributeError):
                obj.extra = None
            with pytest.raises(AttributeError):
                delattr(obj, name)
        with pytest.raises(FrozenInstanceError):
            setattr(other, name, None)
        assert fields(value) == fields(other)

    def test_keywords(self, value):
        cls, args = type(value), fields(value)
        kwargs = dict(zip(cls.__match_args__, args))
        assert cls(**kwargs) == value
        assert cls(**dict(reversed(kwargs.items()))) == value
        assert cls(*args[:1], **dict(list(kwargs.items())[1:])) == value
        assert twin(cls)(**kwargs) == twin(cls)(*args)

    def test_wrong_arguments(self, value):
        cls, args = type(value), fields(value)
        name = cls.__match_args__[0]
        calls = [
            (args[:-1], {}),  # one missing
            (args + (None,), {}),  # one extra
            (args, {"unknown": None}),
            (args[1:], {"unknown": None}),
            (args, {name: args[0]}),  # the first field twice
            ((), {}),
        ]
        if len(args) > 1:
            calls.append((args[:-1], {name: args[0]}))  # twice, and one missing
        for shape in (cls, twin(cls)):
            for a, kw in calls:
                with pytest.raises(TypeError):
                    shape(*a, **kw)

    def test_match_args(self, value):
        cls = type(value)
        assert cls.__match_args__ == twin(cls).__match_args__ == tuple(cls.__annotations__)
        match value:
            case cls(first):
                assert first == fields(value)[0]
            case _:
                pytest.fail("no match on the first field")

    def test_pickle(self, value):
        back = pickle.loads(pickle.dumps(value))
        assert type(back) is type(value)
        assert back == value and hash(back) == hash(value) and repr(back) == repr(value)
        with pytest.raises(AttributeError):
            setattr(back, type(value).__match_args__[0], None)


@frozen
class Left:
    x: int
    y: tuple[int, ...]


@frozen
class Right:
    x: int
    y: tuple[int, ...]


def test_equal_fields_in_two_classes_differ():
    left, right = Left(1, (2,)), Right(1, (2,))
    assert left != right and right != left
    assert twin(Left)(1, (2,)) != twin(Right)(1, (2,))
    assert left == Left(x=1, y=(2,)) and hash(left) == hash(right)


class TestCachedProperty:
    def test_spectrum_is_built_once_per_instance(self):
        first, second = support((0, 1, 8, 9)), support((0, 1, 8, 9))
        assert first == second and first is not second
        spectrum = first.spectrum()
        assert first.spectrum() is spectrum
        assert second.spectrum() == spectrum and second.spectrum() is not spectrum
        assert pickle.loads(pickle.dumps(first)).spectrum() == spectrum

    def test_complete_is_decided_once_per_instance(self, monkeypatch):
        calls = []
        scan = tilescope.skewform.translates_cover_exactly

        def counting(*args):
            calls.append(args)
            return scan(*args)

        monkeypatch.setattr(tilescope.skewform, "translates_cover_exactly", counting)
        dec = SkewDecomposition(4, 1, (0, 1), ((0, 2), (0, 2)))
        copy = SkewDecomposition(4, 1, (0, 1), ((0, 2), (0, 2)))
        assert dec.complete and dec.complete
        once = len(calls)
        assert once > 0
        assert copy.complete and copy.complete
        assert len(calls) == 2 * once


def test_cli_import_skips_dataclasses_and_inspect():
    # -S keeps site-packages and .pth files from importing either first
    code = (
        f"import sys; sys.path.insert(0, {str(SRC)!r}); import tilescope.cli; "
        "print(' '.join(sorted({'dataclasses', 'inspect'} & set(sys.modules))))"
    )
    out = subprocess.run(
        [sys.executable, "-S", "-c", code],
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    )
    assert out.stdout.strip() == ""
