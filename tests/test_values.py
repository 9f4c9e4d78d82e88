"""The frozen value classes against ``@dataclass(frozen=True)`` twins.

Every value class is built by :func:`tilescope.core.frozen`; each test
here builds a frozen dataclass of the same shape (fields, ``__post_init__``
and name) and asks both for the same behaviour.  The last tests check the
package's export table, that importing the CLI does not import
``dataclasses`` at all, and which modules each command loads.
"""

import pickle
import subprocess
import sys
from dataclasses import FrozenInstanceError, dataclass
from functools import cache
from pathlib import Path

import pytest

import tilescope
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
        scan = tilescope.skewform._sums_complete

        def counting(*args):
            calls.append(args)
            return scan(*args)

        monkeypatch.setattr(tilescope.skewform, "_sums_complete", counting)
        dec = SkewDecomposition(4, 1, (0, 1), ((0, 2), (0, 2)))
        copy = SkewDecomposition(4, 1, (0, 1), ((0, 2), (0, 2)))
        assert dec.complete and dec.complete
        once = len(calls)
        assert once > 0
        assert copy.complete and copy.complete
        assert len(calls) == 2 * once


# the names ``tilescope`` exported when its ``__init__`` imported every module
EXPORTS = set(
    """AnLaiReport CarryAutomaton DigitSet ExpandedDigits ExpansionLimitError
    IntPolynomial IntervalUnion MeasureReport PeriodicSet PrimePowerSupport
    RationalSpectrum ReplicatingChain SkewDecomposition SpectralConditionError
    TileWitness analyze_digit_set approx approx_oracle build_spectral_data check_t1
    check_t2 collision_level collision_oracle covers cyclotomic_poly
    direct_sum_complete divides divides_oracle euler_phi expand gen_product_form
    gen_weak_product_form hull intervals_json intervals_json_text is_hadamard
    is_tile is_tile_oracle laba_spectrum least_stage lift_stage mask_poly
    max_expansion_level measure_report normalize prime_power_root
    replicating_chain report_to_json residues_mod self_replicating_tiling
    skew_decompose stabilization_exponent support tile_measure tower_svg
    truncated_spectrum unitarity_residual vanishes_at verify_decomposition
    verify_self_replicating""".split()
)


class TestExportTable:
    def test_names_are_kept(self):
        assert len(EXPORTS) == len(tilescope.__all__) == 60
        assert set(tilescope.__all__) == EXPORTS
        assert tilescope.__version__ == "0.1.0"

    @pytest.mark.parametrize("name", sorted(EXPORTS))
    def test_name_is_its_home_binding(self, name):
        value = getattr(tilescope, name)
        assert value.__module__.startswith("tilescope.")
        assert vars(sys.modules[value.__module__])[name] is value
        assert getattr(tilescope, name) is value

    def test_star_import_binds_every_name(self):
        namespace: dict = {}
        exec("from tilescope import *", namespace)
        assert set(namespace) - {"__builtins__"} == EXPORTS

    def test_unknown_name_and_dir(self):
        with pytest.raises(AttributeError, match="has no attribute 'nope'"):
            tilescope.nope
        assert EXPORTS <= set(dir(tilescope))


LAYERS = {"core", "cyclotomic", "geometry", "report", "skewform", "spectral", "tiling"}


def loaded_by(statements: str) -> set[str]:
    """The modules a fresh interpreter holds after ``statements``."""
    # -S keeps site-packages and .pth files from importing any of them first;
    # the list goes to stderr, past the command's own output
    code = (
        f"import sys; sys.path.insert(0, {str(SRC)!r}); {statements}; "
        "print(' '.join(sys.modules), file=sys.stderr)"
    )
    done = subprocess.run(
        [sys.executable, "-S", "-c", code],
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    )
    return set(done.stderr.split())


def test_cli_import_skips_dataclasses_and_inspect():
    assert not {"dataclasses", "inspect"} & loaded_by("import tilescope.cli")


MAIN = "import tilescope.cli; tilescope.cli.main({})"


@pytest.mark.parametrize(
    "statements, absent",
    [
        ("import tilescope", LAYERS | {"cli"}),
        ("from tilescope import covers", {"cli", "cyclotomic", "report", "skewform", "spectral", "tiling"}),
        ("import tilescope; tilescope.spectral", {"cli", "geometry", "report"}),
        ("import tilescope.cli; tilescope.cli.build_parser()", LAYERS - {"core"}),
        (MAIN.format("['render', '-b', '3', '-d', '0,1,11', '-k', '3']"), LAYERS - {"core", "geometry"}),
        (MAIN.format("['search', '-b', '3', '--bound', '9']"), {"cyclotomic", "report", "spectral", "geometry"}),
        (MAIN.format("['analyze', '-b', '4', '-d', '0,1,8,9']"), set()),
    ],
    ids=["package", "name", "submodule", "parser", "render", "search", "analyze"],
)
def test_each_command_loads_only_its_layers(statements, absent):
    loaded = {name for name in loaded_by(statements) if name.startswith("tilescope.")}
    assert loaded == {f"tilescope.{name}" for name in (LAYERS | {"cli"}) - absent}


@pytest.mark.parametrize(
    "statements, absent",
    [
        ("import tilescope.cli; tilescope.cli.build_parser()", {"json", "fractions", "decimal"}),
        (MAIN.format("['render', '-b', '3', '-d', '0,1,11', '-k', '3']"), {"json"}),
        (MAIN.format("['search', '-b', '3', '--bound', '9', '--json']"), {"fractions", "decimal"}),
    ],
    ids=["parser", "render", "search"],
)
def test_each_command_skips_the_stdlib_it_does_not_use(statements, absent):
    assert not absent & loaded_by(statements)
