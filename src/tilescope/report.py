"""Full analysis pipeline and its frozen JSON report schema.

``analyze_digit_set`` runs normalize -> tile decision -> least stage ->
tiling set -> cyclotomic flags -> spectral data -> measure convergence,
stopping early where a stage rules the rest out and recording the
stopping stage machine-readably.  The least stage m and the
decomposition of D_m come from :func:`~tilescope.skewform.least_stage`,
the one stage finder that ``search`` uses as well; the tiling set is
built from the decomposition's class representatives A, unchecked, since
the ``least_stage`` docstring proves it self-replicating, and the
cyclotomic flags from the supports the decomposition holds for the
spectral data as well.  The returned report is a plain JSON-compatible
dict with deterministic key order and content: identical inputs give
byte-identical serializations.

Schema evolution is additive only; field names are documented in the
README and pinned by the test suite.  ``report_to_json`` writes the bytes
of ``json.dumps(report, indent=2)`` by its own recursive writer: with an
indent, ``json.dumps`` never uses its C encoder.
"""

from __future__ import annotations

from json.encoder import encode_basestring_ascii
from math import gcd
from typing import Any

from .core import EXIT_INCONCLUSIVE, EXIT_OK, PeriodicSet, _check_level, normalize, tile_measure
from .cyclotomic import PrimePowerSupport, support
from .geometry import measure_report
from .skewform import SkewDecomposition, least_stage
from .spectral import AnLaiReport, SpectralConditionError, build_spectral_data
from .tiling import is_tile

# measure_report levels default to min(6, work-cap limit for the base)
_MEASURE_VALUE_CAP = 20_000


def default_k_max(base: int) -> int:
    k = 1
    while base ** (k + 1) <= _MEASURE_VALUE_CAP and k < 6:
        k += 1
    return k


def _cyclo_part(supp: PrimePowerSupport, strict_gate: bool) -> dict[str, Any]:
    """Support, (T1)/(T2) flags, and the spectrum when the gate passes."""
    part: dict[str, Any] = {
        "set": list(supp.values),
        "support": list(supp.entries),
        "t1": supp.t1,
        "t2": supp.t2(),
        "t2_strict": supp.t2(strict=True),
        "spectrum": None,
    }
    # the strict reading tests every subset the relaxed one does
    if supp.t1 and supp.t2(strict=strict_gate):
        spec = supp.spectrum()
        den = spec.denominator
        part["spectrum"] = {
            "denominator": den,
            # str(Fraction(v, den)), from one gcd each
            "elements": [
                str(v // g) if (g := gcd(v, den)) == den else f"{v // g}/{den // g}"
                for v in spec.numerators
            ],
        }
    return part


def _decomposition_json(dec: SkewDecomposition) -> dict[str, Any]:
    return {
        "base": dec.base,
        "stage": dec.stage,
        "s": dec.s,
        "A": list(dec.A),
        "classes": [
            {"a": a, "B": list(b)} for a, b in zip(dec.A, dec.Bs)
        ],
        # least_stage built dec from the level's values and checked it complete
        "verified": True,
    }


def _spectral_json(rep: AnLaiReport) -> dict[str, Any]:
    return {
        "modulus": rep.modulus,
        "support_A": list(rep.support_a),
        "support_B": list(rep.support_b),
        "lcm_A": rep.lcm_a,
        "lcm_B": rep.lcm_b,
        "L1": list(rep.l1),
        "L2": list(rep.l2),
        "hadamard_A": rep.hadamard_a,
        "hadamard_B": list(rep.hadamard_b),
        "hadamard_joint": list(rep.hadamard_joint),
        "counting_identity": rep.counting_identity,
        "all_ok": rep.all_ok,
    }


def analyze_digit_set(
    base: int,
    digits: list[int],
    m_max: int = 12,
    k_max: int | None = None,
    strict_t2: bool = False,
) -> tuple[dict[str, Any], int]:
    """Run the whole pipeline; returns (report dict, exit code)."""
    d, offset, scale = normalize(digits, base)
    if m_max < 1:
        raise ValueError(f"m_max must be >= 1, got {m_max}")
    if k_max is None:
        k_max = default_k_max(base)
    elif k_max < 1:
        raise ValueError(f"k_max must be >= 1, got {k_max}")
    _check_level(base, k_max)
    report: dict[str, Any] = {
        "command": "analyze",
        "input": {"base": base, "digits": sorted(digits)},
        "normalization": {
            "digits": list(d.digits),
            "offset": offset,
            "scale": scale,
        },
        "tile": None,
        "stabilization": None,
        "tiling_set": None,
        "measure": None,
        "decomposition": None,
        "cyclotomic": None,
        "spectral": None,
        "measure_report": None,
        "stopped_after": None,
    }

    tile, witness = is_tile(d)
    report["tile"] = {
        "is_tile": tile,
        "witness": None
        if witness is None
        else {
            "level": witness.level,
            "left": list(witness.left),
            "right": list(witness.right),
            "value": witness.value,
        },
    }
    if not tile:
        report["stopped_after"] = "tile_check"
        return report, EXIT_OK

    found = least_stage(d, m_max, collides_at=None)  # a tile: no level collides
    report["stabilization"] = {
        "m": None if found is None else found[0].level,
        "m_max": m_max,
        "inconclusive": found is None,
    }
    if found is None:
        report["stopped_after"] = "stabilization"
        return report, EXIT_INCONCLUSIVE

    level, dec = found
    # each block a_j + b**m * B_j lies in the class of a_j mod b**m, so
    # D_m + b**m * Z = A + b**m * Z, self-replicating by least_stage's proof
    j = PeriodicSet.from_values(dec.A, d.base**level.level).reduce()
    report["tiling_set"] = {
        "period": j.period,
        "residues": list(j.residues),
        "density": str(j.density()),
        "self_replicating": True,
    }
    report["measure"] = str(tile_measure(j))
    report["decomposition"] = _decomposition_json(dec)

    parts = {part: _cyclo_part(supp, strict_t2) for part, supp in dec.supports.items()}
    report["cyclotomic"] = {
        "full": parts.get(d.digits) or _cyclo_part(support(d.digits), strict_t2),
        "A": parts[dec.A],
        "B": [parts[b] for b in dec.Bs],
    }

    if strict_t2 and not all(supp.t2(strict=True) for supp in dec.supports.values()):
        report["spectral"] = {
            "available": False,
            "reason": "strict (T2) fails for a decomposition part",
        }
    else:
        try:
            rep = build_spectral_data(dec)
            report["spectral"] = {"available": True, **_spectral_json(rep)}
        except SpectralConditionError as err:
            report["spectral"] = {"available": False, "reason": str(err)}

    mr = measure_report(d, k_max, j)
    report["measure_report"] = {
        "k_max": k_max,
        "lengths": [str(x) for x in mr.lengths],
        "target": None if mr.target is None else str(mr.target),
        "gap": None if mr.gap is None else str(mr.gap),
    }
    return report, EXIT_OK


def _write_json(value: Any, indent: str, parts: list[str]) -> None:
    """Append ``json.dumps(value, indent=2)``, nested at ``indent``, to ``parts``.

    Takes dicts with str keys, lists, str, int, bool and None, and raises
    TypeError on anything else, floats included.
    """
    kind = type(value)
    if kind is str:
        parts.append(encode_basestring_ascii(value))
    elif kind is int:
        parts.append(str(value))
    elif kind is bool:
        parts.append("true" if value else "false")
    elif value is None:
        parts.append("null")
    elif kind is dict:
        if not value:
            parts.append("{}")
            return
        inner, opening = indent + "  ", "{\n"
        for key, item in value.items():
            if type(key) is not str:
                raise TypeError(f"report keys must be str, got {type(key).__name__}")
            parts.append(opening + inner + encode_basestring_ascii(key) + ": ")
            _write_json(item, inner, parts)
            opening = ",\n"
        parts.append("\n" + indent + "}")
    elif kind is list:
        if not value:
            parts.append("[]")
            return
        inner, opening = indent + "  ", "[\n"
        if all(type(item) is int for item in value):  # the long lists, in one join
            parts.append(opening + inner + (",\n" + inner).join(map(str, value)) + "\n" + indent + "]")
            return
        for item in value:
            parts.append(opening + inner)
            _write_json(item, inner, parts)
            opening = ",\n"
        parts.append("\n" + indent + "]")
    else:
        raise TypeError(f"{kind.__name__} is not a report value")


def report_to_json(report: dict[str, Any]) -> str:
    """Canonical serialization: stable key order, two-space indent."""
    parts: list[str] = []
    _write_json(report, "", parts)
    parts.append("\n")
    return "".join(parts)


def render_text(report: dict[str, Any]) -> str:
    """Short human-readable summary of an analysis report."""
    lines = []
    inp = report["input"]
    norm = report["normalization"]
    lines.append(f"digit set: base {inp['base']}, digits {inp['digits']}")
    if norm["offset"] != 0 or norm["scale"] != 1:
        lines.append(
            f"normalized: {norm['digits']} "
            f"(offset {norm['offset']}, scale {norm['scale']})"
        )
    tile = report["tile"]
    if not tile["is_tile"]:
        w = tile["witness"]
        lines.append("tile: no")
        lines.append(
            f"collision at level {w['level']}: digits {w['left']} and "
            f"{w['right']} share value {w['value']}"
        )
        return "\n".join(lines) + "\n"
    lines.append("tile: yes")
    stab = report["stabilization"]
    if stab["inconclusive"]:
        lines.append(f"stabilization: none found with m <= {stab['m_max']}")
        return "\n".join(lines) + "\n"
    lines.append(f"stabilization exponent m: {stab['m']}")
    ts = report["tiling_set"]
    lines.append(
        f"tiling set: period {ts['period']}, residues {ts['residues']} "
        f"(density {ts['density']})"
    )
    lines.append(f"tile measure: {report['measure']}")
    dec = report["decomposition"]
    lines.append(
        f"decomposition (stage {dec['stage']}, modulus {dec['base']}): "
        f"A = {dec['A']}"
    )
    for cls in dec["classes"]:
        lines.append(f"  class a={cls['a']}: B = {cls['B']}")
    spec = report["spectral"]
    if spec["available"]:
        lines.append(
            f"spectral data: L1 = {spec['L1']}, L2 = {spec['L2']}, "
            f"all_ok = {spec['all_ok']}"
        )
    else:
        lines.append(f"spectral data unavailable: {spec['reason']}")
    mr = report["measure_report"]
    lines.append(
        f"cover lengths (k=1..{mr['k_max']}): {mr['lengths']} "
        f"-> target {mr['target']}"
    )
    return "\n".join(lines) + "\n"
