"""Rendering interval towers to SVG and JSON.

Each level of the outer cover becomes one horizontal band; a tile's
bands settle into a fixed union while a non-tile's bands thin out.
Output lands next to this script in demos/output/.
"""

import pathlib

from tilescope import DigitSet, covers, intervals_json_text, tower_svg

print(__doc__)

out_dir = pathlib.Path(__file__).parent / "output"
out_dir.mkdir(exist_ok=True)

for name, base, digits, levels in [
    ("product_form", 4, (0, 1, 8, 9), 5),
    ("non_tile", 4, (0, 1, 2, 5), 5),
    ("two_stage", 4, (0, 1, 32, 33), 5),
]:
    d = DigitSet(base, digits)
    unions = covers(d, levels)
    svg_path = out_dir / f"{name}.svg"
    svg_path.write_text(tower_svg(d, unions, width=900, height=300))
    json_path = out_dir / f"{name}.json"
    json_path.write_text(intervals_json_text(d, unions))
    lengths = [str(u.total_length) for u in unions]
    print(f"{name}: digits {digits}")
    print(f"  cover lengths {lengths}")
    print(f"  wrote {svg_path.name} and {json_path.name}")
