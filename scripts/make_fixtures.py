#!/usr/bin/env python3
"""Write the canonical example documents to a fixtures directory.

Every file is a JSON document the `expobs` CLI accepts directly, e.g.:

    expobs analyze --system fixtures/line_swap_system.json \
        --observable fixtures/line_swap_split_observable.json
    expobs circle certify --map fixtures/m0_circle.json --delta 1/16
    expobs symbolic ball --point fixtures/homoclinic_point.json ...

Deterministic: rerunning produces byte-identical files.
"""

import argparse
import json
import random
import sys
from pathlib import Path

from expobs.library import (
    line_swap_system,
    m0_circle_document,
    plateau_circle_document,
    quarter_turn_circle_document,
    reflection_interval_document,
    rigid_rotation_document,
    rotation_grid,
    torus_cat_grid,
    valley_interval_document,
)
from expobs.model import Observable, distance_observable, serialize_observable, serialize_system
from expobs.exact import GaussianRational
from expobs.sampling import corpus, random_observable
from expobs.shift import (
    CylinderObservable,
    EPPoint,
    serialize_cylinder_observable,
    serialize_point,
)


def split_observable(system):
    half = system.n // 2
    values = {
        p: GaussianRational.of(0 if i < half else 1)
        for i, p in enumerate(system.points)
    }
    return Observable.from_mapping(system, values)


def documents():
    l4 = line_swap_system()
    cat5 = torus_cat_grid()
    r8 = rotation_grid(8)
    rng = random.Random(77)
    sample = corpus(seed=77, count=3, max_points=6)
    docs = {
        "line_swap_system": serialize_system(l4),
        "line_swap_split_observable": serialize_observable(split_observable(l4)),
        "line_swap_distance_observable": serialize_observable(
            distance_observable(l4, l4.points[0])
        ),
        "torus_cat_system": serialize_system(cat5),
        "rotation_grid_8_system": serialize_system(r8),
        "m0_circle": m0_circle_document(),
        "plateau_circle": plateau_circle_document(),
        "quarter_turn_circle": quarter_turn_circle_document(),
        "rigid_rotation_3_8": rigid_rotation_document("3/8"),
        "valley_interval": valley_interval_document(),
        "reflection_interval": reflection_interval_document(),
        "homoclinic_point": serialize_point(
            EPPoint.make("0", "1", "0", alphabet="01")
        ),
        "alternating_point": serialize_point(EPPoint.make("01", alphabet="01")),
        "window1_cylinder_observable": serialize_cylinder_observable(
            CylinderObservable.injective(1, "01")
        ),
    }
    for i, system in enumerate(sample):
        docs[f"random_system_{i}"] = serialize_system(system)
        docs[f"random_observable_{i}"] = serialize_observable(
            random_observable(rng, system)
        )
    return docs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out", default="fixtures", help="output directory (default: fixtures)"
    )
    args = parser.parse_args(argv)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for name, doc in sorted(documents().items()):
        path = out / f"{name}.json"
        path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
