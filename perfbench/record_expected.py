"""Record the iges-ingest areas of the recorded seeds into expected.json.

    python3 perfbench/record_expected.py

Run it only when the region generator changes, never to make a failing
gate pass: the recorded areas are what the gate compares against. The
plate-stage3 reference values in expected.json are kept as they are.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

from trimiga import iges  # noqa: E402

from regions import generate_regions  # noqa: E402
from workloads import RECORDED_SEEDS, ingest  # noqa: E402


def main():
    path = os.path.join(HERE, "expected.json")
    with open(path, encoding="utf-8") as fh:
        expected = json.load(fh)
    areas = {
        str(seed): [ingest(iges.region_to_iges(region))[0]
                    for region, _ in generate_regions(seed)]
        for seed in RECORDED_SEEDS
    }
    expected["iges-ingest"] = {"areas": areas}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(expected, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
