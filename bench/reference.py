"""A fixed pure-Python workload that measures how fast the host runs now.

    python3 bench/reference.py

It does the same kinds of work as smellsurv (build and parse XML, group
tuples in dicts, sort, a product-limit loop over floats, a JSON round trip)
on inputs that never change and with no code from smellsurv, then prints
the seconds that work took. The runner times it between the program's
children and scales the program's timings by it (see run.py), so that a
spell in which other tenants of a shared host slow every process down does
not read as a slower program.
"""

from __future__ import annotations

import json
import random
import time
import xml.etree.ElementTree as ET

ELEMENTS = 12000
RULES = 6


def work() -> float:
    rng = random.Random(0)
    parts = ["<pmd>"]
    for i in range(ELEMENTS):
        parts.append(
            f'<file name="src/p{i % 97}/C{i % 1500}.java"><violation rule="R{i % RULES}" '
            f'beginline="{rng.randrange(1, 9999)}" method="m{i % 7}">text {i}</violation></file>'
        )
    parts.append("</pmd>")
    groups: dict[str, list[tuple[str, str, int]]] = {}
    for file_el in ET.fromstring("".join(parts)):
        v = file_el[0]
        key = (file_el.get("name"), v.get("method"), int(v.get("beginline")))
        groups.setdefault(v.get("rule"), []).append(key)
    total = 0.0
    for keys in groups.values():
        keys.sort()
        times = sorted(rng.random() for _ in keys)
        at_risk, survival = len(times), 1.0
        for t in times:
            survival *= 1.0 - 1.0 / at_risk
            at_risk -= 1
            total += survival * t
    blob = json.dumps({rule: [list(k) for k in keys] for rule, keys in groups.items()}, sort_keys=True)
    return total + len(json.loads(blob))


if __name__ == "__main__":
    started = time.perf_counter()
    work()
    print(repr(time.perf_counter() - started))
