"""Write seeded input CSVs for the benchmark, one per seed.

    python3 bench/inputs.py <scenario> <contamination> <n_nd> <n_d> <seed>=<path> ...

The data come from robroc.simulate.generate(scenario, n_nd, n_d, seed) and
are written as columns y (outcome), d (0/1 disease) and x1, x2, ...
(covariates), floats in repr form so that reading them back is exact.  The
benchmark runs this in a separate process so that generating inputs adds
neither time nor memory to the measured process.
"""

import csv
import os
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def write_inputs(scenario_name: str, contamination: float, n_nd: int, n_d: int,
                 seed: int, path: Path) -> None:
    sys.path.insert(0, str(SRC))
    from robroc.simulate import generate, scenario

    nd, d = generate(scenario(scenario_name, contamination=contamination),
                     n_nd, n_d, seed=seed)
    p = nd.covariates.shape[1]
    tmp = path.with_name(path.name + f".{os.getpid()}.tmp")
    with open(tmp, "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["y", "d", *(f"x{h + 1}" for h in range(p))])
        for label, group in ((0, nd), (1, d)):
            for y, x in zip(group.outcomes, group.covariates):
                writer.writerow([repr(float(y)), label, *(repr(float(v)) for v in x)])
    os.replace(tmp, path)


if __name__ == "__main__":
    name, frac, n_nd, n_d, *targets = sys.argv[1:]
    for target in targets:
        seed, out = target.split("=", 1)
        write_inputs(name, float(frac), int(n_nd), int(n_d), int(seed), Path(out))
