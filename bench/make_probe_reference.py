"""Write probe_reference.json: the MAST sizes of the probe pairs at the default seed.

The probe check reads sizes from this table for the default seed and
recomputes them for every other seed.  Rerun only if the probe's seeding
rule changes:

    PYTHONPATH=src python3 bench/make_probe_reference.py
"""

from __future__ import annotations

import json

from workloads import DEFAULT_SEED, Probe, op_key, rebuilt_probe_size

OPS = 256  # more ops than one run at the default seed makes


def main() -> None:
    sizes = {}
    for index in range(OPS):
        pair_seed = op_key(DEFAULT_SEED, index)
        sizes[str(pair_seed)] = rebuilt_probe_size(Probe.m, pair_seed)
    payload = {"m": Probe.m, "seed": DEFAULT_SEED, "sizes": sizes}
    Probe.reference_file.write_text(json.dumps(payload, indent=0) + "\n")


if __name__ == "__main__":
    main()
