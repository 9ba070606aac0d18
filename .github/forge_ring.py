"""Write a copy of a certificate forged to fail the ring condition alone,
and print the label of the point it puts in the ring:

    PYTHONPATH=src python3 .github/forge_ring.py CERT OUT

The outer radius becomes 1.5 times the distance from the annulus center
to the nearest point of the step configuration outside the inner disk,
which then sits in the outer half of the ring, and the stored modulus is
made to match. ``check`` of the copy must fail with that point's
"configuration point ... inside the annulus ring" line alone.
"""

import json
import math
import sys

from pullbacklab.certify import _step_chart_entries
from pullbacklab.cli import _build_run, artifact_config
from pullbacklab.fiber import step_until
from pullbacklab.hyperbolic import RoundAnnulus, annulus_modulus


def main(cert_path, out_path):
    with open(cert_path) as fh:
        payload = json.load(fh)
    annulus = RoundAnnulus.from_json(payload["annulus"])
    n = payload["step"]
    run = _build_run(artifact_config(payload))
    step_until(run, lambda: None, n)
    entries = _step_chart_entries(run.step_points(n), annulus.anchor, n)
    dist, label = min((abs(z - annulus.center), lab) for lab, _, z in entries
                      if z is not None
                      and abs(z - annulus.center) > annulus.r_in)
    payload["annulus"]["log_rout"] = math.log(1.5 * dist)
    payload["modulus"] = annulus_modulus(
        RoundAnnulus.from_json(payload["annulus"]))
    with open(out_path, "w") as fh:
        json.dump(payload, fh)
    print(label)


if __name__ == "__main__":
    main(*sys.argv[1:])
