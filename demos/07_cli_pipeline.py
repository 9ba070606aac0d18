"""The persistence pipeline: run -> trace + report + certificate -> check.

Everything the CLI writes is deterministic (byte-identical traces for
identical configs) and self-verifying: `check` rebuilds the run from the
config embedded in the certificate, steps it to the certificate's step
while comparing each stored trace record with it, re-derives every
certificate quantity on it, and compares the trace digest embedded in the
certificate.
"""

import json
import pathlib
import tempfile

from pullbacklab.cli import main

out = pathlib.Path(tempfile.mkdtemp(prefix="pullback_lab_demo_"))
print("writing artifacts under", out)

code = main(["demo", "--out", str(out)])
print("demo corpus exit status:", code)

report = json.loads((out / "chebyshev.report.json").read_text())
print("\nchebyshev verdict:", report["classification"]["verdict"],
      "at", report["classification"]["puncture"])
print("trace digest:", report["trace_digest"][:16], "...")

code = main(["check",
             "--trace", str(out / "chebyshev.trace.jsonl"),
             "--cert", str(out / "chebyshev.certificate.json")])
print("stored-artifact check exit status:", code)
