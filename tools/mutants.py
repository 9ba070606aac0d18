"""Single-line mutants of the verdict rules, emission's cluster links,
the curve comparison and ``lift_path``'s safeguards.

    python3 tools/mutants.py            # every mutant
    python3 tools/mutants.py 1 4        # mutants 1 and 4 only

Run from the root of a source checkout. For each mutant the tree is
copied to a temporary directory, one source line is replaced there, and
tier-1 (``tests/`` and ``perfbench/``) runs with ``-x``. A mutant whose run
passes survived: no test fails without the condition it breaks. The
survivors are printed at the end, and the exit status is their count.
Nothing is gated on it; it needs only the standard library and pytest.
"""

import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# (name, file, the line's text, its replacement); each text occurs once
MUTANTS = [
    ("rule (b): any drop instead of 2% a step", "src/pullbacklab/fiber.py",
     "all(b[1] - a[1] < math.log10(0.98)", "all(b[1] - a[1] < 0"),
    ("rule (b): same-nearest-puncture test deleted",
     "src/pullbacklab/fiber.py",
     "if all(x[0] == p_label for x in series) and", "if True and"),
    ("rule (b): 6-record minimum -> 2", "src/pullbacklab/fiber.py",
     "if len(records) < 6 or", "if len(records) < 2 or"),
    ("rule (a): 10 EPS_P from the punctures -> 0", "src/pullbacklab/fiber.py",
     "> 10 * EPS_P:", "> 0:"),
    ("rule (a): free-entries test deleted", "src/pullbacklab/fiber.py",
     'if any(entry["mode"] != "free" for entry in entries):', "if False:"),
    ("classify_run: EPS_FIX x 1e6", "src/pullbacklab/certify.py",
     "if worst_res >= EPS_FIX:", "if worst_res >= EPS_FIX * 1e6:"),
    ("classify_run: decay-rate window (0.5, 2) -> (0.1, 10)",
     "src/pullbacklab/certify.py",
     "not 0.5 * expected < rate < 2.0 * expected",
     "not 0.1 * expected < rate < 10.0 * expected"),
    ("classify_run: decay-rate test deleted", "src/pullbacklab/certify.py",
     "if rate is not None and not 0.5 * expected < rate < 2.0 * expected:",
     "if False:"),
    ("classify_run: repelling test deleted", "src/pullbacklab/certify.py",
     "if not is_repelling(mult):", "if False:"),
    ("cluster links: a track never linked to its own puncture",
     "src/pullbacklab/certify.py",
     "if eta.log2_abs() * ln2 <= log_r:", "if False:"),
    ("cluster links: two tracks on one anchor never linked",
     "src/pullbacklab/certify.py",
     "if other.log2_dist(eta) * ln2 <= log_r:", "if False:"),
    ("cluster links: scale ignored, every anchored track linked",
     "src/pullbacklab/certify.py",
     "if eta.log2_abs() * ln2 <= log_r:", "if True:"),
    ("curve comparison: center test deleted", "src/pullbacklab/certify.py",
     "if not max(abs(c - c0), abs(v - v0)) <=", "if not abs(v - v0) <="),
    ("curve comparison: vertex test deleted", "src/pullbacklab/certify.py",
     "if not max(abs(c - c0), abs(v - v0)) <=", "if not abs(c - c0) <="),
    ("lift_path: step acceptance always true", "src/pullbacklab/lifting.py",
     "if abs(w - w_prev) < allowed:", "if True:"),
    ("lift_path: residual test deleted", "src/pullbacklab/lifting.py",
     "ok = not res > EPS_LIFT", "ok = True"),
    ("lift_path: critical-value clearance test deleted",
     "src/pullbacklab/lifting.py", "if clr <= EPS_CV:", "if False:"),
    ("lift_path: MAX_DEPTH 40 -> 2", "src/pullbacklab/lifting.py",
     "MAX_DEPTH = 40", "MAX_DEPTH = 2"),
]


def run_mutant(path, old, new):
    """True when tier-1 passes on a copy of the tree with ``old`` replaced
    by ``new`` in ``path``."""
    with tempfile.TemporaryDirectory() as tmp:
        tree = os.path.join(tmp, "tree")
        shutil.copytree(ROOT, tree, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".hypothesis"))
        target = os.path.join(tree, path)
        with open(target) as fh:
            text = fh.read()
        if text.count(old) != 1:
            raise SystemExit("%s: %r occurs %d times" % (path, old,
                                                         text.count(old)))
        with open(target, "w") as fh:
            fh.write(text.replace(old, new))
        env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"),
                   PYTHONDONTWRITEBYTECODE="1")
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p",
             "no:cacheprovider", "tests", "perfbench"],
            cwd=tree, env=env, stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL)
        return proc.returncode == 0


def main(argv):
    picked = [int(a) for a in argv] or range(1, len(MUTANTS) + 1)
    survivors = []
    for i in picked:
        name, path, old, new = MUTANTS[i - 1]
        survived = run_mutant(path, old, new)
        print("%2d %-8s %s" % (i, "SURVIVED" if survived else "killed", name),
              flush=True)
        if survived:
            survivors.append("%d %s" % (i, name))
    print("survivors: %d of %d" % (len(survivors), len(picked)))
    for line in survivors:
        print("  " + line)
    return len(survivors)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
