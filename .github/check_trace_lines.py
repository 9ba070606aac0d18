"""Exit 1 unless every line of the given trace files is the compact sorted
JSON text of its own value, as json.dumps writes it:

    python3 .github/check_trace_lines.py out/*.trace.jsonl

The oracle is the standard library's json alone, not the engine's writer.
"""

import json
import sys


def main(paths):
    bad = 0
    lines = 0
    for path in paths:
        with open(path) as fh:
            for number, line in enumerate(fh, 1):
                lines += 1
                text = line.rstrip("\n")
                if text != json.dumps(json.loads(text), sort_keys=True,
                                      separators=(",", ":")):
                    bad += 1
                    if bad <= 5:
                        print("%s:%d: not compact sorted JSON" % (path, number))
    print("%d of %d trace lines differ from json.dumps" % (bad, lines))
    return 1 if bad or not lines else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
