"""Regenerate the reference behaviour fingerprints in bench/fingerprints.json.

    python3 bench/fingerprints.py

Runs one full untraced round of every workload and rewrites the file.  A
change that claims to leave behaviour alone runs this and shows that
``git diff bench/fingerprints.json`` is empty; a change that moves a trace
or a canonical representative on purpose commits the new file.  The
fingerprints do not depend on ``--seed``: the seed only reorders the census
and reduce operations and relabels inputs whose canonical form is hashed.
"""
import json
import os
import sys

from run import HERE, WORKLOADS, load_reference_fingerprints, worker


def main() -> int:
    old = load_reference_fingerprints()
    new = {}
    for workload in WORKLOADS:
        report = worker(workload, seed=1)
        for text in report["errors"] + report["problems"]:
            print(f"{workload}: {text}", file=sys.stderr)
        new[workload] = report["fingerprints"]
        for key, value in new[workload].items():
            before = old.get(workload, {}).get(key)
            status = ("unchanged" if before == value else
                      "new" if before is None else f"was {before}")
            print(f"{workload} {key} = {value} ({status})")
    with open(os.path.join(HERE, "fingerprints.json"), "w", encoding="utf-8") as fh:
        json.dump(new, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
