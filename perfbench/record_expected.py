"""Record the offline-paper behaviour that later runs must reproduce.

    python3 perfbench/record_expected.py --first 0 --last 63

Runs one cold full-size pipeline per seed and merges its accuracies and
encrypted-diagnosis digest into ``qoebench/expected_offline.json``.  Run
it only for a change that is meant to alter the paper's numbers; the
diff of that file is then the behaviour change under review.
"""

from __future__ import annotations

import argparse
import json

from qoebench import env, offline
from run import run_unit


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--first", type=int, required=True)
    parser.add_argument("--last", type=int, required=True)
    opts = parser.parse_args()
    env.require_program()
    path = offline.EXPECTED_PATH
    table = json.loads(path.read_text()) if path.is_file() else {"size": "full", "seeds": {}}
    for seed in range(opts.first, opts.last + 1):
        result = run_unit("pipeline", ["--seed", str(seed), "--size", "full", "--trace", "0"], 300)
        if result["raised"]:
            raise SystemExit(f"seed {seed}: {result['raised']}")
        table["seeds"][str(seed)] = result["behaviour"]
        table["seeds"] = dict(sorted(table["seeds"].items(), key=lambda item: int(item[0])))
        path.write_text(json.dumps(table, indent=1) + "\n")
        print(seed, result["behaviour"], flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
