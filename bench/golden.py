"""Regenerate the expected outputs in bench/golden/ for the default seed.

    python3 bench/golden.py [workload ...]

Each file holds the seed, one digest per operation for the first rounds of
the workload, and for cli_corpus the structured JSON of every document in
the first round.  Regenerate only for a deliberate change of formlab's
output, and say so in CHANGES.md: a benchmark run with the default seed
fails every operation whose digest moved.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import run

DEFAULT_SEED = 0
ROUNDS = {"census": 60, "orbit": 20, "cli_corpus": 4}


def regenerate(name: str) -> None:
    import workloads

    W = workloads.WORKLOADS[name]
    W.warm()
    digests, outputs = [], {}
    with tempfile.TemporaryDirectory(dir=run.BENCH) as tmp:
        for index in range(ROUNDS[name] * len(W.TYPES)):
            op = W.make(DEFAULT_SEED, index)
            result = W.run(W.prepare(op, Path(tmp)))
            problems = W.check(op, result)
            if problems:
                sys.exit(f"error: {name} op {index} ({op.kind}) fails its checks: {problems}")
            digests.append(W.digest(op, result))
            if name == "cli_corpus" and index < len(W.TYPES):
                outputs[f"{index} {op.kind}"] = {"exit": result[0], "stdout": result[1]}
    data = {"seed": DEFAULT_SEED, "digests": digests}
    if outputs:
        data["outputs"] = outputs
    run.GOLDEN.mkdir(exist_ok=True)
    (run.GOLDEN / f"{name}.json").write_text(json.dumps(data, indent=1) + "\n")
    print(f"{name}: {len(digests)} digests")


if __name__ == "__main__":
    run.load_formlab()
    for name in sys.argv[1:] or list(ROUNDS):
        regenerate(name)
