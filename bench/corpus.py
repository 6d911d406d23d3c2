"""Fuzz corpus for the ``fuzz-corpus`` workload.

The corpus for benchmark seed ``s`` walks the model seeds ``s mod
START_MOD``, ``+1``, ``+2``, ... of ``famart.spaces.random_finite_model``
and keeps a model while its shape (charged states, gains) still has
room, until every one of the 24 shapes holds ``PER_SHAPE`` models.  The
shape sets the size of every program of the report, so equal quotas
keep the corpus's work from depending on how many large shapes a seed
range happens to draw.  Folding the start into ``START_MOD`` keeps every model seed inside the
range whose verdict digests ``record.py`` stored.  It also makes the
corpora of any two seeds share most of their models with many charged
states: those shapes are rare, so their quotas fill only after several
hundred seeds of the walk, and they are the models behind the p95.

Run as a script it writes the corpus as JSON, which is the benchmark's
set-up step for the workload:

    PYTHONPATH=src python3 bench/corpus.py --seed 0 --out corpus.json
"""

from __future__ import annotations

import argparse
import itertools
import json

MAX_STATES = 6
MAX_GAINS = 4
PER_SHAPE = 12
SIZE = MAX_STATES * MAX_GAINS * PER_SHAPE
START_MOD = 512


def corpus_start(seed: int) -> int:
    return seed % START_MOD


def pick_seeds(start: int, shape_of) -> list[int]:
    """Model seeds from ``start`` on that fill every shape's quota."""
    room = {
        (n, k): PER_SHAPE
        for n in range(1, MAX_STATES + 1)
        for k in range(1, MAX_GAINS + 1)
    }
    picked = []
    for model_seed in itertools.count(start):
        shape = shape_of(model_seed)
        if room[shape]:
            room[shape] -= 1
            picked.append(model_seed)
            if len(picked) == SIZE:
                return picked
    raise AssertionError("unreachable")


def build_corpus(seed: int) -> list[list]:
    """``[model_seed, model JSON text]`` pairs for benchmark seed ``seed``."""
    from famart.modelio import serialize_model
    from famart.spaces import random_finite_model

    models = {}

    def shape_of(model_seed: int) -> tuple[int, int]:
        m, ls = random_finite_model(model_seed, MAX_STATES, MAX_GAINS)
        models[model_seed] = (m, ls)
        return len(m.charged_states()), len(ls.basis)

    return [
        [s, json.dumps(serialize_model(*models[s]))]
        for s in pick_seeds(corpus_start(seed), shape_of)
    ]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(build_corpus(args.seed), fh)


if __name__ == "__main__":
    main()
