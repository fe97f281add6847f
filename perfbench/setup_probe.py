"""Set-up cost of one workload: this fresh process imports simthresh and
loads the workload's inputs through the loaders the CLI commands use.

Usage: python3 perfbench/setup_probe.py WORKLOAD INPUT_DIR [INDEX_PATH]
"""

from __future__ import annotations

import os
import sys

from simthresh import ModelEnsemble, load_model, read_qrels
from simthresh.retrieval import load_index, read_topics


def main() -> int:
    workload, inputs = sys.argv[1], sys.argv[2]

    def path(name: str) -> str:
        return os.path.join(inputs, name)

    if workload == "ensemble-threshold":
        replicas = sorted(f for f in os.listdir(inputs) if f.startswith("replica"))
        ModelEnsemble([load_model(path(f), "word2vec_binary") for f in replicas])
    elif workload == "replica-disagreement":
        load_model(path("replica0.vec"), "word2vec_text")
        load_model(path("replica1.vec"), "word2vec_text")
    elif workload == "tlm-retrieval":
        load_index(sys.argv[3])
        load_model(path("embedding.bin"), "word2vec_binary")
        read_topics(path("topics.tsv"))
        read_qrels(path("qrels.txt"))
    else:
        raise SystemExit(f"unknown workload {workload!r}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
