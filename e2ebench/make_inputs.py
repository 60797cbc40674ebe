"""Make the pinned inputs of the ``evaluate`` and ``serve`` workloads.

    python3 e2ebench/make_inputs.py

Writes, under ``e2ebench/data/``:

* ``evaluate_graph.txt`` — the bib instance ``evaluate`` loads, in
  gMark's edge-list format;
* ``evaluate_queries.tsv`` and ``serve_queries.tsv`` — one query per
  line as ``shape<TAB>selectivity<TAB>UCRPQ text``;
* ``inputs.json`` — the parameters below, which the workloads read.

Everything follows from the seeds in :data:`INPUTS`, so the files can
be made anew at any commit; keeping them pinned means a later change to
the generator's random draws cannot silently change what ``evaluate``
and ``serve`` measure.
"""

from __future__ import annotations

import json
import pathlib
import sys
import warnings

HERE = pathlib.Path(__file__).resolve().parent
DATA = HERE / "data"

INPUTS = {
    # One bib instance of 10^4 nodes and one workload mixing all four
    # shapes, all three selectivity classes and recursion.
    "evaluate": {"scenario": "bib", "nodes": 10_000, "seed": 7,
                 "queries": 60, "recursion": 0.2},
    # Query text only; the server generates the instance itself from
    # these parameters.  No recursion: see wl_serve.py.
    "serve": {"scenario": "bib", "nodes": 2_000, "seed": 11,
              "queries": 30, "recursion": 0.0},
}


def write_queries(path: pathlib.Path, workload) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for generated in workload:
            selectivity = generated.selectivity.value if generated.selectivity else "-"
            handle.write(
                f"{generated.shape.value}\t{selectivity}\t"
                f"{generated.query.to_text()}\n"
            )


def read_queries(path: pathlib.Path) -> list[tuple[str, str, str]]:
    """``(shape, selectivity, text)`` per line of a queries file."""
    with open(path, encoding="utf-8") as handle:
        return [tuple(line.rstrip("\n").split("\t", 2)) for line in handle if line.strip()]


def main() -> None:
    sys.path.insert(0, str(HERE.parent / "src"))
    from repro import Session
    from repro.generation.writers import write_edge_list
    from repro.queries.shapes import QueryShape

    DATA.mkdir(exist_ok=True)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for name, spec in INPUTS.items():
            session = Session.from_scenario(spec["scenario"], nodes=spec["nodes"],
                                            seed=spec["seed"])
            workload = session.workload(
                spec["queries"], shapes=tuple(QueryShape),
                recursion_probability=spec["recursion"],
            )
            write_queries(DATA / f"{name}_queries.tsv", workload)
            if name == "evaluate":
                write_edge_list(session.graph(), DATA / "evaluate_graph.txt")
    (DATA / "inputs.json").write_text(json.dumps(INPUTS, indent=2) + "\n")
    print(f"wrote {sorted(path.name for path in DATA.iterdir())}")


if __name__ == "__main__":
    main()
