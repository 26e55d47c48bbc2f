"""One benchmark process: a fresh interpreter that runs one alqr command.

    python3 child.py --src SRC --result FILE simulate --out DIR -- ARGS...
    python3 child.py --src SRC --result FILE analyze --out DIR
    python3 child.py --src SRC --result FILE verify
    python3 child.py --src SRC --result FILE import

``simulate`` first does, through the public API, the set-up a simulate run
needs before its first trial step (import, config load and validation,
plant resolution, the oracle ``solve_dare``) and stamps the moment it is
ready; it then runs ``alqr simulate`` through ``alqr.cli.main`` with the
same arguments. ``analyze`` and ``verify`` run those commands; ``import``
only imports alqr, so that byte-compilation happens before anything is
timed. Timestamps are CLOCK_MONOTONIC, comparable with the parent's.
Passing ``--trace`` wraps the layers listed in ``tracer.BINDINGS`` and
adds their per-layer totals to the result.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time


def _simulate_setup(alqr, argv: list[str]) -> dict:
    """Set-up of ``alqr <argv>``; the run is described by --set alone."""
    opts = alqr.cli.build_parser().parse_args(argv)
    doc = alqr.config.load_config_file(opts.config)
    alqr.config.apply_overrides(doc, opts.overrides)
    settings = alqr.config.parse_config_document(doc)
    spec = settings.experiment.plant
    alqr.control_math.solve_dare(spec.sys, spec.cost, spec.W)
    return alqr.plant_spec_to_dict(spec)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--src", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("role",
                        choices=("simulate", "analyze", "verify", "import"))
    parser.add_argument("--out")
    argv = sys.argv[1:]
    split = argv.index("--") if "--" in argv else len(argv)
    args = parser.parse_args(argv[:split])
    args.cli_args = argv[split + 1:]

    t_start = time.monotonic()
    src = os.path.abspath(args.src)
    sys.path.insert(0, src)
    import alqr
    import alqr.cli
    t_imported = time.monotonic()
    where = os.path.dirname(os.path.abspath(alqr.__file__))
    if os.path.dirname(where) != src:
        raise SystemExit(f"imported alqr from {where}, not from {src}")
    result = {"t_start": t_start, "t_imported": t_imported}

    tracer = None
    if args.trace:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        import tracer as tracing
        tracer = tracing.Tracer()
        result["missing_bindings"] = tracing.install(tracer)
        tracer.enter(tracing.ROOT)

    rc = 0
    if args.role == "simulate":
        argv = ["simulate", "--out", args.out, *args.cli_args]
        plant = _simulate_setup(alqr, argv)
        result["t_ready"] = time.monotonic()
    else:
        result["t_ready"] = time.monotonic()
        argv = {"analyze": ["analyze", "--out", args.out],
                "verify": ["verify"], "import": None}[args.role]
    if argv is not None:
        if tracer is None:
            rc = alqr.cli.main(argv)
        else:
            with tracer.span("cli.main." + argv[0]):
                rc = alqr.cli.main(argv)
    sys.stdout.flush()
    result["t_done"] = time.monotonic()
    result["rc"] = rc

    if tracer is not None:
        tracer.exit()
        result["layers"] = tracer.stats
        result["counts"] = tracer.counts
        result["spans"] = tracer.spans
    if args.role == "simulate":
        result["plant"] = plant
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
