"""Run one stochwave CLI study in this fresh interpreter and record when each phase ended.

Usage: python3 child.py REQUEST.json

The request names the package source directory, the CLI argv, a result path
and a mode: `plain` runs the study, `traced` runs it with every layer
wrapped, `setup` stops at the study call.  All marks are time.monotonic(),
a system-wide clock, so the parent can subtract its own spawn time.
"""

import json
import resource
import sys
import time


class _SetupDone(Exception):
    pass


def main():
    with open(sys.argv[1], encoding="utf-8") as f:
        req = json.load(f)
    sys.path.insert(0, req["src"])
    import stochwave.cli as cli

    tracer = None
    if req["mode"] == "traced":
        from tracing import Tracer, install

        tracer = Tracer()
        install(tracer)

    marks = {}
    study_name = {
        "energy": "energy_study",
        "pairing": "pairing_study",
        "lambda-conv": "lambda_convergence_study",
        "isometry": "isometry_study",
    }[req["argv"][0]]
    study = getattr(cli, study_name)

    def timed_study(spec):
        marks["study_start"] = time.monotonic()
        if req["mode"] == "setup":
            raise _SetupDone
        try:
            return study(spec)
        finally:
            marks["study_end"] = time.monotonic()

    setattr(cli, study_name, timed_study)
    try:
        rc = cli.cli_main(req["argv"])
    except _SetupDone:
        rc = 0
    marks["done"] = time.monotonic()

    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    out = {"rc": rc, "marks": marks, "peak_rss_kib": max(own, children)}
    if tracer is not None:
        out["trace"] = tracer.summary()
    if req["mode"] == "setup":
        import numpy

        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        out["numpy"] = numpy.__version__
        out["blas"] = blas.get("openblas configuration") or f"{blas.get('name')} {blas.get('version')}"
    with open(req["result"], "w", encoding="utf-8") as f:
        json.dump(out, f)
    return rc


if __name__ == "__main__":
    sys.exit(main())
