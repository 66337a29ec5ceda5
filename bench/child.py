"""One measured process of the smpsolve benchmark; started by ``run.py``.

Usage: ``python3 bench/child.py REQUEST.json``.  The request names the
source tree, the CLI arguments, whether to trace, and where to write the
result.  The process imports smpsolve (that is the set-up ``run.py`` times
from process start), then, unless it only measures set-up, runs
``smpsolve.cli.main`` in-process and writes its timings, peak memory and,
when traced, the per-layer metrics and the spans.
"""
from __future__ import annotations

import contextlib
import json
import resource
import sys
import time
import traceback
from pathlib import Path


def _environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def main(request_path: str) -> int:
    request = json.loads(Path(request_path).read_text())
    src = Path(request["src"]).resolve()
    sys.path.insert(0, str(src))
    import smpsolve.cli

    ready = time.monotonic()
    if not Path(smpsolve.cli.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"smpsolve was imported from {smpsolve.cli.__file__}, not from {src}")
    result = {"ready": ready, "environment": _environment()}

    if request.get("argv") is not None:
        tracer = None
        if request["trace"]:
            from trace_layers import Tracer

            tracer = Tracer()
            tracer.install()
        out = Path(request["out"])
        code, error = None, None
        t0 = time.perf_counter()
        try:
            with open(request["log"], "w") as fh, contextlib.redirect_stdout(fh), contextlib.redirect_stderr(fh):
                code = smpsolve.cli.main(request["argv"])
        except Exception:
            error = traceback.format_exc()
        run_s = time.perf_counter() - t0
        result.update(
            exit_code=code,
            error=error,
            run_s=run_s,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            bytes_written=sum(p.stat().st_size for p in out.iterdir() if p.is_file()),
        )
        if tracer is not None:
            layers = tracer.summary(run_s)
            layers["io.bytes_written"] = result["bytes_written"]
            result["layers"] = layers
            result["span_table"] = tracer.by_name()
            with open(out / "spans.jsonl", "w") as fh:
                for span in tracer.spans:
                    fh.write(json.dumps(span) + "\n")

    Path(request["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
