"""Traced child process for the desk_cold workload.

    python3 perfbench/launcher.py SPANS.npz VERB [ARGS...]

Times ``import creditcurve.cli``, installs the same wrappers as the
in-process workloads, runs the verb and writes its spans to SPANS.npz
(the import time included).  Exits with the verb's
exit code.
"""

import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    spans_path, args = Path(sys.argv[1]), sys.argv[2:]
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    t0 = time.perf_counter()
    import creditcurve.cli as cli
    import_ms = (time.perf_counter() - t0) * 1e3

    from perfbench import instrument

    store = instrument.SpanStore()
    code = 0
    with instrument.Instrumentation(spans=True, store=store):
        sid = store.open(store.name_id(instrument.ROOT_SPAN))
        try:
            cli.main(args, standalone_mode=False)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        finally:
            store.close(sid)
    store.save(spans_path, import_ms=import_ms)
    return code


if __name__ == "__main__":
    sys.exit(main())
