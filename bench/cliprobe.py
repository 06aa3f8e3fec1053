"""One finorch CLI command in a fresh interpreter, measured from inside.

Usage: ``python bench/cliprobe.py OUT.json [--trace] -- <cli args>``

Times the import of ``finorch.cli``, runs the command through
``finorch.cli.main`` (with the layer spans installed under ``--trace``),
then writes the import time, whether ``requests`` got imported, and the
spans to OUT.json. The exit status is the command's.
"""

from __future__ import annotations

import json
import sys
import time


def main() -> int:
    out, *rest = sys.argv[1:]
    trace = rest[0] == "--trace"
    args = rest[rest.index("--") + 1 :]
    started = time.perf_counter()
    import finorch.cli

    import_s = time.perf_counter() - started
    recorder = None
    if trace:
        from spans import Recorder

        recorder = Recorder()
        recorder.install()
        recorder.op = 0
    code = 0
    try:
        finorch.cli.main(args, standalone_mode=False)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        if recorder is not None:
            recorder.uninstall()
    with open(out, "w", encoding="utf-8") as handle:
        json.dump(
            {
                "import_ms": import_s * 1000.0,
                "requests_imported": "requests" in sys.modules,
                "spans": recorder.spans if recorder else [],
                "missing": recorder.missing if recorder else [],
            },
            handle,
        )
    return code


if __name__ == "__main__":
    sys.exit(main())
