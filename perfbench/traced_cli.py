"""Run one ``perfid`` command with the benchmark's tracer installed.

    python3 perfbench/traced_cli.py SPANS_FILE RUN_ID -- <perfid arguments>

Appends the command's spans to SPANS_FILE and exits with the command's
exit code, or 3 when the tracer could not restore the original functions.
"""

import sys
from pathlib import Path

from tracer import Tracer, write_records


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[2] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    spans_path, run_id, cli_args = Path(argv[0]), argv[1], argv[3:]
    import perfid.cli

    tracer = Tracer(run_id)
    tracer.install()
    try:
        code = perfid.cli.main(cli_args)
    finally:
        try:
            tracer.uninstall()
        except RuntimeError as exc:
            print(f"tracer: {exc}", file=sys.stderr)
            code = 3
    write_records(spans_path, tracer.take(run_id))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
