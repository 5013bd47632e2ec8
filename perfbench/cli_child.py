"""Run one `pointvb` command in this process, as the `pointvb` entry point does.

    python3 perfbench/cli_child.py SPANS.jsonl <pointvb arguments...>

Besides running `pointvb.cli.main`, it keeps a clock (a tracer of the
optimizer step and the scored scene) on the command and writes its spans
to SPANS.jsonl, so the parent can place set-up time and step rates inside
the child. The exit status is the command's own.
"""

from __future__ import annotations

import sys
from pathlib import Path

import bootstrap


def main(argv: list[str]) -> int:
    bootstrap.prepare()
    from pointvb import cli
    from tracer import Tracer

    spans_path, command = Path(argv[0]), argv[1:]
    clock = Tracer(full=False)
    with clock:
        code = cli.main(command)
    clock.write(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
