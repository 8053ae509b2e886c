"""Run one ``braggtrap`` CLI command with its spans recorded.

Usage: python3 perfbench/cli_traced.py SPANS_JSON TASK_ID ARGV...

Wraps the public functions of every braggtrap module, then calls
``braggtrap.cli.main(ARGV)`` exactly as ``python -m braggtrap.cli ARGV`` would,
writes the spans to SPANS_JSON and exits with the command's exit code.
"""

import sys

import braggtrap.cli

import spans


def main(argv: list[str]) -> int:
    path, task, command = argv[0], int(argv[1]), argv[2:]
    tracer = spans.Tracer()
    tracer.install()
    tracer.task = task
    code = braggtrap.cli.main(command)
    tracer.write(path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
