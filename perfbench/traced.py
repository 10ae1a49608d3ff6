"""Run one workload process under the span tracer.

    PYTHONPATH=src python3 perfbench/traced.py SPAN_DIR cli campaign ...
    PYTHONPATH=src python3 perfbench/traced.py SPAN_DIR figure-serial ...

Installs :mod:`tracer` wrappers, runs the workload in this process
exactly as its untraced process would (``repro.cli.main`` or
``figure_serial.main``) and writes every process's spans to SPAN_DIR.
"""

import sys

import tracer as tracer_module


def main(argv):
    span_dir, kind, rest = argv[0], argv[1], argv[2:]
    tracer = tracer_module.install(tracer_module.Tracer(span_dir))
    try:
        if kind == "cli":
            from repro.cli import main as cli_main
            return cli_main(rest)
        import figure_serial
        return figure_serial.main(rest)
    finally:
        tracer.dump()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
