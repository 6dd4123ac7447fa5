"""Traced ``ballrep`` command line run in a fresh interpreter.

As a script (started with ``python -X importtime``) it times
``import ballrep.cli`` as a ``cli.import`` span, installs the tracer,
calls ``ballrep.cli.main(argv)``, writes the spans as JSONL and exits
with the command's exit code:

    python -X importtime perfbench/cli_child.py --spans OUT.jsonl --item ID -- volume p.json

``run_traced`` starts such a child and splits the import time of numpy and
scipy out of its ``-X importtime`` report.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def run_traced(argv: list[str], item: str, spans_path: str, offset: int = 0):
    """Run one traced command; return (CliRun, spans, unpatched targets)."""
    import tracer
    from workloads import CliRun

    proc = subprocess.run(
        [sys.executable, "-X", "importtime", os.path.join(HERE, "cli_child.py"),
         "--spans", spans_path, "--item", item, "--", *argv],
        capture_output=True, text=True, timeout=120,
    )
    report = [line for line in proc.stderr.splitlines() if line.startswith("import time:")]
    stderr = "".join(line + "\n" for line in proc.stderr.splitlines()
                     if not line.startswith("import time:"))
    spans, missing = [], []
    with open(spans_path) as fh:
        for line in fh:
            doc = json.loads(line)
            if "unpatched" in doc:
                missing = doc["unpatched"]
                continue
            spans.append(tracer.Span.from_dict(doc, offset))
    split = tracer.import_split("\n".join(report))
    for span in spans:
        if span.name == "cli.import":
            span.attrs["numpy_s"] = split["numpy"]
            span.attrs["scipy_s"] = split["scipy"]
    return CliRun(proc.returncode, proc.stdout, stderr), spans, missing


def main() -> int:
    import tracer

    args = sys.argv[1:]
    split = args.index("--")
    options, argv = args[:split], args[split + 1:]
    spans_path = options[options.index("--spans") + 1]
    item = options[options.index("--item") + 1]

    recorder = tracer.Tracer()
    recorder.item = item
    span = recorder.open("cli.import")
    import ballrep.cli  # noqa: F401

    recorder.close(span)
    cli = sys.modules["ballrep.cli"]
    recorder.install()
    code = None
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        recorder.uninstall()
        with open(spans_path, "w") as fh:
            fh.write(json.dumps({"unpatched": recorder.missing}) + "\n")
            for s in recorder.spans:
                fh.write(json.dumps(s.to_dict()) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
