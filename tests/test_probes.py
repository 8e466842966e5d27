"""Every probe of the benchmark's tracer names a callable in orbcheck.

perfbench/spans.py wraps orbcheck functions by attribute path from
outside; a renamed method would only show when the benchmark runs.
The file is read as text, never imported or written.
"""

import importlib
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def test_every_probe_path_resolves_to_a_callable():
    namespace: dict = {}
    exec(compile(SPANS.read_text(encoding="utf-8"), str(SPANS), "exec"), namespace)
    probes = namespace["PROBES"]
    assert probes
    unresolved = []
    for _, module, path, _, _ in probes:
        owner = importlib.import_module(f"orbcheck.{module}")
        for part in path.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            unresolved.append(f"orbcheck.{module}.{path}")
    assert unresolved == []
