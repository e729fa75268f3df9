"""The benchmark tracer (perfbench/tracing.py) replaces package attributes by name.

A refactor that drops one of those names, or binds a criterion function before
``cli.main`` runs, would hide its spans from the per-layer metrics.
"""

import json
from pathlib import Path

import momentcrit
import momentcrit.cli  # noqa: F401  (makes ``momentcrit.cli`` an attribute of the package)


def test_traced_names_resolve_and_record_spans(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    import tracing

    table = tracing._span_table(momentcrit) + tracing._counter_table(momentcrit)
    assert [f"{o.__name__}.{a}" for o, a, *_ in table if not hasattr(o, a)] == []
    cfg = {"state": {"library": "singlet"}, "criteria": [
        {"name": "pt_norm"}, {"name": "map", "map": {"kind": "stormer"}, "r": [2, 3, 7],
                              "class": {"side_a": ["1", "a", "a"], "side_b": ["1", "b", "b"]}}]}
    path = tmp_path / "c.json"
    path.write_text(json.dumps(cfg))
    tracer = tracing.Tracer()
    with tracing.installed(tracer, momentcrit):
        momentcrit.cli.main(["analyze", str(path), "--out", str(tmp_path / "report.txt")])
    for name in ("criteria.pt_norm_test", "criteria.map_test", "posmaps.stormer_map"):
        assert name in tracer.names
