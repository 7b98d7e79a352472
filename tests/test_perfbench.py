import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_traced_name_resolves(monkeypatch):
    # perfbench/run.py runs as a script, so `spans` is imported from the
    # perfbench directory. Traced runs patch each (owner, attribute) by name;
    # a refactor that drops or renames one must fail here, not only in the
    # benchmark gate.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spans = importlib.import_module("spans")
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, _, _ in spans.TRACED
               if not callable(getattr(owner, attr, None))]
    assert not missing
