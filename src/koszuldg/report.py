"""Run reports: every command emits one, as a table or as JSON.

A report carries the command, content hashes of its inputs, the window with
its guaranteed sub-range, result tables, invariant-check outcomes, and wall
time.  The two output formats contain the same numbers; repeated runs are
byte-identical except for the timing field.
"""
from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from fractions import Fraction

from .grlin import Window


def content_hash(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


@dataclass
class RunReport:
    command: str
    inputs: dict = field(default_factory=dict)
    window: Window | None = None
    tables: dict = field(default_factory=dict)
    checks: list = field(default_factory=list)
    ms: int = 0

    def add_check(self, name: str, passed: bool, detail: str = ""):
        self.checks.append({"name": name, "passed": bool(passed), "detail": detail})

    def skip_check(self, name: str, reason: str):
        """A check that was not computed: it is reported, and never passes."""
        self.checks.append({"name": name, "passed": False, "skipped": True,
                            "detail": reason})

    def all_passed(self) -> bool:
        """Every computed check passed; skipped checks count neither way."""
        return all(c["passed"] for c in self.checks if not c.get("skipped"))

    def window_dict(self):
        if self.window is None:
            return None
        return {"lo": self.window.lo, "hi": self.window.hi,
                "guaranteed": [self.window.guaranteed_lo, self.window.guaranteed_hi]}

    def to_json(self) -> str:
        payload = {
            "command": self.command,
            "inputs": self.inputs,
            "window": self.window_dict(),
            "tables": _jsonable(self.tables),
            "checks": self.checks,
            "ms": self.ms,
        }
        return json.dumps(payload, sort_keys=True, indent=2)

    def to_text(self) -> str:
        lines = [f"command: {self.command}"]
        for k in sorted(self.inputs):
            lines.append(f"input {k}: {self.inputs[k]}")
        if self.window is not None:
            lines.append(f"window: {self.window}")
        for name in sorted(self.tables):
            lines.append(f"table {name}:")
            lines.extend("  " + row for row in _table_lines(self.tables[name]))
        for c in self.checks:
            mark = "skip" if c.get("skipped") else "ok" if c["passed"] else "FAIL"
            detail = f"  {c['detail']}" if c["detail"] else ""
            lines.append(f"check [{mark}] {c['name']}{detail}")
        lines.append(f"ms: {self.ms}")
        return "\n".join(lines) + "\n"


def _jsonable(x):
    if isinstance(x, dict):
        return {_key(k): _jsonable(v) for k, v in sorted(x.items(), key=lambda kv: _key(kv[0]))}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if isinstance(x, Fraction):
        return str(x)
    return x


def _key(k) -> str:
    if isinstance(k, tuple):
        return ",".join(str(p) for p in k)
    return str(k)


def _table_lines(table) -> list:
    if isinstance(table, dict):
        out = []
        for k, v in sorted(table.items(), key=lambda kv: _key(kv[0])):
            out.append(f"{_key(k)}: {_jsonable(v)}")
        return out
    return [str(table)]
