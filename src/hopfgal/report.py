"""Structured pass/fail reports returned by the verify_* entry points.

A report is a named list of checks, each with an optional witness string
describing the first failing identity.  Reports nest, aggregate with ``ok``,
and serialize deterministically for the CLI's machine-readable output.
"""

from __future__ import annotations

from .record import Record


class Check(Record):
    name: str
    ok: bool
    witness: str = ""

    def to_json(self):
        out = {"check": self.name, "ok": self.ok}
        if self.witness:
            out["witness"] = self.witness
        return out


class Report(Record):
    title: str
    checks: list[Check] = []
    subreports: list["Report"] = []

    def add(self, name: str, ok: bool, witness: str = "") -> bool:
        self.checks.append(Check(name, ok, witness if not ok else ""))
        return ok

    def nest(self, sub: "Report", title: str | None = None) -> "Report":
        """Append sub as a subreport, retitled ``title`` when one is given:
        a report another verifier returned is named for its place here."""
        if title is not None:
            sub.title = title
        self.subreports.append(sub)
        return sub

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks) and all(r.ok for r in self.subreports)

    def failures(self):
        for c in self.checks:
            if not c.ok:
                yield f"{self.title}: {c.name}" + (f" [{c.witness}]" if c.witness else "")
        for r in self.subreports:
            yield from r.failures()

    def to_json(self):
        out = {"title": self.title, "ok": self.ok,
               "checks": [c.to_json() for c in self.checks]}
        if self.subreports:
            out["subreports"] = [r.to_json() for r in self.subreports]
        return out

    def __str__(self):
        lines = [f"[{'ok' if self.ok else 'FAIL'}] {self.title}"]
        for c in self.checks:
            mark = "ok" if c.ok else "FAIL"
            suffix = f"  ({c.witness})" if c.witness else ""
            lines.append(f"  [{mark}] {c.name}{suffix}")
        for r in self.subreports:
            lines.extend("  " + ln for ln in str(r).splitlines())
        return "\n".join(lines)
