"""Explain reports: which rewrites fired and the modeled win per rewrite.

Mirrors :meth:`repro.collectives.selector.Selection.explain` — a header
line naming the program and target, a model line, then one aligned row
per fired rewrite with its modeled before/after cost.  Reports are
deterministic (fixed ``%.3e`` formatting, stable row order), so the
regression lane snapshots them verbatim.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["IRReport", "explain_all"]


@dataclass(frozen=True)
class IRReport:
    """One lowered program's pass outcome."""

    program: str
    machine: str
    runtime: str
    nranks: int
    passes: tuple[str, ...]
    rewrites: tuple  # of repro.ir.pipeline.Rewrite
    before: float | None  # modeled cost entering the pipeline
    after: float | None  # modeled cost leaving it
    notes: tuple[str, ...] = ()

    def explain(self) -> str:
        head = (
            f"ir: {self.program}(P={self.nranks}) on "
            f"{self.machine}/{self.runtime}"
        )
        caps_line = None
        try:
            from repro.transport.registry import get_backend

            caps = get_backend(self.runtime).caps
            # Branch on capabilities, not on the backend name: only
            # runtimes with device-side completion semantics get the
            # extra line (snapshot stability for the host-driven four).
            if caps.host_bypass or caps.stream_ordered:
                caps_line = f"  caps: {caps.summary()}"
        except Exception:  # unregistered custom backend at report time
            pass
        if not self.passes:
            lines = [head + " -> passes off"]
        else:
            n_p, n_r = len(self.passes), len(self.rewrites)
            lines = [
                head
                + f" -> {n_p} pass{'es' if n_p != 1 else ''}, "
                + (f"{n_r} rewrite{'s' if n_r != 1 else ''}"
                   if n_r else "no rewrites fired")
            ]
            lines.append("  passes: " + ", ".join(self.passes))
        if caps_line is not None:
            lines.append(caps_line)
        for note in self.notes:
            lines.append(f"  note: {note}")
        if self.rewrites:
            labels = [f"{rw.pass_name}/{rw.kind}" for rw in self.rewrites]
            width = max(len(s) for s in labels)
            for label, rw in zip(labels, self.rewrites):
                lines.append(
                    f"  {label:<{width}}  x{rw.count:<6d} "
                    f"{rw.before:.3e} s -> {rw.after:.3e} s  "
                    f"(win {rw.win:.3e} s)  [{rw.detail}]"
                )
        if self.before is not None and self.after is not None:
            ratio = self.before / self.after if self.after > 0 else float("inf")
            lines.append(
                f"  total: {self.before:.3e} s -> {self.after:.3e} s "
                f"({ratio:.2f}x modeled)"
            )
        return "\n".join(lines)


def explain_all(reports) -> str:
    """Render many reports, deduplicating identical texts with a count.

    Experiments lower one program per sweep point; the interesting unit
    is the distinct (program, target, rewrites) shape, not the point
    count — so identical reports collapse to one block with ``xN``.
    """
    seen: dict[str, int] = {}
    order: list[str] = []
    for r in reports:
        text = r.explain()
        if text not in seen:
            order.append(text)
            seen[text] = 0
        seen[text] += 1
    blocks = []
    for text in order:
        n = seen[text]
        blocks.append(text if n == 1 else f"{text}\n  (x{n} identical programs)")
    return "\n\n".join(blocks)
