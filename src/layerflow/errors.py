"""Exception types shared across the solver."""
from __future__ import annotations


class SolverAbort(RuntimeError):
    """Raised when the solution leaves the domain of validity.

    A kernel names what failed (`reason`) and, where it can, the domain
    cell; the stepping loop, `timeloop.accepted_steps`, adds the step and
    the time, so the message reads `reason (step k, t=..., cell c)`.
    """

    def __init__(self, reason: str, step: int | None = None,
                 time: float | None = None, cell: int | None = None):
        parts = (("step {}", step), ("t={:.6g}", time), ("cell {}", cell))
        where = ", ".join(spec.format(v) for spec, v in parts if v is not None)
        super().__init__(f"{reason} ({where})" if where else reason)
        self.reason = reason
        self.step = step
        self.time = time
        self.cell = cell


class ConfigError(ValueError):
    """Raised for malformed or invalid scenario configurations.

    `problems` lists every issue found, each tagged with the offending
    key and line number where known.
    """

    def __init__(self, problems: list[str]):
        self.problems = list(problems)
        super().__init__("\n".join(self.problems))
