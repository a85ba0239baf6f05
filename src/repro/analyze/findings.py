"""Typed findings and the deterministic analysis report.

A :class:`Finding` is one rule hit: rule id, severity, location
(pc/block/function where resolvable), a human message and a JSON-safe
``evidence`` dict.  An :class:`AnalysisReport` is the ordered set of
findings one analysis run produced over one firmware image, plus the
image stats the rules ran against.

Determinism is a contract, not an accident: findings sort on a total
key ``(rule, pc, function, message)``, evidence dicts hold only
JSON-safe values inserted in sorted order, and ``to_dict()`` carries
no wall-clock -- two runs over the same image serialise to identical
bytes, which is what lets fleets pin a report baseline per image.
"""

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.errors import ReproError

SEVERITIES = ("info", "warn", "critical")


class AnalyzeError(ReproError):
    """Static-analysis failure (bad rule name, unanalyzable image)."""


@dataclass(frozen=True)
class Finding:
    """One rule hit on one location of the analyzed image."""

    rule: str
    severity: str  # one of SEVERITIES
    message: str
    pc: Optional[int] = None  # instruction address, when resolvable
    block: Optional[int] = None  # enclosing basic-block start address
    function: Optional[str] = None  # enclosing function name
    evidence: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self):
        if self.severity not in SEVERITIES:
            raise AnalyzeError(f"unknown severity {self.severity!r}; "
                               f"one of {', '.join(SEVERITIES)}")

    @property
    def sort_key(self) -> Tuple:
        return (self.rule, self.pc if self.pc is not None else -1,
                self.function or "", self.message)

    def to_dict(self) -> dict:
        return {
            "rule": self.rule,
            "severity": self.severity,
            "message": self.message,
            "pc": self.pc,
            "block": self.block,
            "function": self.function,
            "evidence": {key: self.evidence[key]
                         for key in sorted(self.evidence)},
        }

    @staticmethod
    def from_dict(data: dict) -> "Finding":
        return Finding(
            rule=data["rule"],
            severity=data["severity"],
            message=data["message"],
            pc=data.get("pc"),
            block=data.get("block"),
            function=data.get("function"),
            evidence=dict(data.get("evidence", {})),
        )

    def render(self) -> str:
        where = ""
        if self.pc is not None:
            where = f" @0x{self.pc:04x}"
        if self.function:
            where += f" [{self.function}]"
        return f"{self.severity:>8}  {self.rule}{where}: {self.message}"


@dataclass
class AnalysisReport:
    """Every finding one analysis run produced, deterministically ordered."""

    name: str
    variant: str
    rules: Tuple[str, ...]  # the rules that actually ran, sorted
    findings: List[Finding] = field(default_factory=list)
    stats: Dict[str, int] = field(default_factory=dict)

    def extend(self, findings) -> None:
        self.findings.extend(findings)

    def finalize(self) -> "AnalysisReport":
        """Impose the canonical ordering; idempotent."""
        self.findings.sort(key=lambda finding: finding.sort_key)
        return self

    # ---- aggregate queries -----------------------------------------------

    def count(self, severity: str) -> int:
        return sum(1 for f in self.findings if f.severity == severity)

    @property
    def criticals(self) -> List[Finding]:
        return [f for f in self.findings if f.severity == "critical"]

    @property
    def ok(self) -> bool:
        """Clean enough to enroll: no critical findings."""
        return not self.criticals

    # ---- serialisation -----------------------------------------------------

    def to_dict(self) -> dict:
        self.finalize()
        return {
            "name": self.name,
            "variant": self.variant,
            "rules": list(self.rules),
            "ok": self.ok,
            "counts": {severity: self.count(severity)
                       for severity in SEVERITIES},
            "findings": [finding.to_dict() for finding in self.findings],
            "stats": {key: self.stats[key] for key in sorted(self.stats)},
        }

    def render(self) -> str:
        self.finalize()
        lines = [f"analysis: {self.name} ({self.variant}) -- "
                 f"{len(self.findings)} findings "
                 f"({self.count('critical')} critical, "
                 f"{self.count('warn')} warn, {self.count('info')} info)"]
        lines.extend(finding.render() for finding in self.findings)
        return "\n".join(lines)
