//! Stable diagnostic codes shared by the static analyzer and the
//! runtime engines.
//!
//! Each code names one way a record can fail to flow through a network.
//! The static analyzer (`snet-analyze`) emits them at build time —
//! SNA001–005 when it can prove the failure from the inferred types,
//! SNA006–009 from the topology alone (its structural pass, which is
//! also the engines' pre-flight); the runtime engines attach the same
//! code to the corresponding routing error so a production log line and
//! a lint report cross-reference.
//!
//! | code   | meaning                                               |
//! |--------|-------------------------------------------------------|
//! | SNA001 | record type unroutable at a parallel combinator       |
//! | SNA002 | parallel branch dead: input type never produced       |
//! | SNA003 | synchrocell pattern can never be completed            |
//! | SNA004 | split input not guaranteed to carry the index tag     |
//! | SNA005 | filter/tag expression references an unbound label     |
//! | SNA006 | `@` / `!@` placement target out of range              |
//! | SNA007 | star exit pattern matches every record: body unreachable |
//! | SNA008 | parallel branches with identical input patterns       |
//! | SNA009 | synchrocell with fewer than two patterns              |

use std::fmt;

/// Stable diagnostic code. The `Display` form (`SNA001` …) is the
/// cross-referencing key between static reports and runtime errors and
/// must never change for an existing code.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum DiagCode {
    /// A record type reaching a `Parallel` combinator matches no branch.
    UnroutableAtParallel,
    /// A `Parallel` branch whose input pattern no upstream type can
    /// ever produce.
    DeadBranch,
    /// A synchrocell pattern that the inferred upstream type can never
    /// complete, so the cell would hold its storage forever.
    SyncNeverFires,
    /// A `Split` (`!<tag>` / `!@<tag>`) input type not guaranteed to
    /// carry the index tag.
    SplitMissingTag,
    /// A filter output template or tag expression referencing a label
    /// not proven present in the input type.
    UnboundLabel,
    /// An `@node` / `!@` placement index outside the configured node
    /// range.
    PlacementOutOfRange,
    /// A `Star` whose exit pattern is empty and unguarded: every record
    /// leaves before the first iteration, so the body never runs.
    StarBodyUnreachable,
    /// Two `Parallel` branches with identical input patterns: best-match
    /// routing always ties, so the later branch only ever loses.
    DuplicateBranchPatterns,
    /// A synchrocell with fewer than two patterns: it joins nothing and
    /// fires on the first match.
    DegenerateSync,
}

impl DiagCode {
    /// The stable `SNAxxx` code string.
    pub fn code(&self) -> &'static str {
        match self {
            DiagCode::UnroutableAtParallel => "SNA001",
            DiagCode::DeadBranch => "SNA002",
            DiagCode::SyncNeverFires => "SNA003",
            DiagCode::SplitMissingTag => "SNA004",
            DiagCode::UnboundLabel => "SNA005",
            DiagCode::PlacementOutOfRange => "SNA006",
            DiagCode::StarBodyUnreachable => "SNA007",
            DiagCode::DuplicateBranchPatterns => "SNA008",
            DiagCode::DegenerateSync => "SNA009",
        }
    }

    /// Short human-readable title used in report headers.
    pub fn title(&self) -> &'static str {
        match self {
            DiagCode::UnroutableAtParallel => "unroutable record type at parallel combinator",
            DiagCode::DeadBranch => "dead parallel branch",
            DiagCode::SyncNeverFires => "synchrocell can never fire",
            DiagCode::SplitMissingTag => "split input may lack the index tag",
            DiagCode::UnboundLabel => "reference to a label not proven present",
            DiagCode::PlacementOutOfRange => "placement target out of range",
            DiagCode::StarBodyUnreachable => "star body unreachable",
            DiagCode::DuplicateBranchPatterns => "parallel branches with identical input patterns",
            DiagCode::DegenerateSync => "synchrocell with fewer than two patterns",
        }
    }

    /// All codes, in numeric order (useful for exhaustive fixtures).
    pub fn all() -> [DiagCode; 9] {
        [
            DiagCode::UnroutableAtParallel,
            DiagCode::DeadBranch,
            DiagCode::SyncNeverFires,
            DiagCode::SplitMissingTag,
            DiagCode::UnboundLabel,
            DiagCode::PlacementOutOfRange,
            DiagCode::StarBodyUnreachable,
            DiagCode::DuplicateBranchPatterns,
            DiagCode::DegenerateSync,
        ]
    }
}

impl fmt::Display for DiagCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.code())
    }
}

/// How severe a diagnostic is. `Error` diagnostics fail the engine
/// pre-flight check and `snet-lint`; `Warning`s are report-only.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum DiagSeverity {
    /// Report-only; the network can still run.
    Warning,
    /// Fails pre-flight / lint.
    Error,
}

impl fmt::Display for DiagSeverity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DiagSeverity::Warning => f.write_str("warning"),
            DiagSeverity::Error => f.write_str("error"),
        }
    }
}

/// One structured diagnostic: a stable code, a severity, a
/// human-readable message, and the topology path of the offending
/// subnet (e.g. `merger/star/sync`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Stable code (see [`DiagCode`]).
    pub code: DiagCode,
    /// Severity; `Error` fails pre-flight.
    pub severity: DiagSeverity,
    /// Human-readable explanation, including the types involved.
    pub message: String,
    /// Slash-separated path through the topology to the offending node.
    pub path: String,
}

impl Diagnostic {
    /// An `Error`-severity diagnostic.
    pub fn error(code: DiagCode, path: impl Into<String>, message: impl Into<String>) -> Self {
        Diagnostic {
            code,
            severity: DiagSeverity::Error,
            message: message.into(),
            path: path.into(),
        }
    }

    /// A `Warning`-severity diagnostic.
    pub fn warning(code: DiagCode, path: impl Into<String>, message: impl Into<String>) -> Self {
        Diagnostic {
            code,
            severity: DiagSeverity::Warning,
            message: message.into(),
            path: path.into(),
        }
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}[{}] at {}: {}",
            self.severity, self.code, self.path, self.message
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_stable_strings() {
        let rendered: Vec<&str> = DiagCode::all().iter().map(|c| c.code()).collect();
        assert_eq!(
            rendered,
            [
                "SNA001", "SNA002", "SNA003", "SNA004", "SNA005", "SNA006", "SNA007", "SNA008",
                "SNA009"
            ]
        );
    }

    #[test]
    fn display_includes_code_path_and_message() {
        let d = Diagnostic::error(DiagCode::SplitMissingTag, "net/split", "no tag <node>");
        let s = d.to_string();
        assert!(s.contains("SNA004"), "{s}");
        assert!(s.contains("net/split"), "{s}");
        assert!(s.contains("no tag <node>"), "{s}");
        assert!(s.starts_with("error"), "{s}");
    }
}
