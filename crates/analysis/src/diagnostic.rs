//! Diagnostics: the single currency every analysis pass reports in.

use std::fmt;

/// How serious a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Informational note (never blocks evaluation).
    Info,
    /// Suspicious but evaluable (dead code, likely mistakes).
    Warning,
    /// The query/program is rejected before evaluation (by
    /// [`preflight_formula`](crate::preflight_formula) and the store).
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Info => write!(f, "info"),
            Severity::Warning => write!(f, "warning"),
            Severity::Error => write!(f, "error"),
        }
    }
}

/// Where in the source a finding points.
///
/// Formulas are parsed from a single line, so their parser reports byte
/// offsets; Datalog programs are line-oriented, so rules carry 1-based line
/// numbers ([`dco_logic::datalog::Rule::line`]). Programmatically built
/// syntax has no location.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Span {
    /// Byte offset into a formula source string.
    Byte(usize),
    /// 1-based line in a Datalog program source.
    Line(usize),
    /// No source location available.
    Unknown,
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Span::Byte(b) => write!(f, "byte {b}"),
            Span::Line(l) => write!(f, "line {l}"),
            Span::Unknown => write!(f, "unknown location"),
        }
    }
}

impl Span {
    /// Span for a rule: its source line if known.
    pub fn of_rule(rule: &dco_logic::datalog::Rule) -> Span {
        if rule.line == 0 {
            Span::Unknown
        } else {
            Span::Line(rule.line)
        }
    }
}

/// One finding from the analyzer.
///
/// Diagnostic codes are stable strings, grouped by pass:
///
/// | range  | pass                          |
/// |--------|-------------------------------|
/// | DCO1xx | schema / arity / sort checks  |
/// | DCO2xx | safety & range restriction    |
/// | DCO3xx | stratifiability               |
/// | DCO4xx | static unsatisfiability       |
/// | DCO5xx | cost budget                   |
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// How serious the finding is.
    pub severity: Severity,
    /// Stable machine-readable code (e.g. `"DCO102"`).
    pub code: &'static str,
    /// Human-readable description.
    pub message: String,
    /// Source location, when known.
    pub span: Span,
}

impl Diagnostic {
    /// An error-severity diagnostic.
    pub fn error(code: &'static str, message: impl Into<String>, span: Span) -> Diagnostic {
        Diagnostic {
            severity: Severity::Error,
            code,
            message: message.into(),
            span,
        }
    }

    /// A warning-severity diagnostic.
    pub fn warning(code: &'static str, message: impl Into<String>, span: Span) -> Diagnostic {
        Diagnostic {
            severity: Severity::Warning,
            code,
            message: message.into(),
            span,
        }
    }

    /// An info-severity diagnostic.
    pub fn info(code: &'static str, message: impl Into<String>, span: Span) -> Diagnostic {
        Diagnostic {
            severity: Severity::Info,
            code,
            message: message.into(),
            span,
        }
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}[{}]: {} ({})",
            self.severity, self.code, self.message, self.span
        )
    }
}

/// Whether any diagnostic is error severity (the preflight gate).
pub fn has_errors(diags: &[Diagnostic]) -> bool {
    diags.iter().any(|d| d.severity == Severity::Error)
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn display_shape() {
        let d = Diagnostic::error("DCO102", "arity mismatch for R", Span::Line(4));
        assert_eq!(
            d.to_string(),
            "error[DCO102]: arity mismatch for R (line 4)"
        );
        let w = Diagnostic::warning("DCO401", "dead rule", Span::Unknown);
        assert!(w.to_string().starts_with("warning[DCO401]"));
    }

    #[test]
    fn error_gate() {
        let w = Diagnostic::warning("DCO401", "dead rule", Span::Unknown);
        assert!(!has_errors(std::slice::from_ref(&w)));
        let e = Diagnostic::error("DCO101", "unknown predicate", Span::Byte(2));
        assert!(has_errors(&[w, e]));
    }
}
